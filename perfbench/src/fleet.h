// The serving side: the fleet workload (burst + open loop through a
// WorkerFleet of scan_server processes) and the service-layer probes the
// traced pass of the other workloads runs (wire codec, ModelStore and probe
// materialization on the workload's own model, probe and report, plus a
// short fleet session over the fleet population).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "population.h"

namespace perfbench {

/// USB_THREADS of each fleet worker. A worker's two round dispatchers each
/// run a class job of its one scan in flight, so with a one-thread pool a
/// worker computes on at most two threads and the 2-worker fleet on four.
inline constexpr int kFleetThreadsPerWorker = 1;

struct FleetArgs {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
};

struct FleetResult {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  bool correct = true;
  std::vector<std::vector<std::uint8_t>> reference_blobs;
};

[[nodiscard]] FleetResult run_fleet_workload(const FleetArgs& args, const RunDir& run_dir,
                                             Metrics& metrics);

struct ServiceProbeInputs {
  std::vector<Member>* members = nullptr;
  usb::DatasetSpec dataset;
  std::int64_t probe_size = 0;
  /// Wire-encoded result of the workload's own reference scan.
  const std::vector<std::uint8_t>* reference_result = nullptr;
  std::uint64_t seed = 1;
  bool smoke = false;
  const RunDir* run_dir = nullptr;
};

struct ServiceProbeResult {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
};

/// Service-layer metrics over the workload's own model, probe and report,
/// plus fleet-layer metrics from a short session over the fleet population.
[[nodiscard]] ServiceProbeResult probe_service(const ServiceProbeInputs& inputs, Metrics& metrics);

}  // namespace perfbench
