// The traced pass: a USB scan driven stage by stage, and a replay of one
// refinement step's kernels at the workload's own shapes. Every span is timed
// from outside, around calls into the library's public functions.
#pragma once

#include <cstdint>
#include <vector>

#include "common.h"
#include "core/usb.h"
#include "population.h"
#include "utils/thread_pool.h"

namespace perfbench {

struct TraceResult {
  std::int64_t scans = 0;
  std::int64_t mismatches = 0;
  /// False when stage.reconcile_ratio or refine.replay_ratio left its bound.
  bool within_bounds = true;
};

/// Drives each member's USB scan through StagedScan on `pool` (`threads`
/// wide, the width detect() runs at) and checks its report against
/// `references` (the detect() reports, wire-encoded without timings); the
/// untraced wall it reconciles with is a detect() of the same member timed
/// from outside right before, `repeats` times (medians reported). Then
/// replays one refinement step's kernels at the workload's shapes and
/// refine-stage concurrency. Sets the stage.*, nn.*, ssim.*, tensor.*,
/// adam, deepfool, fooling and ratio metrics.
[[nodiscard]] TraceResult trace_detect(usb::UsbDetector& detector, usb::ThreadPool& pool,
                                       int threads, std::vector<Member>& members,
                                       const usb::Dataset& probe,
                                       const std::vector<std::vector<std::uint8_t>>& references,
                                       int repeats, bool smoke, Metrics& metrics);

/// Fixed-shape single-thread GEMM (256x256x256), median ms: the machine
/// fingerprint every result carries, so numbers from different machines are
/// never compared silently.
[[nodiscard]] double calibration_gemm_ms();

}  // namespace perfbench
