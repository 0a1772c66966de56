#include "fleet.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <span>
#include <thread>

#include "data/probe_store.h"
#include "exp/model_zoo.h"
#include "nn/checkpoint.h"
#include "service/model_store.h"
#include "service/scan_worker.h"
#include "service/worker_fleet.h"
#include "trace.h"
#include "utils/rng.h"

namespace perfbench {
namespace {

constexpr std::int64_t kWorkers = 2;
constexpr std::int64_t kWorkerSteps = 6;  // scan_server --steps
constexpr std::int64_t kProbeSize = 64;
constexpr int kSetupReps = 2;
// Open-loop arrival rate, about a quarter of the fleet's burst capacity on an
// idle host, so that the queue stays short when a busy host slows the
// machine down by half or more (BENCHMARK.json records it with the workload).
constexpr double kOpenLoopRate = 1.5;  // scans/s
// Capacity is the median of kBursts bursts of kBurstRequests requests.
constexpr int kBursts = 3;
constexpr std::int64_t kBurstRequests = 12;

/// The request mix, as indices into build_references()'s kinds (badnet/USB,
/// badnet/NC, clean/USB, clean/NC): USB, the paper's detector, twice as
/// often as NC, each over both models. Every phase sends whole cycles, so
/// each run scans the same mix; the 2:1 split also keeps the latency median
/// inside one method's mode instead of in the gap between the two.
constexpr std::array<std::size_t, 6> kMixCycle = {0, 2, 0, 2, 1, 3};

/// `count` rounded up to whole mix cycles.
std::int64_t whole_cycles(std::int64_t count) {
  const auto cycle = static_cast<std::int64_t>(kMixCycle.size());
  return std::max<std::int64_t>(1, (count + cycle - 1) / cycle) * cycle;
}

const std::vector<std::string>& methods() {
  static const std::vector<std::string> names = {"USB", "NC"};
  return names;
}

/// One kind of request: a model of the population scanned by one method,
/// with the in-process reference it must reproduce byte for byte.
struct RequestKind {
  std::size_t member = 0;
  std::string method;
  std::vector<std::uint8_t> reference;
  bool verdict_ok = false;
  double in_process_s = 0.0;
};

usb::ProbeKey fleet_probe_key(const usb::DatasetSpec& dataset) {
  return usb::ProbeKey{dataset, kProbeSize, kProbeSeed};
}

/// `count` requests of the mix, in an order drawn from `seed` and `salt`.
std::vector<std::size_t> request_order(std::int64_t count, std::uint64_t seed,
                                       std::uint64_t salt) {
  std::vector<std::size_t> order;
  for (std::int64_t i = 0; i < count; ++i) {
    order.push_back(kMixCycle[static_cast<std::size_t>(i) % kMixCycle.size()]);
  }
  usb::Rng rng(usb::hash_combine(seed, salt));
  rng.shuffle(std::span<std::size_t>(order));
  return order;
}

/// In-process detect() with the worker's own detector configuration, on the
/// checkpoint a worker would load and the probe its ProbeStore would build.
std::vector<RequestKind> build_references(const std::vector<Member>& members,
                                          const usb::ProbeKey& key) {
  const usb::Dataset probe = usb::make_probe(key.spec, key.probe_size, key.seed);
  std::vector<RequestKind> kinds;
  for (std::size_t m = 0; m < members.size(); ++m) {
    usb::Network model = usb::load_checkpoint(members[m].checkpoint);
    for (const std::string& method : methods()) {
      const usb::DetectorPtr detector = usb::make_wire_detector(method, kWorkerSteps);
      const Clock::time_point start = Clock::now();
      const usb::DetectionReport report = detector->detect(model, probe);
      RequestKind kind;
      kind.in_process_s = seconds_since(start);
      kind.member = m;
      kind.method = method;
      kind.reference = timeless_bytes(report);
      kind.verdict_ok =
          verdict_correct(report, members[m].backdoored, members[m].target_class);
      std::printf("# reference %s/%s: %s, %s\n", method.c_str(), members[m].label.c_str(),
                  report.verdict.backdoored ? "BACKDOORED" : "clean",
                  kind.verdict_ok ? "verdict ok" : "VERDICT WRONG");
      kinds.push_back(std::move(kind));
    }
  }
  return kinds;
}

std::unique_ptr<usb::WorkerFleet> spawn_fleet(std::int64_t store_bytes) {
  usb::FleetConfig config;
  config.worker_argv = {PERFBENCH_SCAN_SERVER, "--steps", std::to_string(kWorkerSteps),
                        "--store-bytes", std::to_string(store_bytes)};
  config.num_workers = kWorkers;
  // One scan at a time per worker, so the fleet never runs more compute
  // threads than it has dispatchers; further requests queue in the supervisor.
  config.max_in_flight_per_worker = 1;
  config.heartbeat_interval_seconds = 0.25;
  config.heartbeat_timeout_seconds = 30.0;
  return std::make_unique<usb::WorkerFleet>(config);
}

usb::wire::WireScanRequest make_request(const std::vector<Member>& members,
                                        const RequestKind& kind, const usb::ProbeKey& key) {
  usb::wire::WireScanRequest request;
  request.model_ref = usb::ModelRef::from_checkpoint(members[kind.member].checkpoint);
  request.probe_key = key;
  request.method = kind.method;
  return request;
}

/// Checks a fleet outcome against its in-process reference.
bool outcome_ok(const usb::FleetOutcome& outcome, const RequestKind& kind) {
  return outcome.status == usb::ScanStatus::kDone &&
         timeless_bytes(outcome.report) == kind.reference;
}

struct Tally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
};

/// All requests at once; capacity is completions over the time to the last.
double burst(usb::WorkerFleet& fleet, const std::vector<Member>& members,
             const std::vector<RequestKind>& kinds, const usb::ProbeKey& key,
             std::int64_t count, std::uint64_t seed, Tally& tally) {
  const std::vector<std::size_t> order = request_order(count, seed, 0xb0257ULL);
  std::vector<usb::FleetHandle> handles;
  const Clock::time_point start = Clock::now();
  for (const std::size_t k : order) {
    handles.push_back(fleet.submit(make_request(members, kinds[k], key)));
  }
  for (std::size_t i = 0; i < handles.size(); ++i) {
    const usb::FleetOutcome& outcome = handles[i].wait();
    ++tally.attempted;
    if (!outcome_ok(outcome, kinds[order[i]])) ++tally.failed;
  }
  return static_cast<double>(count) / seconds_since(start);
}

struct OpenLoop {
  std::vector<double> latency;      // resolution minus due time
  std::vector<double> lag;          // submission minus due time
  std::vector<double> worker_wall;  // worker-side report wall_seconds
  std::vector<double> wait_share;   // share of latency outside the worker's scan
  double queued_mean = 0.0;
  double in_flight_mean = 0.0;
};

/// Open loop at a fixed rate: request i is due at start + i / rate whatever
/// the fleet's state; the seed fixes the order of request kinds (a balanced
/// shuffle). One waiter thread per request records its resolution time.
OpenLoop open_loop(usb::WorkerFleet& fleet, const std::vector<Member>& members,
                   const std::vector<RequestKind>& kinds, const usb::ProbeKey& key,
                   std::int64_t count, double rate, std::uint64_t seed, Tally& tally) {
  const std::vector<std::size_t> order = request_order(count, seed, 0x10adULL);

  OpenLoop out;
  std::mutex mutex;  // guards `out` vectors and tally, written by waiters
  std::atomic<bool> sampling{true};
  std::vector<double> queued;
  std::vector<double> in_flight;
  std::thread sampler([&] {
    while (sampling.load()) {
      const usb::FleetHealth health = fleet.health();
      queued.push_back(static_cast<double>(health.queued_requests));
      in_flight.push_back(static_cast<double>(health.in_flight_requests));
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });

  std::vector<std::thread> waiters;
  const Clock::time_point start = Clock::now();
  for (std::int64_t i = 0; i < count; ++i) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(static_cast<double>(i) / rate));
    std::this_thread::sleep_until(due);
    const RequestKind& kind = kinds[order[static_cast<std::size_t>(i)]];
    usb::FleetHandle handle = fleet.submit(make_request(members, kind, key));
    const double lag = std::chrono::duration<double>(Clock::now() - due).count();
    waiters.emplace_back([&, handle, due, lag, &kind = kind] {
      const usb::FleetOutcome& outcome = handle.wait();
      const double latency = std::chrono::duration<double>(Clock::now() - due).count();
      const std::lock_guard<std::mutex> lock(mutex);
      out.latency.push_back(latency);
      out.lag.push_back(lag);
      out.worker_wall.push_back(outcome.report.wall_seconds);
      out.wait_share.push_back(1.0 - outcome.report.wall_seconds / latency);
      ++tally.attempted;
      if (!outcome_ok(outcome, kind)) ++tally.failed;
    });
  }
  for (std::thread& waiter : waiters) waiter.join();
  sampling.store(false);
  sampler.join();
  out.queued_mean = mean(queued);
  out.in_flight_mean = mean(in_flight);
  return out;
}

/// Wire codec, ModelStore and probe materialization, timed around single
/// calls on the given model, probe key and report.
void probe_service_layers(const Member& member, const usb::ProbeKey& key,
                          const std::vector<std::uint8_t>& result_bytes, bool smoke,
                          Metrics& metrics) {
  const int reps = smoke ? 50 : 1000;
  usb::wire::WireScanRequest request;
  request.request_id = 1;
  request.model_ref = usb::ModelRef::from_checkpoint(member.checkpoint);
  request.probe_key = key;
  request.method = "USB";
  const double encode_s = median_call_seconds(5, [&] {
    for (int i = 0; i < reps; ++i) (void)usb::wire::encode_request(request);
  });
  metrics.set("wire.request_encode_us", encode_s / reps * 1e6, "us");
  const double decode_s = median_call_seconds(5, [&] {
    for (int i = 0; i < reps / 10 + 1; ++i) (void)usb::wire::decode_result(result_bytes);
  });
  metrics.set("wire.result_decode_us", decode_s / (reps / 10 + 1) * 1e6, "us");
  metrics.set("wire.result_bytes", static_cast<double>(result_bytes.size()), "bytes");

  const usb::ModelRef ref = usb::ModelRef::from_checkpoint(member.checkpoint);
  metrics.set("model_store.cold_load_ms", 1e3 * median_call_seconds(smoke ? 1 : 5, [&] {
                usb::ModelStore store;
                (void)store.get_or_create(ref);
              }),
              "ms");
  usb::ModelStore warm;
  (void)warm.get_or_create(ref);
  const double hit_s = median_call_seconds(5, [&] {
    for (int i = 0; i < reps; ++i) (void)warm.get_or_create(ref);
  });
  metrics.set("model_store.hit_us", hit_s / reps * 1e6, "us");
  metrics.set("probe.materialize_ms", 1e3 * median_call_seconds(smoke ? 1 : 5, [&] {
                usb::ProbeStore store;
                (void)store.get_or_create(key);
              }),
              "ms");
}

/// Store cap of each worker: room for one resident model, so alternating
/// models load cold beside hits on the same model.
std::int64_t worker_store_bytes(const std::vector<Member>& members) {
  return usb::network_resident_bytes(members[0].network) * 3 / 2;
}

void fleet_layer_metrics(const OpenLoop& loop, const std::vector<RequestKind>& kinds,
                         double spawn_s, Metrics& metrics) {
  metrics.set("fleet.queued_mean", loop.queued_mean, "requests");
  metrics.set("fleet.in_flight_mean", loop.in_flight_mean, "requests");
  metrics.set("fleet.wait_share", mean(loop.wait_share), "share");
  for (const std::string& method : methods()) {
    std::vector<double> walls;
    for (const RequestKind& kind : kinds) {
      if (kind.method == method) walls.push_back(kind.in_process_s);
    }
    metrics.set("scan.detect_s." + method, median(walls), "s");
  }
  metrics.set("fleet.spawn_s", spawn_s, "s");
  metrics.set("loadgen.lag_p90_s", quantile(loop.lag, 0.9), "s");
}

/// One fleet session over the fleet population: setup (train + spawn,
/// `reps` times), in-process references, a burst, then the open loop.
struct FleetSession {
  std::vector<Member> members;
  std::vector<RequestKind> kinds;
  std::vector<double> setup_s;
  std::vector<double> train_s;
  std::vector<double> spawn_s;
  double capacity = 0.0;
  OpenLoop loop;
  Tally tally;
  std::int64_t verdicts_ok = 0;
  usb::ProbeKey key;
};

FleetSession run_session(std::uint64_t seed, const RunDir& run_dir, int reps, int bursts,
                         std::int64_t burst_count, std::int64_t open_count) {
  FleetSession s;
  const PopulationSpec spec = population_for("fleet-mixed-open");
  s.key = fleet_probe_key(spec.dataset);
  // Workers run kFleetThreadsPerWorker compute threads whatever this
  // process's own width is.
  setenv("USB_THREADS", std::to_string(kFleetThreadsPerWorker).c_str(), 1);
  std::unique_ptr<usb::WorkerFleet> fleet;
  for (int r = 0; r < reps; ++r) {
    if (fleet) fleet->shutdown();
    const Clock::time_point start = Clock::now();
    s.members = train_in_child("fleet-mixed-open", run_dir.subdir("fleet" + std::to_string(r)));
    s.train_s.push_back(seconds_since(start));
    const Clock::time_point spawn_start = Clock::now();
    fleet = spawn_fleet(worker_store_bytes(s.members));
    s.spawn_s.push_back(seconds_since(spawn_start));
    s.setup_s.push_back(seconds_since(start));
  }
  s.kinds = build_references(s.members, s.key);
  for (const RequestKind& kind : s.kinds) {
    if (kind.verdict_ok) ++s.verdicts_ok;
  }
  std::vector<double> capacities;
  for (int b = 0; b < bursts; ++b) {
    capacities.push_back(burst(*fleet, s.members, s.kinds, s.key, burst_count,
                               usb::hash_combine(seed, static_cast<std::uint64_t>(b)), s.tally));
  }
  s.capacity = median(capacities);
  s.loop = open_loop(*fleet, s.members, s.kinds, s.key, open_count, kOpenLoopRate, seed, s.tally);
  fleet->shutdown();
  std::printf("# fleet: burst capacity %.3f scans/s; open loop %lld requests at %.2f/s, "
              "p50 %.3f s, p90 %.3f s, queued mean %.2f\n",
              s.capacity, static_cast<long long>(open_count), kOpenLoopRate,
              quantile(s.loop.latency, 0.5), quantile(s.loop.latency, 0.9), s.loop.queued_mean);
  return s;
}

}  // namespace

FleetResult run_fleet_workload(const FleetArgs& args, const RunDir& run_dir, Metrics& metrics) {
  // The open loop sends about --seconds worth of requests at the fixed rate.
  const std::int64_t open_count =
      whole_cycles(args.smoke ? 1 : static_cast<std::int64_t>(args.seconds * kOpenLoopRate));
  FleetSession s = run_session(args.seed, run_dir, args.smoke ? 1 : kSetupReps,
                               args.smoke ? 1 : kBursts,
                               whole_cycles(args.smoke ? 1 : kBurstRequests), open_count);
  FleetResult result;
  for (const RequestKind& kind : s.kinds) result.reference_blobs.push_back(kind.reference);
  result.attempted = s.tally.attempted;
  result.failed = s.tally.failed;

  if (args.trace) {
    metrics.set("exp.train_s", median(s.train_s), "s");
    metrics.set("verdict_correct_share",
                static_cast<double>(s.verdicts_ok) / static_cast<double>(s.kinds.size()), "share");
    fleet_layer_metrics(s.loop, s.kinds, median(s.spawn_s), metrics);
    probe_service_layers(s.members[0], s.key, s.kinds[0].reference, args.smoke, metrics);
    // Stage trace and kernel replay of the worker's USB scan, in process, on
    // the global pool the worker's scans also use.
    const usb::DetectorPtr detector = usb::make_wire_detector("USB", kWorkerSteps);
    const usb::Dataset probe = usb::make_probe(s.key.spec, s.key.probe_size, s.key.seed);
    const std::vector<std::vector<std::uint8_t>> references = {s.kinds[0].reference,
                                                               s.kinds[2].reference};
    // At a fraction of a second a scan, four repetitions damp the noise.
    const TraceResult traced = trace_detect(
        dynamic_cast<usb::UsbDetector&>(*detector), usb::ThreadPool::global(),
        kFleetThreadsPerWorker, s.members, probe, references, /*repeats=*/4, args.smoke, metrics);
    result.attempted += traced.scans;
    result.failed += traced.mismatches;
    if (!traced.within_bounds) result.correct = false;
    return result;
  }
  metrics.set("setup_s", median(s.setup_s), "s");
  metrics.set("detect_s", median(s.loop.worker_wall), "s");
  metrics.set("latency_p50_s", quantile(s.loop.latency, 0.5), "s");
  metrics.set("latency_p90_s", quantile(s.loop.latency, 0.9), "s");
  metrics.set("capacity_scans_per_s", s.capacity, "1/s");
  metrics.set("ok_share",
              1.0 - static_cast<double>(result.failed) / static_cast<double>(result.attempted),
              "share");
  return result;
}

ServiceProbeResult probe_service(const ServiceProbeInputs& inputs, Metrics& metrics) {
  const usb::ProbeKey key{inputs.dataset, inputs.probe_size, kProbeSeed};
  probe_service_layers(inputs.members->front(), key, *inputs.reference_result, inputs.smoke,
                       metrics);
  // The fleet layers, probed with a short session over the fleet population.
  const FleetSession s =
      run_session(inputs.seed, *inputs.run_dir, 1, 1, whole_cycles(1), whole_cycles(1));
  fleet_layer_metrics(s.loop, s.kinds, median(s.spawn_s), metrics);
  ServiceProbeResult result;
  result.attempted = s.tally.attempted;
  result.failed = s.tally.failed;
  return result;
}

}  // namespace perfbench
