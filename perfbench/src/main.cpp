// End-to-end benchmark of the scan system.
//
// Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//
// Workloads (see BENCHMARK.json for why each was chosen):
//   usb-resnet-1t     USB detect() on MiniResNet, CIFAR-like (K=10), scan
//                     pool of 1, closed loop over a BadNet and a clean model.
//   fleet-mixed-open  by-reference USB+NC scans of BasicCnn MNIST-like
//                     checkpoints through a 2-worker WorkerFleet: a burst
//                     phase, then an open loop at a fixed rate.
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the traced pass
// (stage-driven scan, kernel replay at the workload's shapes, service and
// fleet probes) and prints the per-layer metrics. The last stdout line is the
// JSON result; the lines before it starting with '#' carry the machine
// fingerprint and the digest of the run's reference reports.
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "core/usb.h"
#include "fleet.h"
#include "population.h"
#include "trace.h"
#include "utils/rng.h"
#include "utils/thread_pool.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string train_into;  // setup child mode: train the population here
};

[[noreturn]] void usage(const char* problem) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--smoke]\n",
               problem);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value().c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value() == "1";
    } else if (flag == "--smoke") {
      args.smoke = true;
    } else if (flag == "--train-into") {
      args.train_into = value();
    } else {
      usage(("unknown argument " + flag).c_str());
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  if (args.workload != "usb-resnet-1t" && args.workload != "fleet-mixed-open") {
    usage(("unknown workload " + args.workload).c_str());
  }
  return args;
}

// ------------------------------------------------------------- workloads

// usb-resnet-1t: USB on a scan pool of one thread, with a scaled budget (a
// single craft pass, a short refinement at a larger step) so that a run
// holds many scans and its medians ride out the machine's noise.
constexpr int kResnetThreads = 1;
constexpr std::int64_t kResnetProbeSize = 64;

usb::UsbConfig resnet_usb_config() {
  usb::UsbConfig config;
  config.refine_steps = 6;
  config.batch_size = 8;
  config.lr = 0.6F;
  config.uap.craft_size = 16;
  config.uap.batch_size = 16;
  config.uap.max_passes = 1;
  config.uap.deepfool.max_iterations = 1;
  return config;
}

constexpr int kSetupReps = 2;

struct Outcome {
  Metrics metrics;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  bool correct = true;
  std::vector<std::vector<std::uint8_t>> reference_blobs;
};

/// Trains the population `reps` times into fresh directories; returns the
/// last population and the per-repetition training times.
std::vector<Member> setup_population(const Args& args, const RunDir& run_dir, int reps,
                                     std::vector<double>& train_seconds) {
  std::vector<Member> members;
  for (int r = 0; r < reps; ++r) {
    const std::string dir = run_dir.subdir("setup" + std::to_string(r));
    const Clock::time_point start = Clock::now();
    members = train_in_child(args.workload, dir);
    train_seconds.push_back(seconds_since(start));
  }
  return members;
}

Outcome run_resnet(const Args& args, const RunDir& run_dir) {
  Outcome out;
  std::vector<double> train_seconds;
  std::vector<Member> members =
      setup_population(args, run_dir, args.smoke ? 1 : kSetupReps, train_seconds);

  const usb::DatasetSpec dataset = population_for(args.workload).dataset;
  const usb::Dataset probe = usb::make_probe(dataset, kResnetProbeSize, kProbeSeed);
  usb::ThreadPool pool(kResnetThreads);
  usb::UsbConfig config = resnet_usb_config();
  config.scan_pool = &pool;
  usb::UsbDetector detector(config);

  // Closed loop: one scan at a time in whole rounds (one scan of each model,
  // in an order drawn from the seed), so every run weighs both models
  // equally. Round 0 makes the reference reports every later scan must
  // reproduce byte for byte, and is checked against ground truth; it is the
  // warm-up and is not measured.
  std::vector<double> walls;
  std::vector<double> round_rates;  // scans per second of each measured round
  std::size_t rounds = 0;
  std::int64_t verdicts_ok = 0;
  out.reference_blobs.resize(members.size());
  usb::Rng order_rng(usb::hash_combine(args.seed, 0x0de7ULL));
  std::vector<std::size_t> order(members.size());
  Clock::time_point start = Clock::now();
  do {
    const bool reference = rounds == 0;
    const Clock::time_point round_start = Clock::now();
    for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
    order_rng.shuffle(std::span<std::size_t>(order));
    for (const std::size_t i : order) {
      const Clock::time_point scan_start = Clock::now();
      const usb::DetectionReport report = detector.detect(members[i].network, probe);
      const double wall = seconds_since(scan_start);
      if (!reference) walls.push_back(wall);
      ++out.attempted;
      std::vector<std::uint8_t> bytes = timeless_bytes(report);
      if (reference) {
        const bool ok =
            verdict_correct(report, members[i].backdoored, members[i].target_class);
        if (ok) ++verdicts_ok;
        std::printf("# reference USB/%s: %s, flagged %zu classes, %s, %.3f s\n",
                    members[i].label.c_str(),
                    report.verdict.backdoored ? "BACKDOORED" : "clean",
                    report.verdict.flagged_classes.size(), ok ? "verdict ok" : "VERDICT WRONG",
                    wall);
        out.reference_blobs[i] = std::move(bytes);
      } else if (bytes != out.reference_blobs[i]) {
        ++out.failed;
      }
    }
    if (reference) {
      start = Clock::now();
    } else {
      round_rates.push_back(static_cast<double>(order.size()) / seconds_since(round_start));
    }
    ++rounds;
  } while (!args.trace && (rounds < 2 || (!args.smoke && seconds_since(start) < args.seconds)));
  const double elapsed = seconds_since(start);

  if (args.trace) {
    const TraceResult traced = trace_detect(detector, pool, kResnetThreads, members, probe,
                                            out.reference_blobs, /*repeats=*/2, args.smoke,
                                            out.metrics);
    out.attempted += traced.scans;
    out.failed += traced.mismatches;
    if (!traced.within_bounds) out.correct = false;
    out.metrics.set("exp.train_s", median(train_seconds), "s");
    out.metrics.set("verdict_correct_share",
                    static_cast<double>(verdicts_ok) / static_cast<double>(members.size()),
                    "share");
    ServiceProbeInputs service;
    service.members = &members;
    service.dataset = dataset;
    service.probe_size = kResnetProbeSize;
    service.reference_result = &out.reference_blobs.front();
    service.seed = args.seed;
    service.smoke = args.smoke;
    service.run_dir = &run_dir;
    const ServiceProbeResult served = probe_service(service, out.metrics);
    out.attempted += served.attempted;
    out.failed += served.failed;
    return out;
  }

  std::printf("# closed loop: %zu measured scans in %zu rounds after the reference round, "
              "over %.2f s\n",
              walls.size(), rounds - 1, elapsed);
  out.metrics.set("setup_s", median(train_seconds), "s");
  // One client, one scan at a time: a request's latency is its scan's wall.
  out.metrics.set("detect_s", median(walls), "s");
  out.metrics.set("latency_p50_s", quantile(walls, 0.5), "s");
  out.metrics.set("latency_p90_s", quantile(walls, 0.9), "s");
  out.metrics.set("capacity_scans_per_s", median(round_rates), "1/s");
  out.metrics.set("ok_share",
                  1.0 - static_cast<double>(out.failed) / static_cast<double>(out.attempted),
                  "share");
  return out;
}

/// Setup child: trains the workload's population into args.train_into.
int train_into(const Args& args) {
  const std::vector<Member> members =
      train_population(population_for(args.workload), args.train_into);
  for (const Member& m : members) {
    std::printf("# model %s: accuracy %.3f, asr %.3f, target %lld\n", m.label.c_str(),
                m.accuracy, m.asr, static_cast<long long>(m.target_class));
  }
  std::fflush(stdout);
  return 0;
}

int run(const Args& args) {
  if (!args.train_into.empty()) return train_into(args);
  const bool fleet = args.workload == "fleet-mixed-open";
  const int threads = fleet ? kFleetThreadsPerWorker : kResnetThreads;
  // Pinned before anything touches the global pool: kernels that run outside
  // the scan pool (the USB shared prefix) then see the same width, and fleet
  // workers inherit it.
  setenv("USB_THREADS", std::to_string(threads).c_str(), 1);

  // Each run's checkpoints live in a private directory of the checkout,
  // removed when the run ends.
  const RunDir run_dir(".bench_build/runs/" + args.workload + "-" + std::to_string(getpid()));
  Outcome out;
  if (fleet) {
    FleetArgs fleet_args;
    fleet_args.seed = args.seed;
    fleet_args.seconds = args.seconds;
    fleet_args.trace = args.trace;
    fleet_args.smoke = args.smoke;
    FleetResult result = run_fleet_workload(fleet_args, run_dir, out.metrics);
    out.attempted = result.attempted;
    out.failed = result.failed;
    out.correct = result.correct;
    out.reference_blobs = std::move(result.reference_blobs);
  } else {
    out = run_resnet(args, run_dir);
  }

  const double calib_ms = calibration_gemm_ms();
  if (args.trace) {
    out.metrics.set("calib.gemm_ms", calib_ms, "ms");
  } else {
    out.metrics.set("peak_rss_mb", peak_rss_mb(), "MB");
  }
  std::printf("# fingerprint: cpu=\"%s\" nproc=%u calib.gemm_ms=%.4f\n", cpu_model().c_str(),
              std::thread::hardware_concurrency(), calib_ms);
  std::printf("# report_digest: %016" PRIx64 "\n", digest(out.reference_blobs));
  // Correct: every scan reproduced its reference report byte for byte (and
  // the traced pass reconciled within its bounds).
  const bool correct = out.correct && out.failed == 0;
  std::printf("%s\n", out.metrics.result_json(correct, out.attempted, out.failed).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  try {
    return perfbench::run(args);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
}
