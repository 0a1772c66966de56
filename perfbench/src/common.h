// Shared helpers of the end-to-end benchmark: statistics, the metric sink
// that prints the result line, per-run private directories, report digests
// and the verdict check.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "defenses/detector.h"
#include "service/wire.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seed of every workload's probe set. Probes, like populations, are fixed
/// parts of a workload, so every run scans the same inputs and reproduces
/// the same reports; a run's --seed draws only the order of its scans.
inline constexpr std::uint64_t kProbeSeed = 0x9e0beULL;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Linear-interpolation quantile (q in [0,1]) of an unsorted sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
[[nodiscard]] double mean(const std::vector<double>& values);

/// Times `body` `reps` times and returns the median call time in seconds.
template <typename Body>
[[nodiscard]] double median_call_seconds(int reps, Body&& body) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point start = Clock::now();
    body();
    samples.push_back(seconds_since(start));
  }
  return median(std::move(samples));
}

/// Named metrics in insertion order, printed as the final JSON result line.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  entries() const noexcept {
    return entries_;
  }
  /// One JSON object: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
  [[nodiscard]] std::string result_json(bool correct, std::int64_t attempted,
                                        std::int64_t failed) const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> entries_;
};

/// A private directory for one run's files (trained checkpoints and their
/// metadata), removed with everything in it when the object is destroyed.
class RunDir {
 public:
  explicit RunDir(std::string path);
  ~RunDir();
  RunDir(const RunDir&) = delete;
  RunDir& operator=(const RunDir&) = delete;
  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  /// A fresh subdirectory path (created) under this run's directory.
  [[nodiscard]] std::string subdir(const std::string& name) const;

 private:
  std::string path_;
};

/// The wire encoding of a report with its timing fields zeroed: the byte
/// form compared across scans, processes and runs.
[[nodiscard]] std::vector<std::uint8_t> timeless_bytes(const usb::DetectionReport& report);

/// Order-sensitive 64-bit FNV-1a over a sequence of byte strings.
[[nodiscard]] std::uint64_t digest(const std::vector<std::vector<std::uint8_t>>& blobs);

/// Ground truth check for one report: a backdoored model must be flagged
/// with its target among the flagged classes; a clean model must pass.
[[nodiscard]] bool verdict_correct(const usb::DetectionReport& report, bool backdoored,
                                   std::int64_t target_class);

/// Peak resident set of this process plus the largest reaped child, in MB.
[[nodiscard]] double peak_rss_mb();

/// "model name" from /proc/cpuinfo, or "unknown".
[[nodiscard]] std::string cpu_model();

}  // namespace perfbench
