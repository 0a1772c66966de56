#include "common.h"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <stdexcept>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) throw std::runtime_error("quantile of an empty sample");
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double mean(const std::vector<double>& values) {
  if (values.empty()) throw std::runtime_error("mean of an empty sample");
  return std::accumulate(values.begin(), values.end(), 0.0) / static_cast<double>(values.size());
}

void Metrics::set(const std::string& name, double value, const std::string& unit) {
  for (auto& entry : entries_) {
    if (entry.first == name) {
      entry.second = {value, unit};
      return;
    }
  }
  entries_.push_back({name, {value, unit}});
}

std::string Metrics::result_json(bool correct, std::int64_t attempted,
                                 std::int64_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value_unit] : entries_) {
    if (!std::isfinite(value_unit.first)) {
      throw std::runtime_error("metric " + name + " is not finite");
    }
    char number[64];
    std::snprintf(number, sizeof(number), "%.9g", value_unit.first);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + number + ", \"unit\": \"" + value_unit.second +
           "\"}";
  }
  out += "}}";
  return out;
}

RunDir::RunDir(std::string path) : path_(std::move(path)) {
  std::filesystem::remove_all(path_);
  std::filesystem::create_directories(path_);
}

RunDir::~RunDir() {
  std::error_code ignored;
  std::filesystem::remove_all(path_, ignored);
}

std::string RunDir::subdir(const std::string& name) const {
  const std::string dir = path_ + "/" + name;
  std::filesystem::create_directories(dir);
  return dir;
}

std::vector<std::uint8_t> timeless_bytes(const usb::DetectionReport& report) {
  usb::wire::WireScanResult result;
  result.status = usb::ScanStatus::kDone;
  result.report = report;
  result.report.per_class_seconds.assign(result.report.per_class_seconds.size(), 0.0);
  result.report.wall_seconds = 0.0;
  return usb::wire::encode_result(result);
}

std::uint64_t digest(const std::vector<std::vector<std::uint8_t>>& blobs) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint8_t byte) {
    h ^= byte;
    h *= 0x100000001b3ULL;
  };
  for (const auto& blob : blobs) {
    for (const std::uint8_t byte : blob) mix(byte);
    // Length separator so blob boundaries are part of the digest.
    for (int shift = 0; shift < 64; shift += 8) {
      mix(static_cast<std::uint8_t>(blob.size() >> shift));
    }
  }
  return h;
}

bool verdict_correct(const usb::DetectionReport& report, bool backdoored,
                     std::int64_t target_class) {
  if (!backdoored) return !report.verdict.backdoored;
  const auto& flagged = report.verdict.flagged_classes;
  return report.verdict.backdoored &&
         std::find(flagged.begin(), flagged.end(), target_class) != flagged.end();
}

double peak_rss_mb() {
  rusage self = {};
  rusage children = {};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  // ru_maxrss is in KiB on Linux; for children it is the largest single one.
  return static_cast<double>(self.ru_maxrss + children.ru_maxrss) / 1024.0;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}

}  // namespace perfbench
