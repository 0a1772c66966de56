// Golden report digests: small fixed USB and NC scans on all four
// architectures (seeded, untrained networks on a synthetic probe).
//
// Each report is wire-encoded (encode_result) with its timing fields zeroed
// and hashed with 64-bit FNV-1a. The expected digests are committed
// constants, so any change to the bits of any report — a kernel that
// reorders an accumulation, a layer that rounds differently — fails here
// and must be re-blessed on purpose, never silently. The scans cover shapes
// the end-to-end benchmark never runs: MiniVgg's MaxPool, MiniEffNet's
// depthwise groups and SiLU, BasicCnn's K > 256 conv, and maps whose width
// is not a multiple of 8.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/usb.h"
#include "data/synthetic.h"
#include "defenses/neural_cleanse.h"
#include "nn/models.h"
#include "service/wire.h"

namespace usb {
namespace {

struct GoldenCase {
  const char* name;
  Architecture arch;
  const char* method;  // "USB" or "NC"
  const char* digest;  // 16 lowercase hex digits
};

std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint8_t byte : bytes) {
    h ^= byte;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string timeless_digest(const DetectionReport& report) {
  wire::WireScanResult result;
  result.status = ScanStatus::kDone;
  result.report = report;
  result.report.per_class_seconds.assign(result.report.per_class_seconds.size(), 0.0);
  result.report.wall_seconds = 0.0;
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016" PRIx64, fnv1a(wire::encode_result(result)));
  return hex;
}

DetectionReport run_scan(const GoldenCase& tc) {
  DatasetSpec spec;
  spec.name = "golden-digest";
  spec.channels = 3;
  spec.image_size = 24;
  spec.num_classes = 4;
  const Dataset probe = generate_dataset(spec, 24, /*seed=*/907);
  Network model = make_network(tc.arch, spec.channels, spec.image_size, spec.num_classes,
                               /*seed=*/911);
  if (std::string(tc.method) == "USB") {
    UsbConfig config;
    config.uap.max_passes = 1;
    config.uap.craft_size = 16;
    config.uap.batch_size = 8;
    config.refine_steps = 3;
    config.batch_size = 8;
    return UsbDetector(config).detect(model, probe);
  }
  ReverseOptConfig config;
  config.steps = 3;
  config.batch_size = 8;
  return NeuralCleanse(config).detect(model, probe);
}

class GoldenDigestTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenDigestTest, ReportMatchesCommittedDigest) {
  const GoldenCase tc = GetParam();
  const DetectionReport report = run_scan(tc);
  ASSERT_TRUE(report.complete());
  EXPECT_EQ(timeless_digest(report), tc.digest) << tc.name << " report bits changed";
}

INSTANTIATE_TEST_SUITE_P(
    AllArchitectures, GoldenDigestTest,
    ::testing::Values(
        GoldenCase{"BasicCnn_USB", Architecture::kBasicCnn, "USB", "dfd3262d1f77c207"},
        GoldenCase{"BasicCnn_NC", Architecture::kBasicCnn, "NC", "1eb3bbdec7b69324"},
        GoldenCase{"MiniResNet_USB", Architecture::kMiniResNet, "USB", "499988310dfd5d70"},
        GoldenCase{"MiniResNet_NC", Architecture::kMiniResNet, "NC", "551d7e09d8c9f3eb"},
        GoldenCase{"MiniVgg_USB", Architecture::kMiniVgg, "USB", "33f9c3c45f747640"},
        GoldenCase{"MiniVgg_NC", Architecture::kMiniVgg, "NC", "a821ab1ebeb720ef"},
        GoldenCase{"MiniEffNet_USB", Architecture::kMiniEffNet, "USB", "7dfe76782606fff8"},
        GoldenCase{"MiniEffNet_NC", Architecture::kMiniEffNet, "NC", "0fcbe9a0bb8c261b"}),
    [](const ::testing::TestParamInfo<GoldenCase>& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace usb
