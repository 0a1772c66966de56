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
//
// The trained-state digests pin the training side the same way: one short
// epoch of train_network on every architecture and of each attack's
// train_backdoored, hashed over the trained state (parameters and BN
// buffers) together with the loops' returned loss, clean accuracy and
// attack success rate. They run on a one-thread pool because trained
// weights depend on the thread count.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "attacks/badnet.h"
#include "attacks/iad.h"
#include "attacks/latent.h"
#include "core/usb.h"
#include "data/synthetic.h"
#include "defenses/neural_cleanse.h"
#include "nn/models.h"
#include "service/wire.h"
#include "utils/thread_pool.h"

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

std::string hex_digest(std::uint64_t h) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016" PRIx64, h);
  return hex;
}

std::string timeless_digest(const DetectionReport& report) {
  wire::WireScanResult result;
  result.status = ScanStatus::kDone;
  result.report = report;
  result.report.per_class_seconds.assign(result.report.per_class_seconds.size(), 0.0);
  result.report.wall_seconds = 0.0;
  return hex_digest(fnv1a(wire::encode_result(result)));
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

struct TrainedCase {
  const char* name;
  Architecture arch;
  const char* attack;  // "clean", "badnet", "iad" or "latent"
  const char* digest;  // 16 lowercase hex digits
};

void append_bytes(std::vector<std::uint8_t>& bytes, const void* data, std::size_t count) {
  const auto* begin = static_cast<const std::uint8_t*>(data);
  bytes.insert(bytes.end(), begin, begin + count);
}

std::string trained_state_digest(const TrainedCase& tc) {
  ThreadPool one_thread(1);
  const ThreadPool::WorkerContext context(one_thread);

  DatasetSpec spec;
  spec.name = "golden-train";
  spec.channels = 3;
  spec.image_size = 24;
  spec.num_classes = 4;
  const Dataset train_set = generate_dataset(spec, 48, /*seed=*/931);
  const Dataset test_set = generate_dataset(spec, 24, /*seed=*/937);
  Network model = make_network(tc.arch, spec.channels, spec.image_size, spec.num_classes,
                               /*seed=*/941);
  TrainConfig config;
  config.epochs = 1;
  config.batch_size = 16;
  config.seed = 947;

  std::unique_ptr<BackdoorAttack> attack;
  const std::string kind = tc.attack;
  if (kind == "badnet") attack = std::make_unique<BadNet>(BadNetConfig{}, spec);
  if (kind == "iad") attack = std::make_unique<Iad>(IadConfig{}, spec);
  if (kind == "latent") attack = std::make_unique<LatentBackdoor>(LatentBackdoorConfig{}, spec);
  const TrainResult result = attack ? attack->train_backdoored(model, train_set, config)
                                    : train_network(model, train_set, config);
  const float accuracy = evaluate_accuracy(model, test_set, /*batch_size=*/16);
  const float success = attack ? attack->success_rate(model, test_set) : 0.0F;

  std::vector<std::uint8_t> bytes;
  for (const ConstStateTensor& entry : model.state_view()) {
    append_bytes(bytes, entry.tensor->raw(),
                 static_cast<std::size_t>(entry.tensor->numel()) * sizeof(float));
  }
  append_bytes(bytes, &result.final_train_loss, sizeof(float));
  append_bytes(bytes, &result.steps, sizeof(result.steps));
  append_bytes(bytes, &accuracy, sizeof(float));
  append_bytes(bytes, &success, sizeof(float));
  return hex_digest(fnv1a(bytes));
}

class GoldenTrainedStateTest : public ::testing::TestWithParam<TrainedCase> {};

TEST_P(GoldenTrainedStateTest, TrainedStateMatchesCommittedDigest) {
  const TrainedCase tc = GetParam();
  EXPECT_EQ(trained_state_digest(tc), tc.digest) << tc.name << " trained state changed";
}

INSTANTIATE_TEST_SUITE_P(
    TrainingLoops, GoldenTrainedStateTest,
    ::testing::Values(
        TrainedCase{"BasicCnn_clean", Architecture::kBasicCnn, "clean", "cadcafc442b5376e"},
        TrainedCase{"MiniResNet_clean", Architecture::kMiniResNet, "clean", "cf29100ed4ec583c"},
        TrainedCase{"MiniVgg_clean", Architecture::kMiniVgg, "clean", "f2df7521990332af"},
        TrainedCase{"MiniEffNet_clean", Architecture::kMiniEffNet, "clean", "d6735e37ecae8f18"},
        TrainedCase{"MiniResNet_badnet", Architecture::kMiniResNet, "badnet", "c9b31c6e3bc47c72"},
        TrainedCase{"BasicCnn_iad", Architecture::kBasicCnn, "iad", "de757b400716a3aa"},
        TrainedCase{"BasicCnn_latent", Architecture::kBasicCnn, "latent", "9d8bbd9fe9ef5700"}),
    [](const ::testing::TestParamInfo<TrainedCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace usb
