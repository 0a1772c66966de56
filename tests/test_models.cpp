// Tests for the architecture factories, Network feature/head split,
// checkpoint round-trips, and network cloning.
#include <cstdio>

#include <gtest/gtest.h>

#include "gradcheck.h"
#include "nn/checkpoint.h"
#include "nn/models.h"
#include "tensor/tensor_ops.h"
#include "utils/serialize.h"

namespace usb {
namespace {

using testing::fill_uniform;

struct ArchCase {
  Architecture arch;
  std::int64_t channels;
  std::int64_t size;
  std::int64_t classes;
};

class ArchParamTest : public ::testing::TestWithParam<ArchCase> {};

TEST_P(ArchParamTest, ForwardProducesLogits) {
  const ArchCase tc = GetParam();
  Network net = make_network(tc.arch, tc.channels, tc.size, tc.classes, /*seed=*/1);
  net.set_training(false);
  Rng rng(2);
  Tensor x(Shape{3, tc.channels, tc.size, tc.size});
  fill_uniform(x, rng, 0.0F, 1.0F);
  const Tensor logits = net.forward(x);
  EXPECT_EQ(logits.shape(), (Shape{3, tc.classes}));
  for (std::int64_t i = 0; i < logits.numel(); ++i) {
    EXPECT_TRUE(std::isfinite(logits[i]));
  }
}

TEST_P(ArchParamTest, BackwardReachesInput) {
  const ArchCase tc = GetParam();
  Network net = make_network(tc.arch, tc.channels, tc.size, tc.classes, /*seed=*/3);
  net.set_training(false);
  Rng rng(4);
  Tensor x(Shape{2, tc.channels, tc.size, tc.size});
  fill_uniform(x, rng, 0.0F, 1.0F);
  const Tensor logits = net.forward(x);
  Tensor dlogits(logits.shape());
  fill_uniform(dlogits, rng);
  const Tensor dx = net.backward(dlogits);
  EXPECT_EQ(dx.shape(), x.shape());
  EXPECT_GT(dx.abs_sum(), 0.0F);  // gradient actually reaches the image
}

TEST_P(ArchParamTest, FeatureHeadSplitMatchesFullForward) {
  const ArchCase tc = GetParam();
  Network net = make_network(tc.arch, tc.channels, tc.size, tc.classes, /*seed=*/5);
  net.set_training(false);
  Rng rng(6);
  Tensor x(Shape{2, tc.channels, tc.size, tc.size});
  fill_uniform(x, rng, 0.0F, 1.0F);
  const Tensor full = net.forward(x);
  TensorArena arena;
  const Tensor& features = net.forward_features(x, arena);
  const Tensor& split = net.forward_head(features, arena);
  ASSERT_EQ(split.shape(), full.shape());
  for (std::int64_t i = 0; i < full.numel(); ++i) EXPECT_NEAR(split[i], full[i], 1e-5F);
}

TEST_P(ArchParamTest, CheckpointRoundTrip) {
  const ArchCase tc = GetParam();
  Network net = make_network(tc.arch, tc.channels, tc.size, tc.classes, /*seed=*/7);
  net.set_training(false);
  Rng rng(8);
  Tensor x(Shape{1, tc.channels, tc.size, tc.size});
  fill_uniform(x, rng, 0.0F, 1.0F);
  const Tensor before = net.forward(x);

  const std::string path = ::testing::TempDir() + "ckpt_" + to_string(tc.arch) + ".bin";
  save_checkpoint(net, path);
  Network restored = load_checkpoint(path);
  restored.set_training(false);
  const Tensor after = restored.forward(x);
  ASSERT_EQ(after.shape(), before.shape());
  for (std::int64_t i = 0; i < before.numel(); ++i) EXPECT_EQ(after[i], before[i]);
  std::remove(path.c_str());
}

TEST_P(ArchParamTest, CloneIsIndependentAndIdentical) {
  const ArchCase tc = GetParam();
  Network net = make_network(tc.arch, tc.channels, tc.size, tc.classes, /*seed=*/9);
  net.set_training(false);
  Network clone = clone_network(net);
  Rng rng(10);
  Tensor x(Shape{2, tc.channels, tc.size, tc.size});
  fill_uniform(x, rng, 0.0F, 1.0F);
  const Tensor a = net.forward(x);
  const Tensor b = clone.forward(x);
  for (std::int64_t i = 0; i < a.numel(); ++i) EXPECT_EQ(a[i], b[i]);

  // Mutating the clone must not affect the source.
  clone.parameters()[0]->value.fill(0.0F);
  const Tensor c = net.forward(x);
  for (std::int64_t i = 0; i < a.numel(); ++i) EXPECT_EQ(a[i], c[i]);
}

INSTANTIATE_TEST_SUITE_P(
    AllArchitectures, ArchParamTest,
    ::testing::Values(ArchCase{Architecture::kBasicCnn, 1, 28, 10},
                      ArchCase{Architecture::kMiniResNet, 3, 32, 10},
                      ArchCase{Architecture::kMiniVgg, 3, 32, 10},
                      ArchCase{Architecture::kMiniEffNet, 3, 48, 10},
                      ArchCase{Architecture::kMiniResNet, 3, 32, 43}));  // GTSRB width

TEST(Architecture, StringRoundTrip) {
  for (const Architecture arch : {Architecture::kBasicCnn, Architecture::kMiniResNet,
                                  Architecture::kMiniVgg, Architecture::kMiniEffNet}) {
    EXPECT_EQ(architecture_from_string(to_string(arch)), arch);
  }
  EXPECT_THROW((void)architecture_from_string("resnet152"), std::invalid_argument);
}

TEST(Network, BasicCnnMatchesPaperGeometry) {
  // Appendix A.7: conv(1,16,5), conv(16,32,5), fc(512,512), fc(512,10) for
  // 28x28 MNIST inputs -> flattened feature size is exactly 512.
  Network net = make_network(Architecture::kBasicCnn, 1, 28, 10, 11);
  net.set_training(false);
  const Tensor x(Shape{1, 1, 28, 28});
  TensorArena arena;
  const Tensor& features = net.forward_features(x, arena);
  EXPECT_EQ(features.numel(), 512);
}

TEST(Network, ParameterCountIsPositiveAndStable) {
  Network a = make_network(Architecture::kMiniResNet, 3, 32, 10, 1);
  Network b = make_network(Architecture::kMiniResNet, 3, 32, 10, 2);
  EXPECT_GT(a.parameter_count(), 1000);
  EXPECT_EQ(a.parameter_count(), b.parameter_count());  // seed-independent
}

TEST(Checkpoint, RejectsCorruptedFile) {
  const std::string path = ::testing::TempDir() + "corrupt.bin";
  BinaryWriter writer;
  writer.write_u32(0xDEADBEEF);
  writer.save(path);
  EXPECT_THROW((void)load_checkpoint(path), std::runtime_error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace usb
