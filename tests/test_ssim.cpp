// SSIM correctness and analytic-gradient validation. The gradient feeds
// USB's Alg. 2 loss, so this is load-bearing for the whole method.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "bitwise.h"
#include "gradcheck.h"
#include "metrics/ssim.h"
#include "tensor/tensor_ops.h"

namespace usb {
namespace {

using testing::available_variants;
using testing::expect_bitwise_equal;
using testing::expect_gradient_close;
using testing::fill_uniform;
using testing::VariantGuard;

TEST(Ssim, IdenticalImagesScoreOne) {
  Rng rng(1);
  Tensor x(Shape{1, 3, 16, 16});
  fill_uniform(x, rng, 0.0F, 1.0F);
  EXPECT_NEAR(ssim(x, x), 1.0F, 1e-4F);
}

TEST(Ssim, SymmetricInArguments) {
  Rng rng(2);
  Tensor x(Shape{1, 1, 16, 16});
  Tensor y(Shape{1, 1, 16, 16});
  fill_uniform(x, rng, 0.0F, 1.0F);
  fill_uniform(y, rng, 0.0F, 1.0F);
  EXPECT_NEAR(ssim(x, y), ssim(y, x), 1e-5F);
}

TEST(Ssim, DecreasesWithNoise) {
  Rng rng(3);
  Tensor x(Shape{1, 1, 20, 20});
  fill_uniform(x, rng, 0.2F, 0.8F);
  Tensor y_small = x;
  Tensor y_large = x;
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    y_small[i] += rng.uniform_float(-0.02F, 0.02F);
    y_large[i] += rng.uniform_float(-0.3F, 0.3F);
  }
  const float s_small = ssim(x, y_small);
  const float s_large = ssim(x, y_large);
  EXPECT_GT(s_small, s_large);
  EXPECT_LT(s_large, 0.95F);
  EXPECT_GT(s_small, 0.8F);
}

TEST(Ssim, BoundedAboveByOne) {
  Rng rng(4);
  Tensor x(Shape{2, 1, 14, 14});
  Tensor y(Shape{2, 1, 14, 14});
  fill_uniform(x, rng, 0.0F, 1.0F);
  fill_uniform(y, rng, 0.0F, 1.0F);
  EXPECT_LE(ssim(x, y), 1.0F + 1e-5F);
}

TEST(Ssim, RejectsShapeMismatchAndTinyImages) {
  EXPECT_THROW((void)ssim(Tensor(Shape{1, 1, 16, 16}), Tensor(Shape{1, 1, 16, 15})),
               std::invalid_argument);
  EXPECT_THROW((void)ssim(Tensor(Shape{1, 1, 8, 8}), Tensor(Shape{1, 1, 8, 8})),
               std::invalid_argument);  // smaller than the 11x11 window
}

TEST(Ssim, ValueMatchesGradientVariant) {
  Rng rng(5);
  Tensor x(Shape{1, 3, 16, 16});
  Tensor y(Shape{1, 3, 16, 16});
  fill_uniform(x, rng, 0.0F, 1.0F);
  fill_uniform(y, rng, 0.0F, 1.0F);
  const SsimResult result = ssim_with_gradient(x, y);
  EXPECT_NEAR(result.value, ssim(x, y), 1e-5F);
  EXPECT_EQ(result.grad_y.shape(), y.shape());
}

TEST(Ssim, AnalyticGradientMatchesFiniteDifference) {
  Rng rng(6);
  // Small geometry (window 5) keeps the finite-difference sweep fast while
  // exercising the full adjoint path.
  SsimConfig config;
  config.window = 5;
  config.sigma = 1.0;
  Tensor x(Shape{1, 2, 9, 9});
  Tensor y(Shape{1, 2, 9, 9});
  fill_uniform(x, rng, 0.1F, 0.9F);
  fill_uniform(y, rng, 0.1F, 0.9F);

  const SsimResult result = ssim_with_gradient(x, y, config);
  auto loss = [&](const Tensor& probe) { return static_cast<double>(ssim(x, probe, config)); };
  expect_gradient_close(loss, y, result.grad_y, 1e-3, 2e-2, 1e-4);
}

TEST(Ssim, GradientPointsTowardReference) {
  // Gradient ascent on SSIM should increase similarity to x.
  Rng rng(7);
  Tensor x(Shape{1, 1, 16, 16});
  fill_uniform(x, rng, 0.2F, 0.8F);
  Tensor y = x;
  for (std::int64_t i = 0; i < y.numel(); ++i) y[i] += rng.uniform_float(-0.2F, 0.2F);

  const float before = ssim(x, y);
  for (int step = 0; step < 40; ++step) {
    const SsimResult result = ssim_with_gradient(x, y);
    // Normalized ascent: fixed step length along the gradient direction.
    const float norm = std::max(result.grad_y.l2_norm(), 1e-8F);
    y.add_scaled(result.grad_y, 0.05F / norm);
  }
  EXPECT_GT(ssim(x, y), before + 0.02F);
}

// ---- Bitwise accumulation-order references for the SSIM filters --------
//
// Both filters accumulate each output in one double, starting at +0, over
// the taps (a, b) in ascending order: the valid filter over all k*k taps,
// the adjoint over exactly the taps that land inside g.

Tensor order_reference_valid(const Tensor& x, const Tensor& kernel) {
  const std::int64_t k = kernel.dim(0);
  const std::int64_t h = x.dim(2);
  const std::int64_t w = x.dim(3);
  Tensor y(Shape{x.dim(0), x.dim(1), h - k + 1, w - k + 1});
  for (std::int64_t n = 0; n < x.dim(0); ++n) {
    for (std::int64_t c = 0; c < x.dim(1); ++c) {
      for (std::int64_t p = 0; p < y.dim(2); ++p) {
        for (std::int64_t q = 0; q < y.dim(3); ++q) {
          double acc = 0.0;
          for (std::int64_t a = 0; a < k; ++a) {
            for (std::int64_t b = 0; b < k; ++b) {
              acc += static_cast<double>(x.at4(n, c, p + a, q + b)) * kernel.at2(a, b);
            }
          }
          y.at4(n, c, p, q) = static_cast<float>(acc);
        }
      }
    }
  }
  return y;
}

Tensor order_reference_adjoint(const Tensor& g, const Tensor& kernel) {
  const std::int64_t k = kernel.dim(0);
  const std::int64_t gh = g.dim(2);
  const std::int64_t gw = g.dim(3);
  Tensor dx(Shape{g.dim(0), g.dim(1), gh + k - 1, gw + k - 1});
  for (std::int64_t n = 0; n < g.dim(0); ++n) {
    for (std::int64_t c = 0; c < g.dim(1); ++c) {
      for (std::int64_t p = 0; p < dx.dim(2); ++p) {
        for (std::int64_t q = 0; q < dx.dim(3); ++q) {
          double acc = 0.0;
          for (std::int64_t a = 0; a < k; ++a) {
            for (std::int64_t b = 0; b < k; ++b) {
              if (p - a < 0 || p - a >= gh || q - b < 0 || q - b >= gw) continue;
              acc += static_cast<double>(g.at4(n, c, p - a, q - b)) * kernel.at2(a, b);
            }
          }
          dx.at4(n, c, p, q) = static_cast<float>(acc);
        }
      }
    }
  }
  return dx;
}

struct FilterCase {
  std::int64_t batch, channels, height, width, window;
};

TEST(SsimFilters, BitwiseMatchOrderReferenceOnBothVariants) {
  // CIFAR- and MNIST-sized planes under the 11x11 window, plus small and
  // non-square ones whose widths are not a multiple of the lane count.
  const std::vector<FilterCase> cases{
      {2, 3, 32, 32, 11}, {3, 1, 28, 28, 11}, {1, 2, 11, 11, 11}, {2, 2, 13, 29, 11},
      {1, 3, 9, 14, 5},   {2, 1, 7, 5, 3},    {1, 1, 4, 6, 1}};
  const VariantGuard guard;
  Rng rng(31);
  for (const FilterCase& fc : cases) {
    SCOPED_TRACE(::testing::Message() << fc.batch << "x" << fc.channels << "x" << fc.height << "x"
                                      << fc.width << " window " << fc.window);
    Tensor x(Shape{fc.batch, fc.channels, fc.height, fc.width});
    fill_uniform(x, rng, 0.0F, 1.0F);
    Tensor g(Shape{fc.batch, fc.channels, fc.height - fc.window + 1, fc.width - fc.window + 1});
    fill_uniform(g, rng);
    const Tensor kernel = gaussian_kernel(fc.window, 1.5);
    const Tensor want_valid = order_reference_valid(x, kernel);
    const Tensor want_adjoint = order_reference_adjoint(g, kernel);
    std::vector<Tensor> valids;
    std::vector<Tensor> adjoints;
    for (const ew::Variant variant : available_variants()) {
      ew::force_variant(variant);
      valids.push_back(filter2d_valid(x, kernel));
      adjoints.push_back(filter2d_full_adjoint(g, kernel));
      expect_bitwise_equal(valids.back(), want_valid, "filter2d_valid");
      expect_bitwise_equal(adjoints.back(), want_adjoint, "filter2d_full_adjoint");
    }
    for (std::size_t v = 1; v < valids.size(); ++v) {
      expect_bitwise_equal(valids[v], valids[0], "filter2d_valid, AVX2 vs portable");
      expect_bitwise_equal(adjoints[v], adjoints[0], "filter2d_full_adjoint, AVX2 vs portable");
    }
  }
}

/// Sparse huge values of random sign among small ones. Under an all-ones
/// kernel the huge terms of a window cancel exactly or not at all, and the
/// small terms survive only when added while the running double sum is
/// small, so each float output depends on the exact tap order.
void fill_order_sensitive(Tensor& t, Rng& rng) {
  constexpr float kHuge = 1152921504606846976.0F;  // 2^60
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    const float small = rng.uniform_float(-1.0F, 1.0F);
    t[i] = rng.uniform_float(0.0F, 1.0F) < 0.3F ? (small < 0.0F ? -kHuge : kHuge) : small;
  }
}

TEST(SsimFilters, OrderSensitiveInputsMatchOrderReference) {
  Tensor box(Shape{3, 3});
  box.fill(1.0F);
  Rng rng(33);
  Tensor x(Shape{2, 2, 16, 19});
  Tensor g(Shape{2, 2, 14, 17});
  fill_order_sensitive(x, rng);
  fill_order_sensitive(g, rng);
  const Tensor want_valid = order_reference_valid(x, box);
  const Tensor want_adjoint = order_reference_adjoint(g, box);
  const VariantGuard guard;
  for (const ew::Variant variant : available_variants()) {
    ew::force_variant(variant);
    expect_bitwise_equal(filter2d_valid(x, box), want_valid, "filter2d_valid");
    expect_bitwise_equal(filter2d_full_adjoint(g, box), want_adjoint, "filter2d_full_adjoint");
  }
}

TEST(SsimFilters, GradientBitwiseIdenticalAcrossVariants) {
  Rng rng(32);
  Tensor x(Shape{4, 3, 32, 32});
  Tensor y(Shape{4, 3, 32, 32});
  fill_uniform(x, rng, 0.0F, 1.0F);
  fill_uniform(y, rng, 0.0F, 1.0F);
  const VariantGuard guard;
  std::vector<SsimResult> results;
  for (const ew::Variant variant : available_variants()) {
    ew::force_variant(variant);
    results.push_back(ssim_with_gradient(x, y));
  }
  for (std::size_t v = 1; v < results.size(); ++v) {
    EXPECT_EQ(results[v].value, results[0].value);
    expect_bitwise_equal(results[v].grad_y, results[0].grad_y, "ssim gradient, AVX2 vs portable");
  }
}

TEST(SsimFilters, RejectNonSquareOrNonMatrixKernels) {
  const Tensor x(Shape{1, 1, 8, 8});
  const Tensor g(Shape{1, 1, 4, 4});
  for (const Tensor& kernel : {Tensor(Shape{3, 5}), Tensor(Shape{5, 3}), Tensor(Shape{9}),
                               Tensor(Shape{1, 3, 3})}) {
    EXPECT_THROW((void)filter2d_valid(x, kernel), std::invalid_argument);
    EXPECT_THROW((void)filter2d_full_adjoint(g, kernel), std::invalid_argument);
  }
}

}  // namespace
}  // namespace usb
