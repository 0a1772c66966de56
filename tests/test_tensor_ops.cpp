// Tests for the dense kernels: matmul family, im2col/col2im adjointness,
// conv2d forward/backward against naive references, finite differences and
// bitwise accumulation-order references, pooling, softmax, and the SSIM
// filter primitives.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "bitwise.h"
#include "gradcheck.h"
#include "tensor/tensor_ops.h"
#include "utils/rng.h"

namespace usb {
namespace {

using testing::available_variants;
using testing::expect_bitwise_equal;
using testing::expect_gradient_close;
using testing::fill_uniform;
using testing::VariantGuard;

Tensor naive_matmul(const Tensor& a, const Tensor& b) {
  const std::int64_t m = a.dim(0);
  const std::int64_t k = a.dim(1);
  const std::int64_t n = b.dim(1);
  Tensor c(Shape{m, n});
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t p = 0; p < k; ++p) acc += static_cast<double>(a.at2(i, p)) * b.at2(p, j);
      c.at2(i, j) = static_cast<float>(acc);
    }
  }
  return c;
}

TEST(MatMul, MatchesNaive) {
  Rng rng(1);
  Tensor a(Shape{7, 5});
  Tensor b(Shape{5, 9});
  fill_uniform(a, rng);
  fill_uniform(b, rng);
  const Tensor c = matmul(a, b);
  const Tensor ref = naive_matmul(a, b);
  for (std::int64_t i = 0; i < c.numel(); ++i) EXPECT_NEAR(c[i], ref[i], 1e-4F);
}

TEST(MatMul, TransposeBMatchesExplicit) {
  Rng rng(2);
  Tensor a(Shape{4, 6});
  Tensor b(Shape{3, 6});  // stands for B^T with B (6,3)
  fill_uniform(a, rng);
  fill_uniform(b, rng);
  Tensor b_t(Shape{6, 3});
  for (std::int64_t i = 0; i < 3; ++i) {
    for (std::int64_t j = 0; j < 6; ++j) b_t.at2(j, i) = b.at2(i, j);
  }
  const Tensor expected = naive_matmul(a, b_t);
  const Tensor got = matmul_transpose_b(a, b);
  for (std::int64_t i = 0; i < got.numel(); ++i) EXPECT_NEAR(got[i], expected[i], 1e-4F);
}

TEST(MatMul, TransposeAMatchesExplicit) {
  Rng rng(3);
  Tensor a(Shape{6, 4});  // stands for A^T with A (4,6)
  Tensor b(Shape{6, 5});
  fill_uniform(a, rng);
  fill_uniform(b, rng);
  Tensor a_t(Shape{4, 6});
  for (std::int64_t i = 0; i < 6; ++i) {
    for (std::int64_t j = 0; j < 4; ++j) a_t.at2(j, i) = a.at2(i, j);
  }
  const Tensor expected = naive_matmul(a_t, b);
  const Tensor got = matmul_transpose_a(a, b);
  for (std::int64_t i = 0; i < got.numel(); ++i) EXPECT_NEAR(got[i], expected[i], 1e-4F);
}

TEST(MatMul, RejectsBadShapes) {
  const Tensor a(Shape{2, 3});
  const Tensor b(Shape{4, 5});
  EXPECT_THROW((void)matmul(a, b), std::invalid_argument);
}

// Naive direct convolution reference.
Tensor naive_conv(const Tensor& x, const Tensor& w, const Tensor& bias, const Conv2dSpec& spec) {
  const std::int64_t batch = x.dim(0);
  const std::int64_t h = x.dim(2);
  const std::int64_t wd = x.dim(3);
  const std::int64_t oh = spec.out_size(h);
  const std::int64_t ow = spec.out_size(wd);
  const std::int64_t group_in = spec.in_channels / spec.groups;
  const std::int64_t group_out = spec.out_channels / spec.groups;
  Tensor y(Shape{batch, spec.out_channels, oh, ow});
  for (std::int64_t n = 0; n < batch; ++n) {
    for (std::int64_t oc = 0; oc < spec.out_channels; ++oc) {
      const std::int64_t g = oc / group_out;
      for (std::int64_t p = 0; p < oh; ++p) {
        for (std::int64_t q = 0; q < ow; ++q) {
          double acc = bias.numel() > 0 ? bias[oc] : 0.0;
          for (std::int64_t ic = 0; ic < group_in; ++ic) {
            for (std::int64_t kh = 0; kh < spec.kernel; ++kh) {
              for (std::int64_t kw = 0; kw < spec.kernel; ++kw) {
                const std::int64_t ih = p * spec.stride - spec.padding + kh;
                const std::int64_t iw = q * spec.stride - spec.padding + kw;
                if (ih < 0 || ih >= h || iw < 0 || iw >= wd) continue;
                acc += static_cast<double>(x.at4(n, g * group_in + ic, ih, iw)) *
                       w[((oc * group_in + ic) * spec.kernel + kh) * spec.kernel + kw];
              }
            }
          }
          y.at4(n, oc, p, q) = static_cast<float>(acc);
        }
      }
    }
  }
  return y;
}

struct ConvCase {
  Conv2dSpec spec;
  std::int64_t image = 8;
  std::int64_t batch = 2;
};

class ConvParamTest : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvParamTest, ForwardMatchesNaive) {
  const ConvCase tc = GetParam();
  Rng rng(11);
  Tensor x(Shape{tc.batch, tc.spec.in_channels, tc.image, tc.image});
  Tensor w(tc.spec.weight_shape());
  Tensor b(Shape{tc.spec.out_channels});
  fill_uniform(x, rng);
  fill_uniform(w, rng, -0.5F, 0.5F);
  fill_uniform(b, rng, -0.2F, 0.2F);
  const Tensor y = conv2d_forward(x, w, b, tc.spec);
  const Tensor ref = naive_conv(x, w, b, tc.spec);
  ASSERT_EQ(y.shape(), ref.shape());
  for (std::int64_t i = 0; i < y.numel(); ++i) EXPECT_NEAR(y[i], ref[i], 1e-3F);
}

TEST_P(ConvParamTest, BackwardMatchesFiniteDifference) {
  const ConvCase tc = GetParam();
  Rng rng(13);
  Tensor x(Shape{tc.batch, tc.spec.in_channels, tc.image, tc.image});
  Tensor w(tc.spec.weight_shape());
  Tensor b(Shape{tc.spec.out_channels});
  fill_uniform(x, rng);
  fill_uniform(w, rng, -0.5F, 0.5F);
  fill_uniform(b, rng, -0.2F, 0.2F);

  // Loss = weighted sum of the output with fixed random weights.
  const Tensor y0 = conv2d_forward(x, w, b, tc.spec);
  Tensor dy(y0.shape());
  fill_uniform(dy, rng, -1.0F, 1.0F);
  const Conv2dGrads grads = conv2d_backward(x, w, dy, tc.spec, /*need_dx=*/true);

  auto loss_of_x = [&](const Tensor& probe) {
    const Tensor y = conv2d_forward(probe, w, b, tc.spec);
    double total = 0.0;
    for (std::int64_t i = 0; i < y.numel(); ++i) total += static_cast<double>(y[i]) * dy[i];
    return total;
  };
  auto loss_of_w = [&](const Tensor& probe) {
    const Tensor y = conv2d_forward(x, probe, b, tc.spec);
    double total = 0.0;
    for (std::int64_t i = 0; i < y.numel(); ++i) total += static_cast<double>(y[i]) * dy[i];
    return total;
  };
  expect_gradient_close(loss_of_x, x, grads.dx);
  expect_gradient_close(loss_of_w, w, grads.dweight);

  // Bias gradient: dL/db[oc] = sum of dy over batch and spatial for oc.
  for (std::int64_t oc = 0; oc < tc.spec.out_channels; ++oc) {
    double expected = 0.0;
    const std::int64_t spatial = y0.dim(2) * y0.dim(3);
    for (std::int64_t n = 0; n < tc.batch; ++n) {
      for (std::int64_t s = 0; s < spatial; ++s) {
        expected += dy[(n * tc.spec.out_channels + oc) * spatial + s];
      }
    }
    EXPECT_NEAR(grads.dbias[oc], expected, 1e-3);
  }
}

Conv2dSpec make_spec(std::int64_t in, std::int64_t out, std::int64_t k, std::int64_t stride,
                     std::int64_t pad, std::int64_t groups) {
  Conv2dSpec spec;
  spec.in_channels = in;
  spec.out_channels = out;
  spec.kernel = k;
  spec.stride = stride;
  spec.padding = pad;
  spec.groups = groups;
  return spec;
}

// ---- Bitwise accumulation-order references ------------------------------
//
// These spell out, per output element, the exact float operation sequence
// the conv kernels promise (tensor_ops.h): the forward sums its products in
// ascending p = (ic, kh, kw) from +0 in 256-wide blocks of p, adds the
// blocks in order, then the bias; the input gradient sums, per tap (kh, kw)
// in ascending order, that tap's oc-ascending products (again from +0 in
// 256-wide blocks of oc) into an accumulator that starts at +0. Taps that
// fall outside the input are never added.

constexpr std::int64_t kOrderBlock = 256;

Tensor order_reference_conv(const Tensor& x, const Tensor& w, const Tensor& bias,
                            const Conv2dSpec& spec) {
  const std::int64_t h = x.dim(2);
  const std::int64_t wd = x.dim(3);
  const std::int64_t k = spec.kernel;
  const std::int64_t group_in = spec.in_channels / spec.groups;
  const std::int64_t group_out = spec.out_channels / spec.groups;
  const std::int64_t patch = group_in * k * k;
  Tensor y(Shape{x.dim(0), spec.out_channels, spec.out_size(h), spec.out_size(wd)});
  for (std::int64_t n = 0; n < x.dim(0); ++n) {
    for (std::int64_t oc = 0; oc < spec.out_channels; ++oc) {
      const std::int64_t g = oc / group_out;
      for (std::int64_t oh = 0; oh < y.dim(2); ++oh) {
        for (std::int64_t ow = 0; ow < y.dim(3); ++ow) {
          float total = 0.0F;
          for (std::int64_t p0 = 0; p0 < patch; p0 += kOrderBlock) {
            float block = 0.0F;
            for (std::int64_t p = p0; p < std::min(patch, p0 + kOrderBlock); ++p) {
              const std::int64_t ic = p / (k * k);
              const std::int64_t ih = oh * spec.stride - spec.padding + (p / k) % k;
              const std::int64_t iw = ow * spec.stride - spec.padding + p % k;
              const bool inside = ih >= 0 && ih < h && iw >= 0 && iw < wd;
              const float value = inside ? x.at4(n, g * group_in + ic, ih, iw) : 0.0F;
              block += w[oc * patch + p] * value;
            }
            total = p0 == 0 ? block : total + block;
          }
          y.at4(n, oc, oh, ow) = bias.numel() > 0 ? total + bias[oc] : total;
        }
      }
    }
  }
  return y;
}

Tensor order_reference_conv_dx(const Tensor& x, const Tensor& w, const Tensor& dy,
                               const Conv2dSpec& spec) {
  const std::int64_t k = spec.kernel;
  const std::int64_t s = spec.stride;
  const std::int64_t group_in = spec.in_channels / spec.groups;
  const std::int64_t group_out = spec.out_channels / spec.groups;
  Tensor dx(x.shape());
  for (std::int64_t n = 0; n < x.dim(0); ++n) {
    for (std::int64_t ic = 0; ic < spec.in_channels; ++ic) {
      const std::int64_t g = ic / group_in;
      for (std::int64_t ih = 0; ih < x.dim(2); ++ih) {
        for (std::int64_t iw = 0; iw < x.dim(3); ++iw) {
          float acc = 0.0F;
          for (std::int64_t kh = 0; kh < k; ++kh) {
            for (std::int64_t kw = 0; kw < k; ++kw) {
              const std::int64_t rh = ih + spec.padding - kh;
              const std::int64_t rw = iw + spec.padding - kw;
              if (rh < 0 || rw < 0 || rh % s != 0 || rw % s != 0) continue;
              const std::int64_t oh = rh / s;
              const std::int64_t ow = rw / s;
              if (oh >= dy.dim(2) || ow >= dy.dim(3)) continue;
              float tap = 0.0F;
              for (std::int64_t o0 = 0; o0 < group_out; o0 += kOrderBlock) {
                float block = 0.0F;
                for (std::int64_t o = o0; o < std::min(group_out, o0 + kOrderBlock); ++o) {
                  const std::int64_t oc = g * group_out + o;
                  block += w[((oc * group_in + ic % group_in) * k + kh) * k + kw] *
                           dy.at4(n, oc, oh, ow);
                }
                tap = o0 == 0 ? block : tap + block;
              }
              acc += tap;
            }
          }
          dx.at4(n, ic, ih, iw) = acc;
        }
      }
    }
  }
  return dx;
}

TEST_P(ConvParamTest, ForwardAndInputGradBitwiseMatchOrderReference) {
  const ConvCase tc = GetParam();
  Rng rng(17);
  Tensor x(Shape{tc.batch, tc.spec.in_channels, tc.image, tc.image});
  Tensor w(tc.spec.weight_shape());
  Tensor b(Shape{tc.spec.out_channels});
  fill_uniform(x, rng);
  fill_uniform(w, rng, -0.5F, 0.5F);
  fill_uniform(b, rng, -0.2F, 0.2F);
  const Tensor no_bias(Shape{0});
  Tensor dy(Shape{tc.batch, tc.spec.out_channels, tc.spec.out_size(tc.image),
                  tc.spec.out_size(tc.image)});
  fill_uniform(dy, rng);

  const Tensor want_y = order_reference_conv(x, w, b, tc.spec);
  const Tensor want_y_no_bias = order_reference_conv(x, w, no_bias, tc.spec);
  const Tensor want_dx = order_reference_conv_dx(x, w, dy, tc.spec);

  const VariantGuard guard;
  std::vector<Tensor> forwards;
  std::vector<Tensor> input_grads;
  for (const ew::Variant variant : available_variants()) {
    ew::force_variant(variant);
    forwards.push_back(conv2d_forward(x, w, b, tc.spec));
    expect_bitwise_equal(forwards.back(), want_y, "forward");
    expect_bitwise_equal(conv2d_forward(x, w, no_bias, tc.spec), want_y_no_bias,
                         "forward without bias");
    // The frozen-model path (dx only) and the training path (dx + dW)
    // share one input-gradient kernel.
    Tensor dx;
    conv2d_backward_into(x, w, dy, tc.spec, /*need_dx=*/true, /*need_dweight=*/false, &dx,
                         nullptr, nullptr);
    expect_bitwise_equal(dx, want_dx, "input gradient (dx only)");
    const Conv2dGrads grads = conv2d_backward(x, w, dy, tc.spec);
    expect_bitwise_equal(grads.dx, want_dx, "input gradient (with dW)");
    input_grads.push_back(std::move(dx));
  }
  for (std::size_t v = 1; v < forwards.size(); ++v) {
    expect_bitwise_equal(forwards[v], forwards[0], "forward, AVX2 vs portable");
    expect_bitwise_equal(input_grads[v], input_grads[0], "input gradient, AVX2 vs portable");
  }
}

// Every conv geometry of nn/models.cpp is represented: strides 1 and 2,
// kernels 1/3/5, padding 0 and 1, groups 1 and depthwise, K > 256 (split
// into 256-wide blocks), OC > 256 (the input gradient's oc sums split), and
// widths that are not a multiple of 8, on narrow and wide maps.
INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvParamTest,
    ::testing::Values(ConvCase{make_spec(3, 4, 3, 1, 1, 1), 8, 2},    // padded 3x3
                      ConvCase{make_spec(2, 6, 3, 2, 1, 1), 9, 2},    // strided
                      ConvCase{make_spec(1, 4, 5, 1, 0, 1), 10, 1},   // 5x5 valid
                      ConvCase{make_spec(4, 4, 3, 1, 1, 4), 6, 2},    // depthwise
                      ConvCase{make_spec(4, 8, 1, 1, 0, 1), 5, 2},    // pointwise
                      ConvCase{make_spec(4, 6, 3, 2, 1, 2), 8, 1},    // grouped strided
                      ConvCase{make_spec(3, 8, 3, 1, 1, 1), 17, 1},   // wide stem, odd width
                      ConvCase{make_spec(4, 6, 3, 2, 1, 1), 19, 1},   // strided 3x3, wide
                      ConvCase{make_spec(4, 6, 1, 2, 0, 1), 18, 1},   // strided 1x1 projection
                      ConvCase{make_spec(1, 4, 5, 1, 0, 1), 20, 1},   // wide 5x5 valid
                      ConvCase{make_spec(16, 4, 5, 1, 0, 1), 12, 1},  // 5x5 valid, K = 400
                      ConvCase{make_spec(29, 3, 3, 1, 1, 1), 6, 1},   // padded, K = 261
                      ConvCase{make_spec(6, 6, 3, 2, 1, 6), 11, 2},   // depthwise strided
                      ConvCase{make_spec(2, 260, 1, 1, 0, 1), 3, 1}));  // OC = 260

TEST(Im2Col, RoundTripAdjoint) {
  // col2im is the exact transpose of im2col:
  // <im2col(x), c> == <x, col2im(c)> for all x, c.
  Rng rng(5);
  const std::int64_t channels = 2;
  const std::int64_t size = 6;
  const std::int64_t kernel = 3;
  const std::int64_t stride = 2;
  const std::int64_t padding = 1;
  const std::int64_t out = (size + 2 * padding - kernel) / stride + 1;
  const std::int64_t col_numel = channels * kernel * kernel * out * out;

  Tensor x(Shape{channels, size, size});
  fill_uniform(x, rng);
  std::vector<float> col(static_cast<std::size_t>(col_numel));
  im2col(x.raw(), channels, size, size, kernel, stride, padding, col.data());

  std::vector<float> c(static_cast<std::size_t>(col_numel));
  Rng rng2(6);
  for (float& v : c) v = rng2.uniform_float(-1.0F, 1.0F);

  Tensor back(Shape{channels, size, size});
  col2im(c.data(), channels, size, size, kernel, stride, padding, back.raw());

  double lhs = 0.0;
  for (std::int64_t i = 0; i < col_numel; ++i) {
    lhs += static_cast<double>(col[static_cast<std::size_t>(i)]) * c[static_cast<std::size_t>(i)];
  }
  double rhs = 0.0;
  for (std::int64_t i = 0; i < x.numel(); ++i) rhs += static_cast<double>(x[i]) * back[i];
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

TEST(MaxPool, ForwardAndBackward) {
  const Tensor x(Shape{1, 1, 4, 4},
                 {1, 2, 5, 6, 3, 4, 7, 8, 9, 10, 13, 14, 11, 12, 15, 16});
  const Pool2dSpec spec{2, 2};
  const MaxPoolResult result = maxpool2d_forward(x, spec);
  EXPECT_EQ(result.y.shape(), (Shape{1, 1, 2, 2}));
  EXPECT_EQ(result.y[0], 4.0F);
  EXPECT_EQ(result.y[3], 16.0F);

  const Tensor dy(Shape{1, 1, 2, 2}, {1, 1, 1, 1});
  const Tensor dx = maxpool2d_backward(dy, result.argmax, x.shape());
  EXPECT_EQ(dx.at4(0, 0, 1, 1), 1.0F);   // position of 4
  EXPECT_EQ(dx.at4(0, 0, 3, 3), 1.0F);   // position of 16
  EXPECT_EQ(dx.at4(0, 0, 0, 0), 0.0F);
  EXPECT_FLOAT_EQ(dx.sum(), 4.0F);
}

TEST(AvgPool, ForwardBackwardConsistency) {
  Rng rng(9);
  Tensor x(Shape{2, 3, 6, 6});
  fill_uniform(x, rng);
  const Pool2dSpec spec{2, 2};
  const Tensor y = avgpool2d_forward(x, spec);
  EXPECT_EQ(y.shape(), (Shape{2, 3, 3, 3}));
  EXPECT_NEAR(y.at4(0, 0, 0, 0),
              0.25F * (x.at4(0, 0, 0, 0) + x.at4(0, 0, 0, 1) + x.at4(0, 0, 1, 0) +
                       x.at4(0, 0, 1, 1)),
              1e-5F);

  Tensor dy(y.shape());
  fill_uniform(dy, rng);
  const Tensor dx = avgpool2d_backward(dy, x.shape(), spec);
  auto loss = [&](const Tensor& probe) {
    const Tensor out = avgpool2d_forward(probe, spec);
    double total = 0.0;
    for (std::int64_t i = 0; i < out.numel(); ++i) total += static_cast<double>(out[i]) * dy[i];
    return total;
  };
  expect_gradient_close(loss, x, dx);
}

TEST(GlobalAvgPool, MeanAndGradient) {
  Rng rng(10);
  Tensor x(Shape{2, 4, 5, 5});
  fill_uniform(x, rng);
  const Tensor y = global_avgpool_forward(x);
  EXPECT_EQ(y.shape(), (Shape{2, 4, 1, 1}));
  double manual = 0.0;
  for (std::int64_t s = 0; s < 25; ++s) manual += x[s];
  EXPECT_NEAR(y[0], manual / 25.0, 1e-5);

  Tensor dy(y.shape());
  fill_uniform(dy, rng);
  const Tensor dx = global_avgpool_backward(dy, x.shape());
  EXPECT_NEAR(dx[0], dy[0] / 25.0F, 1e-6F);
}

TEST(Softmax, RowsSumToOneAndOrderPreserved) {
  const Tensor logits(Shape{2, 3}, {1.0F, 2.0F, 3.0F, -1.0F, -1.0F, -1.0F});
  const Tensor probs = softmax_rows(logits);
  EXPECT_NEAR(probs[0] + probs[1] + probs[2], 1.0F, 1e-5F);
  EXPECT_GT(probs[2], probs[1]);
  EXPECT_NEAR(probs[3], 1.0F / 3.0F, 1e-5F);
}

TEST(Softmax, NumericallyStableForLargeLogits) {
  const Tensor logits(Shape{1, 2}, {1000.0F, 999.0F});
  const Tensor probs = softmax_rows(logits);
  EXPECT_TRUE(std::isfinite(probs[0]));
  EXPECT_GT(probs[0], probs[1]);
}

TEST(OneHot, EncodesAndValidates) {
  const Tensor encoded = one_hot({0, 2}, 3);
  EXPECT_EQ(encoded.at2(0, 0), 1.0F);
  EXPECT_EQ(encoded.at2(1, 2), 1.0F);
  EXPECT_EQ(encoded.sum(), 2.0F);
  EXPECT_THROW((void)one_hot({3}, 3), std::invalid_argument);
}

TEST(ArgmaxRows, PicksFirstMaximum) {
  const Tensor logits(Shape{2, 3}, {0.0F, 5.0F, 1.0F, 7.0F, 2.0F, 7.0F});
  const auto result = argmax_rows(logits);
  EXPECT_EQ(result[0], 1);
  EXPECT_EQ(result[1], 0);  // ties break to the first index
}

TEST(GaussianKernel, NormalizedAndSymmetric) {
  const Tensor k = gaussian_kernel(11, 1.5);
  EXPECT_NEAR(k.sum(), 1.0F, 1e-5F);
  EXPECT_NEAR(k.at2(0, 0), k.at2(10, 10), 1e-7F);
  EXPECT_GT(k.at2(5, 5), k.at2(0, 0));
}

TEST(Filter2d, ValidAgainstManual) {
  const Tensor x(Shape{1, 1, 3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  const Tensor kernel(Shape{2, 2}, {1, 0, 0, 1});
  const Tensor y = filter2d_valid(x, kernel);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 2, 2}));
  EXPECT_EQ(y[0], 1.0F + 5.0F);
  EXPECT_EQ(y[3], 5.0F + 9.0F);
}

TEST(Filter2d, FullAdjointIsTransposeOfValid) {
  // <filter2d_valid(x, k), g> == <x, filter2d_full_adjoint(g, k)>.
  Rng rng(21);
  Tensor x(Shape{2, 3, 9, 9});
  fill_uniform(x, rng);
  const Tensor kernel = gaussian_kernel(5, 1.2);
  const Tensor y = filter2d_valid(x, kernel);
  Tensor g(y.shape());
  fill_uniform(g, rng);
  const Tensor adj = filter2d_full_adjoint(g, kernel);
  ASSERT_EQ(adj.shape(), x.shape());

  double lhs = 0.0;
  for (std::int64_t i = 0; i < y.numel(); ++i) lhs += static_cast<double>(y[i]) * g[i];
  double rhs = 0.0;
  for (std::int64_t i = 0; i < x.numel(); ++i) rhs += static_cast<double>(x[i]) * adj[i];
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

}  // namespace
}  // namespace usb
