// Dense kernels: matmul family, direct convolution (with groups), pooling,
// softmax, one-hot, and the 2-D filtering primitives used by SSIM.
//
// Layout conventions:
//  - Activations are NCHW; matrices are row-major (M, K).
//  - Convolution weights are (OC, IC/groups, KH, KW); bias is (OC).
//  - All backward kernels compute exact gradients of their forward
//    counterparts (validated against central finite differences in tests).
//
// Accumulation-order contracts. The conv forward, the conv input gradient
// and both SSIM filters are SIMD kernels whose lanes hold DIFFERENT output
// elements; no reduction is ever split across lanes. Each output element
// is therefore computed by the scalar operation sequence stated at its
// function below, on every variant (portable and AVX2, pinned together by
// ew::force_variant) and for any USB_THREADS (the kernels run in parallel
// over samples or planes, never inside one output). tests/test_tensor_ops
// and tests/test_ssim spell each sequence out as a reference and compare
// bit for bit.
//
// Why the zero padding these kernels read is exact: every accumulator
// starts at +0, and under round-to-nearest a sum is -0 only when both
// addends are -0, so an accumulator can never become -0. Adding a product
// with a zero factor (+0 or -0, for a finite other factor) therefore
// leaves it bit-for-bit unchanged. A padded tap is an exact no-op, and a
// tap whose products are all such zeros can be skipped outright.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tensor/gemm.h"
#include "tensor/tensor.h"

namespace usb {

// ---------------------------------------------------------------- matmul --
//
// All three entry points are thin views over the blocked GEMM core in
// tensor/gemm.h (the transpose is folded into panel packing). Results are
// bit-identical for any USB_THREADS; see gemm.h for the determinism
// contract.
//
// Every op here follows the repository's `_into` convention: the core
// kernel writes into a caller-provided Tensor (re-shaped in place via
// Tensor::ensure_shape, so a recycled output buffer costs zero heap
// allocations), and the value-returning form is a thin adapter that
// allocates a fresh result and calls the core. Outputs are fully
// overwritten unless a comment says the op accumulates (those zero the
// output first), so arena slots with stale contents are safe.

/// C = A (M,K) x B (K,N).
[[nodiscard]] Tensor matmul(const Tensor& a, const Tensor& b);
void matmul_into(const Tensor& a, const Tensor& b, Tensor& out);

/// C = A (M,K) x B^T where B is (N,K).
[[nodiscard]] Tensor matmul_transpose_b(const Tensor& a, const Tensor& b);
void matmul_transpose_b_into(const Tensor& a, const Tensor& b, Tensor& out);

/// C = A^T x B where A is (K,M), B is (K,N).
[[nodiscard]] Tensor matmul_transpose_a(const Tensor& a, const Tensor& b);
void matmul_transpose_a_into(const Tensor& a, const Tensor& b, Tensor& out);

// ----------------------------------------------------------- convolution --

/// Static geometry of a 2-D convolution.
struct Conv2dSpec {
  std::int64_t in_channels = 0;
  std::int64_t out_channels = 0;
  std::int64_t kernel = 1;   // square kernels only (paper architectures)
  std::int64_t stride = 1;
  std::int64_t padding = 0;
  std::int64_t groups = 1;   // groups == in_channels gives depthwise conv

  [[nodiscard]] std::int64_t out_size(std::int64_t in_size) const noexcept {
    return (in_size + 2 * padding - kernel) / stride + 1;
  }
  /// Weight tensor shape for this spec.
  [[nodiscard]] Shape weight_shape() const {
    return Shape{out_channels, in_channels / groups, kernel, kernel};
  }
};

/// y (N,OC,OH,OW) = conv(x (N,IC,H,W), weight, bias). `bias` may be empty
/// (numel 0) to skip the bias add.
///
/// Order (the blocked GEMM's, gemm.h): each output sums w * x over
/// p = (ic, kh, kw) of its group in ascending order, one float accumulator
/// from +0 per 256-wide block of p (the GEMM's KC), blocks added in order,
/// then + bias. Taps in the zero padding multiply an explicit 0.0F, exactly
/// as im2col's zero columns did. Computed directly from a zero-padded,
/// stride-phase-split copy of each sample: no column buffer, no scatter.
[[nodiscard]] Tensor conv2d_forward(const Tensor& x, const Tensor& weight, const Tensor& bias,
                                    const Conv2dSpec& spec);
void conv2d_forward_into(const Tensor& x, const Tensor& weight, const Tensor& bias,
                         const Conv2dSpec& spec, Tensor& y);

struct Conv2dGrads {
  Tensor dx;       // same shape as x (empty when need_dx == false)
  Tensor dweight;  // same shape as weight
  Tensor dbias;    // (OC)
};

/// Exact gradients of conv2d_forward. Skipping dx (need_dx=false) saves the
/// input-gradient kernel for the first layer of a network; skipping dweight
/// (need_dweight=false) halves the cost when only input gradients matter
/// (frozen-model detection).
///
/// dx order (the historical dcol GEMM + col2im): each dx element starts at
/// +0 and adds, for its taps (kh, kw) in ascending order, that tap's dot
/// product: w[oc][ic][kh][kw] * dy[oc][oh][ow] summed over the group's oc
/// ascending, from +0 in 256-wide blocks of oc, blocks added in order. A
/// tap whose (oh, ow) falls outside dy is never added. One fused kernel
/// over a zero-padded copy of each sample's dy serves detection and
/// training: no dcol buffer, no col2im pass. The padded taps are exact
/// no-ops for finite weights (see the contract above). dW and db keep
/// im2col + GEMM.
[[nodiscard]] Conv2dGrads conv2d_backward(const Tensor& x, const Tensor& weight, const Tensor& dy,
                                          const Conv2dSpec& spec, bool need_dx = true,
                                          bool need_dweight = true);

/// Core form: each requested gradient is written into its out-parameter
/// (ignored when null or its need flag is off). Unlike the struct adapter
/// above, nothing is allocated for a skipped gradient — the frozen-model
/// detection path (need_dweight=false) touches only dx.
void conv2d_backward_into(const Tensor& x, const Tensor& weight, const Tensor& dy,
                          const Conv2dSpec& spec, bool need_dx, bool need_dweight, Tensor* dx,
                          Tensor* dweight, Tensor* dbias);

/// Unfolds x (C,H,W view of one sample) into columns (C*K*K, OH*OW). The
/// dW half of conv2d_backward runs on it.
void im2col(const float* x, std::int64_t channels, std::int64_t height, std::int64_t width,
            std::int64_t kernel, std::int64_t stride, std::int64_t padding, float* col);

/// Transpose of im2col: accumulates columns back into the (C,H,W) image.
/// No conv kernel uses it; kept as the public adjoint of im2col.
void col2im(const float* col, std::int64_t channels, std::int64_t height, std::int64_t width,
            std::int64_t kernel, std::int64_t stride, std::int64_t padding, float* x);

/// Thread-local im2col column buffer of the training-only dW pass. It grows
/// on demand and is NEVER shrunk or freed before thread exit, so repeated
/// backward passes over the same geometry perform no heap allocations.
class Im2colWorkspace {
 public:
  /// The calling thread's workspace (one per pool worker / caller thread).
  [[nodiscard]] static Im2colWorkspace& local();

  [[nodiscard]] float* col(std::size_t count) { return col_.ensure(count); }
  [[nodiscard]] std::size_t col_capacity() const noexcept { return col_.capacity(); }

 private:
  AlignedBuffer col_;
};

// --------------------------------------------------------------- pooling --

struct Pool2dSpec {
  std::int64_t kernel = 2;
  std::int64_t stride = 2;

  [[nodiscard]] std::int64_t out_size(std::int64_t in_size) const noexcept {
    return (in_size - kernel) / stride + 1;
  }
};

struct MaxPoolResult {
  Tensor y;
  std::vector<std::int64_t> argmax;  // flat input index per output element
};

[[nodiscard]] MaxPoolResult maxpool2d_forward(const Tensor& x, const Pool2dSpec& spec);
/// Core form: `argmax` is resized in place (capacity reused across calls).
void maxpool2d_forward_into(const Tensor& x, const Pool2dSpec& spec, Tensor& y,
                            std::vector<std::int64_t>& argmax);
[[nodiscard]] Tensor maxpool2d_backward(const Tensor& dy, const std::vector<std::int64_t>& argmax,
                                        const Shape& x_shape);
void maxpool2d_backward_into(const Tensor& dy, const std::vector<std::int64_t>& argmax,
                             const Shape& x_shape, Tensor& dx);

[[nodiscard]] Tensor avgpool2d_forward(const Tensor& x, const Pool2dSpec& spec);
void avgpool2d_forward_into(const Tensor& x, const Pool2dSpec& spec, Tensor& y);
[[nodiscard]] Tensor avgpool2d_backward(const Tensor& dy, const Shape& x_shape,
                                        const Pool2dSpec& spec);
void avgpool2d_backward_into(const Tensor& dy, const Shape& x_shape, const Pool2dSpec& spec,
                             Tensor& dx);

/// (N,C,H,W) -> (N,C,1,1) mean over spatial dims.
[[nodiscard]] Tensor global_avgpool_forward(const Tensor& x);
void global_avgpool_forward_into(const Tensor& x, Tensor& y);
[[nodiscard]] Tensor global_avgpool_backward(const Tensor& dy, const Shape& x_shape);
void global_avgpool_backward_into(const Tensor& dy, const Shape& x_shape, Tensor& dx);

// -------------------------------------------------- softmax and encoding --

/// Row-wise softmax of a (M,N) matrix, numerically stabilized.
[[nodiscard]] Tensor softmax_rows(const Tensor& logits);
void softmax_rows_into(const Tensor& logits, Tensor& probs);

/// (M,N) one-hot matrix from labels in [0, num_classes).
[[nodiscard]] Tensor one_hot(const std::vector<std::int64_t>& labels, std::int64_t num_classes);

/// Argmax per row of a (M,N) matrix.
[[nodiscard]] std::vector<std::int64_t> argmax_rows(const Tensor& logits);

// ----------------------------------------------------------- 2-D filters --

/// Normalized Gaussian kernel as a (size,size) tensor.
[[nodiscard]] Tensor gaussian_kernel(std::int64_t size, double sigma);
void gaussian_kernel_into(std::int64_t size, double sigma, Tensor& kernel);

/// Per-channel valid cross-correlation of x (N,C,H,W) with kernel (K,K):
/// output (N,C,H-K+1,W-K+1). This is the "local statistics" operator of
/// SSIM.
///
/// Order: each output accumulates double(x) * double(k) over the taps
/// (a, b) in ascending order, in one double from +0, rounded to float once.
/// Lanes are output columns (4 doubles per AVX2 vector).
[[nodiscard]] Tensor filter2d_valid(const Tensor& x, const Tensor& kernel);
void filter2d_valid_into(const Tensor& x, const Tensor& kernel, Tensor& y);

/// Per-channel full cross-correlation with the flipped kernel: the exact
/// adjoint (transpose) of filter2d_valid, mapping gradients on the valid
/// output back to the input grid. Output (N,C,h+K-1,w+K-1). The kernel
/// must be square and rank 2.
///
/// Order: output (p, q) accumulates double(g(p-a, q-b)) * double(k(a, b))
/// over the taps (a, b) that land inside g, in ascending order, in one
/// double from +0. Runs as the flipped valid filter over g zero-padded by
/// K-1 on every side; the padded taps are exact no-ops for a finite kernel
/// (see the contract at the top of this file).
[[nodiscard]] Tensor filter2d_full_adjoint(const Tensor& g, const Tensor& kernel);
void filter2d_full_adjoint_into(const Tensor& g, const Tensor& kernel, Tensor& dx);

}  // namespace usb
