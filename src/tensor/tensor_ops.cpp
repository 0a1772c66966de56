#include "tensor/tensor_ops.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>
#include <stdexcept>
#include <utility>

#include "tensor/elementwise.h"
#include "tensor/simd_common.h"
#include "utils/thread_pool.h"

namespace usb {
namespace {

void require(bool condition, const char* message) {
  if (!condition) throw std::invalid_argument(message);
}

// ---------------------------------------------------------------------------
// Direct SIMD kernels for the conv forward, the conv input gradient and the
// SSIM filters. Lanes always hold DIFFERENT output pixels and a reduction is
// never split across lanes, so each output element keeps the scalar
// accumulation order documented in tensor_ops.h. Each tile body is written
// once and instantiated portable and AVX2 (simd_common.h); which pair runs
// follows the elementwise suite's variant flag (ew::active_variant), so
// ew::force_variant pins these kernels too.

using simd::v4df;
using simd::v8sf;

constexpr int kConvRows = 4;              // output rows per conv tile (1 for 1-row groups)
constexpr int kConvLanes = 16;            // output pixels per conv tile: two v8sf
constexpr std::int64_t kTermBlock = 256;  // products per partial sum: the GEMM's KC
constexpr int kFilterRows = 6;            // output rows per filter tile
constexpr int kFilterLanes = 4;           // output columns per filter tile: one v4df

/// A conv tile: MR output rows (output channels for the forward, input
/// channels for dx) x kConvLanes lanes. The terms from `first_term` on come
/// in `groups` tap groups (group_end[g] is one past group g's last term);
/// term t multiplies the lanes at src + offsets[t] by weights[t * MR + r]
/// for row r. A group's products are summed from +0 in blocks of
/// kTermBlock terms, the blocks added in order, and the group sums added in
/// order into an accumulator that starts at +0. out receives MR rows of
/// kConvLanes floats.
template <int MR>
USB_SIMD_INLINE void conv_tile(const float* USB_RESTRICT src,
                               const std::int64_t* USB_RESTRICT offsets,
                               const float* USB_RESTRICT weights, std::int64_t first_term,
                               const std::int64_t* USB_RESTRICT group_end, std::int64_t groups,
                               float* USB_RESTRICT out) {
  v8sf acc[MR][2] = {};
  std::int64_t t = first_term;
  for (std::int64_t g = 0; g < groups; ++g) {
    const std::int64_t begin = t;
    v8sf sum[MR][2] = {};
    while (t < group_end[g]) {
      const std::int64_t block_end = std::min(group_end[g], t + kTermBlock);
      const bool first = t == begin;
      v8sf part[MR][2] = {};
      const float* USB_RESTRICT w = weights + t * MR;
      for (const std::int64_t* off = offsets + t; off != offsets + block_end;
           ++off, w += MR) {
        const float* USB_RESTRICT lanes = src + *off;
        const v8sf lo = USB_SIMD_LOAD(lanes);
        const v8sf hi = USB_SIMD_LOAD(lanes + 8);
        for (int r = 0; r < MR; ++r) {
          const v8sf wr = USB_SIMD_BCAST(w[r]);
          part[r][0] += wr * lo;
          part[r][1] += wr * hi;
        }
      }
      t = block_end;
      for (int r = 0; r < MR; ++r) {
        sum[r][0] = first ? part[r][0] : sum[r][0] + part[r][0];
        sum[r][1] = first ? part[r][1] : sum[r][1] + part[r][1];
      }
    }
    for (int r = 0; r < MR; ++r) {
      acc[r][0] += sum[r][0];
      acc[r][1] += sum[r][1];
    }
  }
  for (int r = 0; r < MR; ++r) {
    USB_SIMD_STORE(out + r * kConvLanes, acc[r][0]);
    USB_SIMD_STORE(out + r * kConvLanes + 8, acc[r][1]);
  }
}

/// The taps one filter tile runs: rows [a_begin, a_end) x columns
/// [b_begin, b_end) of a k x k kernel (`taps`, row-major), tap (a, b)
/// reading its lanes at src + a * row_step + b * col_step.
struct TapWindow {
  const double* taps = nullptr;
  std::int64_t k = 0;
  std::int64_t row_step = 0;
  std::int64_t col_step = 0;
  std::int64_t a_begin = 0, a_end = 0;
  std::int64_t b_begin = 0, b_end = 0;
};

/// A filter tile: kFilterRows output rows (pitch apart) x kFilterLanes
/// columns. Each output accumulates lane * tap over the window's taps in
/// ascending (a, b) order, in one double from +0.
USB_SIMD_INLINE void filter_tile(const double* USB_RESTRICT src, std::int64_t pitch,
                                 const TapWindow& window, double* USB_RESTRICT out) {
  v4df acc[kFilterRows] = {};
  for (std::int64_t a = window.a_begin; a < window.a_end; ++a) {
    const double* row = src + a * window.row_step;
    const double* row_taps = window.taps + a * window.k;
    for (std::int64_t b = window.b_begin; b < window.b_end; ++b) {
      const double* lanes = row + b * window.col_step;
      const v4df tap = USB_SIMD_BCAST_PD(row_taps[b]);
      for (int r = 0; r < kFilterRows; ++r) acc[r] += USB_SIMD_LOAD_PD(lanes + r * pitch) * tap;
    }
  }
  for (int r = 0; r < kFilterRows; ++r) USB_SIMD_STORE_PD(out + r * kFilterLanes, acc[r]);
}

using ConvTileFn = void (*)(const float*, const std::int64_t*, const float*, std::int64_t,
                            const std::int64_t*, std::int64_t, float*);
using FilterTileFn = void (*)(const double*, std::int64_t, const TapWindow&, double*);

struct DirectKernels {
  // Four rows per tile keep 8 independent accumulator chains in flight; a
  // one-row group (a single-channel input's dx, depthwise) would waste
  // three of them, so it runs one row per tile instead.
  ConvTileFn conv_rows4;
  ConvTileFn conv_rows1;
  FilterTileFn filter;
};

#define USB_DEFINE_DIRECT_KERNELS(SUFFIX, TARGET_ATTR)                                          \
  TARGET_ATTR void conv_rows4_##SUFFIX(const float* src, const std::int64_t* offsets,          \
                                       const float* weights, std::int64_t first_term,          \
                                       const std::int64_t* group_end, std::int64_t groups,     \
                                       float* out) {                                           \
    conv_tile<kConvRows>(src, offsets, weights, first_term, group_end, groups, out);            \
  }                                                                                             \
  TARGET_ATTR void conv_rows1_##SUFFIX(const float* src, const std::int64_t* offsets,          \
                                       const float* weights, std::int64_t first_term,          \
                                       const std::int64_t* group_end, std::int64_t groups,     \
                                       float* out) {                                           \
    conv_tile<1>(src, offsets, weights, first_term, group_end, groups, out);                    \
  }                                                                                             \
  TARGET_ATTR void filter_##SUFFIX(const double* src, std::int64_t pitch,                      \
                                   const TapWindow& window, double* out) {                     \
    filter_tile(src, pitch, window, out);                                                       \
  }                                                                                             \
  constexpr DirectKernels kDirectKernels_##SUFFIX{conv_rows4_##SUFFIX, conv_rows1_##SUFFIX,    \
                                                  filter_##SUFFIX};

USB_DEFINE_DIRECT_KERNELS(portable, )
#if defined(__x86_64__) || defined(__i386__)
USB_DEFINE_DIRECT_KERNELS(avx2, USB_SIMD_AVX2)
#endif

#undef USB_DEFINE_DIRECT_KERNELS

const DirectKernels& direct_kernels() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  if (ew::active_variant() == ew::Variant::kAvx2) return kDirectKernels_avx2;
#endif
  return kDirectKernels_portable;
}

/// Term list and packed weights of one conv tile program: for the forward
/// one group of a conv, for dx one (group, stride phase) pair.
struct ConvProgram {
  std::int64_t row_count = 0;          // output rows (channels) of the group
  int rows = kConvRows;                // rows per tile: kConvRows, or 1 for a 1-row group
  std::int64_t panels = 0;             // tiles of `rows` rows covering row_count
  std::vector<std::int64_t> offsets;   // per term, into the group's prepared planes
  std::vector<std::int64_t> group_end;
  // Lane-map rows [first, last] where a group can read nonzero source; a
  // tile whose rows all fall outside skips the group (its products are
  // zeros, so it could only add an exact +0).
  std::vector<std::pair<std::int64_t, std::int64_t>> group_rows;
  std::vector<std::int64_t> group_tap;  // kh * k + kw of each tap group (dx programs)
  std::vector<float> weights;          // [panel][term][rows], zero past row_count

  /// Starts a program over `count` rows; terms are then appended.
  void reset(std::int64_t count) {
    row_count = count;
    rows = count == 1 ? 1 : kConvRows;
    panels = (count + rows - 1) / rows;
    offsets.clear();
    group_end.clear();
    group_rows.clear();
    group_tap.clear();
  }
  /// Packs the weights once every term is appended: weight(row, t) is the
  /// multiplier of term t for output row `row`.
  template <typename WeightFn>
  void pack(WeightFn weight) {
    const auto terms = static_cast<std::int64_t>(offsets.size());
    weights.assign(static_cast<std::size_t>(panels * terms * rows), 0.0F);
    for (std::int64_t panel = 0; panel < panels; ++panel) {
      for (std::int64_t t = 0; t < terms; ++t) {
        for (std::int64_t r = 0; r < rows && panel * rows + r < row_count; ++r) {
          weights[static_cast<std::size_t>((panel * terms + t) * rows + r)] =
              weight(panel * rows + r, t);
        }
      }
    }
  }
  /// Furthest float a tile at lane block `o0` may read past src + o0.
  [[nodiscard]] std::int64_t reach() const {
    std::int64_t furthest = 0;
    for (const std::int64_t offset : offsets) furthest = std::max(furthest, offset);
    return furthest + kConvLanes;
  }
};

/// Where the lanes of a conv program land: lane o is map cell
/// (o / pitch, o % pitch); cells with column < cols are real outputs,
/// written to dst[row * row_stride + col * col_stride]. Lanes [0, count)
/// cover every real output.
struct LaneMap {
  std::int64_t count = 0;
  std::int64_t pitch = 1;
  std::int64_t cols = 0;
  std::int64_t row_stride = 0;
  std::int64_t col_stride = 1;

  /// One past the last float a program may read from its source planes.
  [[nodiscard]] std::int64_t extent(const ConvProgram& program) const {
    return (count - 1) / kConvLanes * kConvLanes + program.reach();
  }
};

/// Runs every tile of `program` over `src` and copies the real lanes of
/// output row r to dst + r * row_plane, adding bias[r] when bias is
/// non-null.
void run_conv_program(const DirectKernels& kernels, const ConvProgram& program, const float* src,
                      const LaneMap& map, float* dst, std::int64_t row_plane,
                      const float* bias) {
  const auto terms = static_cast<std::int64_t>(program.offsets.size());
  const auto groups = static_cast<std::int64_t>(program.group_end.size());
  const ConvTileFn tile_fn = program.rows == 1 ? kernels.conv_rows1 : kernels.conv_rows4;
  alignas(64) float tile[kConvRows * kConvLanes];
  for (std::int64_t o0 = 0; o0 < map.count; o0 += kConvLanes) {
    const std::int64_t lanes = std::min<std::int64_t>(kConvLanes, map.count - o0);
    // The live groups of a tile are contiguous: group_rows shifts
    // monotonically with the tap row.
    const std::int64_t first_row = o0 / map.pitch;
    const std::int64_t last_row = (o0 + lanes - 1) / map.pitch;
    std::int64_t live_begin = 0;
    while (live_begin < groups && program.group_rows[live_begin].second < first_row) ++live_begin;
    std::int64_t live_end = groups;
    while (live_end > live_begin && program.group_rows[live_end - 1].first > last_row) --live_end;
    const std::int64_t first_term = live_begin == 0 ? 0 : program.group_end[live_begin - 1];
    for (std::int64_t panel = 0; panel < program.panels; ++panel) {
      const float* weights = program.weights.data() + panel * terms * program.rows;
      const std::int64_t rows =
          std::min<std::int64_t>(program.rows, program.row_count - panel * program.rows);
      tile_fn(src + o0, program.offsets.data(), weights, first_term,
                   program.group_end.data() + live_begin, live_end - live_begin, tile);
      for (std::int64_t r = 0; r < rows; ++r) {
        const std::int64_t row = panel * program.rows + r;
        const float row_bias = bias != nullptr ? bias[row] : 0.0F;
        // Copy the tile's runs of real lanes, one map row at a time.
        std::int64_t i = o0 / map.pitch;
        std::int64_t j = o0 % map.pitch;
        for (std::int64_t l = 0; l < lanes; l += map.pitch - j, j = 0, ++i) {
          const std::int64_t run = std::min(map.cols - j, lanes - l);
          const float* values = tile + r * kConvLanes + l;
          float* out = dst + row * row_plane + i * map.row_stride + j * map.col_stride;
          if (bias != nullptr) {
            for (std::int64_t v = 0; v < run; ++v) out[v * map.col_stride] = values[v] + row_bias;
          } else {
            for (std::int64_t v = 0; v < run; ++v) out[v * map.col_stride] = values[v];
          }
        }
      }
    }
  }
}

/// Thread-local source planes of the conv kernels (zero-padded samples and
/// output gradients). Grown on demand, never shrunk.
float* conv_source_scratch(std::size_t count) {
  thread_local AlignedBuffer buffer;
  return buffer.ensure(count);
}

/// Thread-local programs of the calling thread's conv call. Pool workers
/// only read them while the call that built them waits.
std::vector<ConvProgram>& conv_programs(std::size_t count) {
  thread_local std::vector<ConvProgram> programs;
  if (programs.size() < count) programs.resize(count);
  return programs;
}

/// The SSIM filters over every (n, c) plane of `in` into `out` (already
/// shaped). The valid filter reads output (p, q)'s tap (a, b) at
/// in(p + a, q + b); the adjoint is the flipped valid filter over `in`
/// zero-padded by k - 1 on every side, reading tap (a, b) at
/// padded(p + k - 1 - a, q + k - 1 - b) = in(p - a, q - b). Taps run in
/// ascending (a, b) order either way; an adjoint tile skips the taps that
/// read only padding for all of its outputs. Each plane is converted to
/// double (exact) into a zero-padded scratch whose size rounds the output
/// up to whole tiles, so every lane load is in range.
void filter_planes(const Tensor& in, const Tensor& kernel, bool adjoint, Tensor& out) {
  const std::int64_t k = kernel.dim(0);
  const std::int64_t in_h = in.dim(2);
  const std::int64_t in_w = in.dim(3);
  const std::int64_t out_h = out.dim(2);
  const std::int64_t out_w = out.dim(3);
  const std::int64_t row_tiles = (out_h + kFilterRows - 1) / kFilterRows;
  const std::int64_t col_tiles = (out_w + kFilterLanes - 1) / kFilterLanes;
  const std::int64_t pitch = col_tiles * kFilterLanes + k - 1;
  const std::int64_t plane_doubles = (row_tiles * kFilterRows + k - 1) * pitch;
  const std::int64_t lead = adjoint ? k - 1 : 0;

  thread_local std::vector<double> taps;
  taps.assign(kernel.raw(), kernel.raw() + k * k);
  TapWindow window;
  window.taps = taps.data();
  window.k = k;
  window.row_step = adjoint ? -pitch : pitch;
  window.col_step = adjoint ? -1 : 1;
  // Tap (a, b) of tile-relative output (r, l) reads padded row
  // tr * kFilterRows + r + lead + a * (adjoint ? -1 : 1), likewise for columns.
  const std::int64_t tap_origin = lead * pitch + lead;
  // Adjoint taps a that can reach g for output rows [first, last]:
  // first - in_h < a <= last (within [0, k)).
  const auto live_taps = [&](std::int64_t first, std::int64_t last, std::int64_t extent) {
    if (!adjoint) return std::pair<std::int64_t, std::int64_t>(0, k);
    return std::pair<std::int64_t, std::int64_t>(std::max<std::int64_t>(0, first - extent + 1),
                                                 std::min(k, last + 1));
  };

  const FilterTileFn tile_fn = direct_kernels().filter;
  parallel_for(in.dim(0) * in.dim(1), [&](std::int64_t begin, std::int64_t end) {
    // Raw storage for plane_doubles doubles (requested in float units).
    thread_local AlignedBuffer scratch;
    double* const padded =
        reinterpret_cast<double*>(scratch.ensure(static_cast<std::size_t>(2 * plane_doubles)));
    alignas(64) double tile[kFilterRows * kFilterLanes];
    TapWindow tile_window = window;
    for (std::int64_t plane = begin; plane < end; ++plane) {
      std::fill(padded, padded + plane_doubles, 0.0);
      const float* in_p = in.raw() + plane * in_h * in_w;
      for (std::int64_t i = 0; i < in_h; ++i) {
        std::copy(in_p + i * in_w, in_p + (i + 1) * in_w, padded + (lead + i) * pitch + lead);
      }
      float* out_p = out.raw() + plane * out_h * out_w;
      for (std::int64_t tr = 0; tr < row_tiles; ++tr) {
        const std::int64_t p0 = tr * kFilterRows;
        const std::int64_t rows = std::min<std::int64_t>(kFilterRows, out_h - p0);
        std::tie(tile_window.a_begin, tile_window.a_end) = live_taps(p0, p0 + rows - 1, in_h);
        for (std::int64_t tc = 0; tc < col_tiles; ++tc) {
          const std::int64_t q0 = tc * kFilterLanes;
          const std::int64_t cols = std::min<std::int64_t>(kFilterLanes, out_w - q0);
          std::tie(tile_window.b_begin, tile_window.b_end) = live_taps(q0, q0 + cols - 1, in_w);
          tile_fn(padded + p0 * pitch + q0 + tap_origin, pitch, tile_window, tile);
          for (std::int64_t r = 0; r < rows; ++r) {
            float* dst = out_p + (p0 + r) * out_w + q0;
            for (std::int64_t l = 0; l < cols; ++l) {
              dst[l] = static_cast<float>(tile[r * kFilterLanes + l]);
            }
          }
        }
      }
    }
  });
}

}  // namespace

Im2colWorkspace& Im2colWorkspace::local() {
  thread_local Im2colWorkspace workspace;
  return workspace;
}

void matmul_into(const Tensor& a, const Tensor& b, Tensor& out) {
  require(a.rank() == 2 && b.rank() == 2, "matmul: rank-2 tensors required");
  const std::int64_t m = a.dim(0);
  const std::int64_t k = a.dim(1);
  const std::int64_t n = b.dim(1);
  require(b.dim(0) == k, "matmul: inner dimensions differ");
  out.ensure_shape(Shape{m, n});
  gemm(/*transpose_a=*/false, /*transpose_b=*/false, m, n, k, a.raw(), k, b.raw(), n, out.raw(),
       n, /*accumulate=*/false);
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  Tensor c;
  matmul_into(a, b, c);
  return c;
}

void matmul_transpose_b_into(const Tensor& a, const Tensor& b, Tensor& out) {
  require(a.rank() == 2 && b.rank() == 2, "matmul_transpose_b: rank-2 tensors required");
  const std::int64_t m = a.dim(0);
  const std::int64_t k = a.dim(1);
  const std::int64_t n = b.dim(0);
  require(b.dim(1) == k, "matmul_transpose_b: inner dimensions differ");
  out.ensure_shape(Shape{m, n});
  gemm(/*transpose_a=*/false, /*transpose_b=*/true, m, n, k, a.raw(), k, b.raw(), k, out.raw(), n,
       /*accumulate=*/false);
}

Tensor matmul_transpose_b(const Tensor& a, const Tensor& b) {
  Tensor c;
  matmul_transpose_b_into(a, b, c);
  return c;
}

void matmul_transpose_a_into(const Tensor& a, const Tensor& b, Tensor& out) {
  require(a.rank() == 2 && b.rank() == 2, "matmul_transpose_a: rank-2 tensors required");
  const std::int64_t k = a.dim(0);
  const std::int64_t m = a.dim(1);
  const std::int64_t n = b.dim(1);
  require(b.dim(0) == k, "matmul_transpose_a: inner dimensions differ");
  out.ensure_shape(Shape{m, n});
  gemm(/*transpose_a=*/true, /*transpose_b=*/false, m, n, k, a.raw(), m, b.raw(), n, out.raw(), n,
       /*accumulate=*/false);
}

Tensor matmul_transpose_a(const Tensor& a, const Tensor& b) {
  Tensor c;
  matmul_transpose_a_into(a, b, c);
  return c;
}

void im2col(const float* x, std::int64_t channels, std::int64_t height, std::int64_t width,
            std::int64_t kernel, std::int64_t stride, std::int64_t padding, float* col) {
  const std::int64_t out_h = (height + 2 * padding - kernel) / stride + 1;
  const std::int64_t out_w = (width + 2 * padding - kernel) / stride + 1;
  float* col_out = col;
  for (std::int64_t c = 0; c < channels; ++c) {
    const float* x_channel = x + c * height * width;
    for (std::int64_t kh = 0; kh < kernel; ++kh) {
      for (std::int64_t kw = 0; kw < kernel; ++kw) {
        for (std::int64_t oh = 0; oh < out_h; ++oh, col_out += out_w) {
          const std::int64_t ih = oh * stride - padding + kh;
          if (ih < 0 || ih >= height) {
            std::fill(col_out, col_out + out_w, 0.0F);
            continue;
          }
          const float* x_row = x_channel + ih * width;
          for (std::int64_t ow = 0; ow < out_w; ++ow) {
            const std::int64_t iw = ow * stride - padding + kw;
            col_out[ow] = (iw >= 0 && iw < width) ? x_row[iw] : 0.0F;
          }
        }
      }
    }
  }
}

void col2im(const float* col, std::int64_t channels, std::int64_t height, std::int64_t width,
            std::int64_t kernel, std::int64_t stride, std::int64_t padding, float* x) {
  const std::int64_t out_h = (height + 2 * padding - kernel) / stride + 1;
  const std::int64_t out_w = (width + 2 * padding - kernel) / stride + 1;
  std::int64_t row = 0;
  for (std::int64_t c = 0; c < channels; ++c) {
    float* x_channel = x + c * height * width;
    for (std::int64_t kh = 0; kh < kernel; ++kh) {
      for (std::int64_t kw = 0; kw < kernel; ++kw, ++row) {
        const float* col_row = col + row * out_h * out_w;
        for (std::int64_t oh = 0; oh < out_h; ++oh) {
          const std::int64_t ih = oh * stride - padding + kh;
          if (ih < 0 || ih >= height) continue;
          float* x_row = x_channel + ih * width;
          const float* col_in = col_row + oh * out_w;
          for (std::int64_t ow = 0; ow < out_w; ++ow) {
            const std::int64_t iw = ow * stride - padding + kw;
            if (iw >= 0 && iw < width) x_row[iw] += col_in[ow];
          }
        }
      }
    }
  }
}

void conv2d_forward_into(const Tensor& x, const Tensor& weight, const Tensor& bias,
                         const Conv2dSpec& spec, Tensor& y) {
  require(x.rank() == 4, "conv2d: input must be NCHW");
  require(x.dim(1) == spec.in_channels, "conv2d: in_channels mismatch");
  require(weight.shape() == spec.weight_shape(), "conv2d: weight shape mismatch");
  require(spec.in_channels % spec.groups == 0 && spec.out_channels % spec.groups == 0,
          "conv2d: channels not divisible by groups");
  const std::int64_t batch = x.dim(0);
  const std::int64_t height = x.dim(2);
  const std::int64_t width = x.dim(3);
  const std::int64_t out_h = spec.out_size(height);
  const std::int64_t out_w = spec.out_size(width);
  require(out_h > 0 && out_w > 0, "conv2d: output size would be non-positive");
  const std::int64_t group_in = spec.in_channels / spec.groups;
  const std::int64_t group_out = spec.out_channels / spec.groups;
  const std::int64_t k = spec.kernel;
  const std::int64_t s = spec.stride;
  const std::int64_t patch = group_in * k * k;

  y.ensure_shape(Shape{batch, spec.out_channels, out_h, out_w});
  const bool has_bias = bias.numel() > 0;
  if (has_bias) require(bias.numel() == spec.out_channels, "conv2d: bias size mismatch");
  if (batch == 0) return;

  // Each sample is copied zero-padded and split into its s x s stride
  // phases: padded pixel (r, c) of channel ic lands in phase plane
  // (ic, r % s, c % s) at (r / s, c / s). Tap (kh, kw) of output (oh, ow)
  // then reads phase (kh % s, kw % s) at (oh + kh / s, ow + kw / s), so the
  // lanes o = oh * phase_w + ow of every tap are contiguous.
  const std::int64_t phase_h = (height + 2 * spec.padding + s - 1) / s;
  const std::int64_t phase_w = (width + 2 * spec.padding + s - 1) / s;
  const std::int64_t phase_plane = phase_h * phase_w;
  const std::int64_t channel_span = s * s * phase_plane;
  const LaneMap map{(out_h - 1) * phase_w + out_w, phase_w, out_w, out_w, 1};

  std::vector<ConvProgram>& programs = conv_programs(static_cast<std::size_t>(spec.groups));
  for (std::int64_t g = 0; g < spec.groups; ++g) {
    ConvProgram& program = programs[static_cast<std::size_t>(g)];
    program.reset(group_out);
    for (std::int64_t p = 0; p < patch; ++p) {
      const std::int64_t ic = p / (k * k);
      const std::int64_t kh = (p / k) % k;
      const std::int64_t kw = p % k;
      program.offsets.push_back(ic * channel_span + ((kh % s) * s + kw % s) * phase_plane +
                                (kh / s) * phase_w + kw / s);
    }
    program.group_end.push_back(patch);
    program.group_rows.emplace_back(0, out_h - 1);
    const float* w_g = weight.raw() + g * group_out * patch;
    program.pack([&](std::int64_t oc, std::int64_t t) { return w_g[oc * patch + t]; });
  }
  const std::int64_t source_floats =
      std::max(spec.in_channels * channel_span,
               (spec.groups - 1) * group_in * channel_span + map.extent(programs[0]));

  const DirectKernels& kernels = direct_kernels();
  parallel_for_deterministic(batch, [&](std::int64_t n) {
    float* const padded = conv_source_scratch(static_cast<std::size_t>(source_floats));
    std::fill(padded, padded + source_floats, 0.0F);
    const float* x_n = x.raw() + n * spec.in_channels * height * width;
    for (std::int64_t ic = 0; ic < spec.in_channels; ++ic) {
      for (std::int64_t ih = 0; ih < height; ++ih) {
        const std::int64_t r = ih + spec.padding;
        const float* x_row = x_n + (ic * height + ih) * width;
        float* phase_row =
            padded + ic * channel_span + (r % s) * s * phase_plane + (r / s) * phase_w;
        // Column phase cp holds the padded columns c = s * j + cp.
        for (std::int64_t cp = 0; cp < s; ++cp) {
          float* dst = phase_row + cp * phase_plane;
          std::int64_t j = (spec.padding - cp + s - 1) / s;
          for (std::int64_t iw = s * j + cp - spec.padding; iw < width; iw += s) {
            dst[j++] = x_row[iw];
          }
        }
      }
    }
    for (std::int64_t g = 0; g < spec.groups; ++g) {
      run_conv_program(kernels, programs[static_cast<std::size_t>(g)],
                       padded + g * group_in * channel_span, map,
                       y.raw() + (n * spec.out_channels + g * group_out) * out_h * out_w,
                       out_h * out_w, has_bias ? bias.raw() + g * group_out : nullptr);
    }
  });
}

Tensor conv2d_forward(const Tensor& x, const Tensor& weight, const Tensor& bias,
                      const Conv2dSpec& spec) {
  Tensor y;
  conv2d_forward_into(x, weight, bias, spec, y);
  return y;
}

void conv2d_backward_into(const Tensor& x, const Tensor& weight, const Tensor& dy,
                          const Conv2dSpec& spec, bool need_dx, bool need_dweight, Tensor* dx,
                          Tensor* dweight, Tensor* dbias) {
  const std::int64_t batch = x.dim(0);
  const std::int64_t height = x.dim(2);
  const std::int64_t width = x.dim(3);
  const std::int64_t out_h = spec.out_size(height);
  const std::int64_t out_w = spec.out_size(width);
  const std::int64_t spatial = out_h * out_w;
  require(dy.rank() == 4 && dy.dim(0) == batch && dy.dim(1) == spec.out_channels &&
              dy.dim(2) == out_h && dy.dim(3) == out_w,
          "conv2d_backward: dy shape mismatch");
  need_dx = need_dx && dx != nullptr;
  need_dweight = need_dweight && dweight != nullptr && dbias != nullptr;
  const std::int64_t group_in = spec.in_channels / spec.groups;
  const std::int64_t group_out = spec.out_channels / spec.groups;
  const std::int64_t k = spec.kernel;
  const std::int64_t s = spec.stride;
  const std::int64_t patch = group_in * k * k;

  if (need_dweight) {
    dweight->ensure_shape(weight.shape());
    dweight->fill(0.0F);
    dbias->ensure_shape(Shape{spec.out_channels});
    dbias->fill(0.0F);
  }

  // The input gradient is a direct kernel over a zero-padded copy of each
  // sample's dy. Input pixel (ih, iw) = (s * I + a, s * J + b) of stride
  // phase (a, b) receives tap (kh, kw) exactly when a + pad - kh and
  // b + pad - kw are multiples of s, from dy at (I + d(kh), J + d(kw)) with
  // d(kh) = (a + pad - kh) / s. Padding dy by `lead` zero rows/columns in
  // front (and enough behind) makes every such read in range, so one
  // program per (group, phase) covers the phase's pixels with lanes
  // o = I * dy_w + J. (Every residue of a + pad - kh mod s occurs, so the
  // d range below is never empty.)
  std::int64_t d_min = std::numeric_limits<std::int64_t>::max();
  std::int64_t d_max = std::numeric_limits<std::int64_t>::min();
  for (std::int64_t a = 0; a < s; ++a) {
    for (std::int64_t kh = 0; kh < k; ++kh) {
      const std::int64_t r = a + spec.padding - kh;
      if (r % s != 0) continue;
      d_min = std::min(d_min, r / s);
      d_max = std::max(d_max, r / s);
    }
  }
  const std::int64_t lead = std::max<std::int64_t>(0, -d_min);
  const std::int64_t dy_h = lead + std::max(out_h, (height + s - 1) / s + d_max);
  const std::int64_t dy_w = lead + std::max(out_w, (width + s - 1) / s + d_max);
  const std::int64_t dy_plane = dy_h * dy_w;
  const auto phase_map = [&](std::int64_t a, std::int64_t b) {
    const std::int64_t rows = (height - a + s - 1) / s;
    const std::int64_t cols = (width - b + s - 1) / s;
    return LaneMap{rows > 0 && cols > 0 ? (rows - 1) * dy_w + cols : 0, dy_w, cols, s * width, s};
  };

  std::int64_t source_floats = spec.out_channels * dy_plane;
  std::vector<ConvProgram>* programs = nullptr;
  if (need_dx) {
    dx->ensure_shape(x.shape());
    programs = &conv_programs(static_cast<std::size_t>(spec.groups * s * s));
    for (std::int64_t g = 0; g < spec.groups; ++g) {
      const float* w_g = weight.raw() + g * group_out * patch;
      for (std::int64_t a = 0; a < s; ++a) {
        for (std::int64_t b = 0; b < s; ++b) {
          ConvProgram& program = (*programs)[static_cast<std::size_t>((g * s + a) * s + b)];
          program.reset(group_in);
          for (std::int64_t kh = 0; kh < k; ++kh) {
            if ((a + spec.padding - kh) % s != 0) continue;
            for (std::int64_t kw = 0; kw < k; ++kw) {
              if ((b + spec.padding - kw) % s != 0) continue;
              const std::int64_t base = ((a + spec.padding - kh) / s + lead) * dy_w +
                                        (b + spec.padding - kw) / s + lead;
              for (std::int64_t oc = 0; oc < group_out; ++oc) {
                program.offsets.push_back(oc * dy_plane + base);
              }
              program.group_end.push_back(static_cast<std::int64_t>(program.offsets.size()));
              const std::int64_t d = (a + spec.padding - kh) / s;
              program.group_rows.emplace_back(-d, out_h - 1 - d);
              program.group_tap.push_back(kh * k + kw);
            }
          }
          program.pack([&](std::int64_t ic, std::int64_t t) {
            const std::int64_t tap = program.group_tap[static_cast<std::size_t>(t / group_out)];
            return w_g[(t % group_out * group_in + ic) * k * k + tap];
          });
          const LaneMap map = phase_map(a, b);
          if (map.count > 0) {
            source_floats =
                std::max(source_floats, g * group_out * dy_plane + map.extent(program));
          }
        }
      }
    }
  }

  // Per-chunk weight/bias accumulators keep the parallel reduction
  // deterministic: chunks are statically partitioned and reduced in order.
  // Only materialized when dW/db are actually requested — the frozen-model
  // detection path (need_dweight=false) then allocates nothing here.
  ThreadPool& pool = ThreadPool::global();
  const auto max_chunks = static_cast<std::size_t>(std::max(1, pool.size()));
  std::vector<Tensor> dw_parts;
  std::vector<Tensor> db_parts;
  if (need_dweight) {
    dw_parts.assign(max_chunks, Tensor(weight.shape()));
    db_parts.assign(max_chunks, Tensor(Shape{spec.out_channels}));
  }

  const DirectKernels& kernels = direct_kernels();
  pool.parallel_for(batch, [&](std::int64_t begin, std::int64_t end, int worker) {
    for (std::int64_t n = begin; n < end; ++n) {
      const float* x_n = x.raw() + n * spec.in_channels * height * width;
      const float* dy_n = dy.raw() + n * spec.out_channels * spatial;
      if (need_dweight) {
        // dW stays an im2col + GEMM: the unfolded input is its only consumer.
        Im2colWorkspace& ws = Im2colWorkspace::local();
        float* const col = ws.col(static_cast<std::size_t>(spec.in_channels * k * k * spatial));
        im2col(x_n, spec.in_channels, height, width, k, s, spec.padding, col);
        for (std::int64_t g = 0; g < spec.groups; ++g) {
          float* dw_g = dw_parts[static_cast<std::size_t>(worker)].raw() + g * group_out * patch;
          // dW_g += dy_g (OCg,S) x col_g^T (S, ICg*K*K)
          gemm(/*transpose_a=*/false, /*transpose_b=*/true, group_out, patch, spatial,
               dy_n + g * group_out * spatial, spatial, col + g * patch * spatial, spatial, dw_g,
               patch, /*accumulate=*/true);
        }
        Tensor& db_local = db_parts[static_cast<std::size_t>(worker)];
        for (std::int64_t oc = 0; oc < spec.out_channels; ++oc) {
          const float* dy_c = dy_n + oc * spatial;
          double acc = 0.0;
          for (std::int64_t i = 0; i < spatial; ++i) acc += dy_c[i];
          db_local[oc] += static_cast<float>(acc);
        }
      }
      if (need_dx) {
        float* const padded = conv_source_scratch(static_cast<std::size_t>(source_floats));
        std::fill(padded, padded + source_floats, 0.0F);
        for (std::int64_t oc = 0; oc < spec.out_channels; ++oc) {
          for (std::int64_t oh = 0; oh < out_h; ++oh) {
            std::copy(dy_n + (oc * out_h + oh) * out_w, dy_n + (oc * out_h + oh + 1) * out_w,
                      padded + oc * dy_plane + (oh + lead) * dy_w + lead);
          }
        }
        float* dx_n = dx->raw() + n * spec.in_channels * height * width;
        for (std::int64_t g = 0; g < spec.groups; ++g) {
          for (std::int64_t a = 0; a < s; ++a) {
            for (std::int64_t b = 0; b < s; ++b) {
              run_conv_program(kernels, (*programs)[static_cast<std::size_t>((g * s + a) * s + b)],
                               padded + g * group_out * dy_plane, phase_map(a, b),
                               dx_n + g * group_in * height * width + a * width + b,
                               height * width, nullptr);
            }
          }
        }
      }
    }
  });

  if (need_dweight) {
    for (std::size_t part = 0; part < max_chunks; ++part) {
      *dweight += dw_parts[part];
      *dbias += db_parts[part];
    }
  }
}

Conv2dGrads conv2d_backward(const Tensor& x, const Tensor& weight, const Tensor& dy,
                            const Conv2dSpec& spec, bool need_dx, bool need_dweight) {
  Conv2dGrads grads;
  // The struct adapter always materializes dweight/dbias (historical
  // contract: zero tensors when skipped); the core only touches what the
  // need flags request.
  grads.dweight = Tensor(weight.shape());
  grads.dbias = Tensor(Shape{spec.out_channels});
  if (need_dx) grads.dx = Tensor(x.shape());
  conv2d_backward_into(x, weight, dy, spec, need_dx, need_dweight, need_dx ? &grads.dx : nullptr,
                       &grads.dweight, &grads.dbias);
  return grads;
}

void maxpool2d_forward_into(const Tensor& x, const Pool2dSpec& spec, Tensor& y,
                            std::vector<std::int64_t>& argmax) {
  require(x.rank() == 4, "maxpool2d: input must be NCHW");
  const std::int64_t batch = x.dim(0);
  const std::int64_t channels = x.dim(1);
  const std::int64_t height = x.dim(2);
  const std::int64_t width = x.dim(3);
  const std::int64_t out_h = spec.out_size(height);
  const std::int64_t out_w = spec.out_size(width);
  require(out_h > 0 && out_w > 0, "maxpool2d: output would be empty");

  y.ensure_shape(Shape{batch, channels, out_h, out_w});
  argmax.resize(static_cast<std::size_t>(batch * channels * out_h * out_w));
  const std::int64_t planes = batch * channels;
  parallel_for(planes, [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t plane = begin; plane < end; ++plane) {
      const float* x_p = x.raw() + plane * height * width;
      float* y_p = y.raw() + plane * out_h * out_w;
      std::int64_t* idx_p = argmax.data() + plane * out_h * out_w;
      for (std::int64_t oh = 0; oh < out_h; ++oh) {
        for (std::int64_t ow = 0; ow < out_w; ++ow) {
          const std::int64_t h0 = oh * spec.stride;
          const std::int64_t w0 = ow * spec.stride;
          float best = x_p[h0 * width + w0];
          std::int64_t best_index = h0 * width + w0;
          for (std::int64_t kh = 0; kh < spec.kernel; ++kh) {
            for (std::int64_t kw = 0; kw < spec.kernel; ++kw) {
              const std::int64_t index = (h0 + kh) * width + (w0 + kw);
              if (x_p[index] > best) {
                best = x_p[index];
                best_index = index;
              }
            }
          }
          y_p[oh * out_w + ow] = best;
          idx_p[oh * out_w + ow] = plane * height * width + best_index;
        }
      }
    }
  });
}

MaxPoolResult maxpool2d_forward(const Tensor& x, const Pool2dSpec& spec) {
  MaxPoolResult result;
  maxpool2d_forward_into(x, spec, result.y, result.argmax);
  return result;
}

void maxpool2d_backward_into(const Tensor& dy, const std::vector<std::int64_t>& argmax,
                             const Shape& x_shape, Tensor& dx) {
  dx.ensure_shape(x_shape);
  dx.fill(0.0F);  // scatter-accumulate target
  const float* dy_data = dy.raw();
  for (std::size_t i = 0; i < argmax.size(); ++i) {
    dx[argmax[i]] += dy_data[i];
  }
}

Tensor maxpool2d_backward(const Tensor& dy, const std::vector<std::int64_t>& argmax,
                          const Shape& x_shape) {
  Tensor dx;
  maxpool2d_backward_into(dy, argmax, x_shape, dx);
  return dx;
}

void avgpool2d_forward_into(const Tensor& x, const Pool2dSpec& spec, Tensor& y) {
  require(x.rank() == 4, "avgpool2d: input must be NCHW");
  const std::int64_t batch = x.dim(0);
  const std::int64_t channels = x.dim(1);
  const std::int64_t height = x.dim(2);
  const std::int64_t width = x.dim(3);
  const std::int64_t out_h = spec.out_size(height);
  const std::int64_t out_w = spec.out_size(width);
  const float inv_area = 1.0F / static_cast<float>(spec.kernel * spec.kernel);

  y.ensure_shape(Shape{batch, channels, out_h, out_w});
  const std::int64_t planes = batch * channels;
  parallel_for(planes, [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t plane = begin; plane < end; ++plane) {
      const float* x_p = x.raw() + plane * height * width;
      float* y_p = y.raw() + plane * out_h * out_w;
      for (std::int64_t oh = 0; oh < out_h; ++oh) {
        for (std::int64_t ow = 0; ow < out_w; ++ow) {
          double acc = 0.0;
          for (std::int64_t kh = 0; kh < spec.kernel; ++kh) {
            for (std::int64_t kw = 0; kw < spec.kernel; ++kw) {
              acc += x_p[(oh * spec.stride + kh) * width + (ow * spec.stride + kw)];
            }
          }
          y_p[oh * out_w + ow] = static_cast<float>(acc) * inv_area;
        }
      }
    }
  });
}

Tensor avgpool2d_forward(const Tensor& x, const Pool2dSpec& spec) {
  Tensor y;
  avgpool2d_forward_into(x, spec, y);
  return y;
}

void avgpool2d_backward_into(const Tensor& dy, const Shape& x_shape, const Pool2dSpec& spec,
                             Tensor& dx) {
  dx.ensure_shape(x_shape);
  dx.fill(0.0F);  // overlapping windows accumulate
  const std::int64_t height = x_shape[2];
  const std::int64_t width = x_shape[3];
  const std::int64_t out_h = dy.dim(2);
  const std::int64_t out_w = dy.dim(3);
  const float inv_area = 1.0F / static_cast<float>(spec.kernel * spec.kernel);
  const std::int64_t planes = dy.dim(0) * dy.dim(1);
  for (std::int64_t plane = 0; plane < planes; ++plane) {
    const float* dy_p = dy.raw() + plane * out_h * out_w;
    float* dx_p = dx.raw() + plane * height * width;
    for (std::int64_t oh = 0; oh < out_h; ++oh) {
      for (std::int64_t ow = 0; ow < out_w; ++ow) {
        const float g = dy_p[oh * out_w + ow] * inv_area;
        for (std::int64_t kh = 0; kh < spec.kernel; ++kh) {
          for (std::int64_t kw = 0; kw < spec.kernel; ++kw) {
            dx_p[(oh * spec.stride + kh) * width + (ow * spec.stride + kw)] += g;
          }
        }
      }
    }
  }
}

Tensor avgpool2d_backward(const Tensor& dy, const Shape& x_shape, const Pool2dSpec& spec) {
  Tensor dx;
  avgpool2d_backward_into(dy, x_shape, spec, dx);
  return dx;
}

void global_avgpool_forward_into(const Tensor& x, Tensor& y) {
  require(x.rank() == 4, "global_avgpool: input must be NCHW");
  const std::int64_t planes = x.dim(0) * x.dim(1);
  const std::int64_t spatial = x.dim(2) * x.dim(3);
  y.ensure_shape(Shape{x.dim(0), x.dim(1), 1, 1});
  for (std::int64_t plane = 0; plane < planes; ++plane) {
    const float* x_p = x.raw() + plane * spatial;
    double acc = 0.0;
    for (std::int64_t s = 0; s < spatial; ++s) acc += x_p[s];
    y[plane] = static_cast<float>(acc / static_cast<double>(spatial));
  }
}

Tensor global_avgpool_forward(const Tensor& x) {
  Tensor y;
  global_avgpool_forward_into(x, y);
  return y;
}

void global_avgpool_backward_into(const Tensor& dy, const Shape& x_shape, Tensor& dx) {
  dx.ensure_shape(x_shape);
  const std::int64_t planes = x_shape[0] * x_shape[1];
  const std::int64_t spatial = x_shape[2] * x_shape[3];
  const float inv = 1.0F / static_cast<float>(spatial);
  for (std::int64_t plane = 0; plane < planes; ++plane) {
    const float g = dy[plane] * inv;
    float* dx_p = dx.raw() + plane * spatial;
    for (std::int64_t s = 0; s < spatial; ++s) dx_p[s] = g;
  }
}

Tensor global_avgpool_backward(const Tensor& dy, const Shape& x_shape) {
  Tensor dx;
  global_avgpool_backward_into(dy, x_shape, dx);
  return dx;
}

void softmax_rows_into(const Tensor& logits, Tensor& probs) {
  require(logits.rank() == 2, "softmax_rows: rank-2 input required");
  probs.ensure_shape(logits.shape());
  ew::softmax_rows(logits.raw(), probs.raw(), logits.dim(0), logits.dim(1));
}

Tensor softmax_rows(const Tensor& logits) {
  Tensor probs;
  softmax_rows_into(logits, probs);
  return probs;
}

Tensor one_hot(const std::vector<std::int64_t>& labels, std::int64_t num_classes) {
  Tensor out(Shape{static_cast<std::int64_t>(labels.size()), num_classes});
  for (std::size_t i = 0; i < labels.size(); ++i) {
    require(labels[i] >= 0 && labels[i] < num_classes, "one_hot: label out of range");
    out[static_cast<std::int64_t>(i) * num_classes + labels[i]] = 1.0F;
  }
  return out;
}

std::vector<std::int64_t> argmax_rows(const Tensor& logits) {
  require(logits.rank() == 2, "argmax_rows: rank-2 input required");
  const std::int64_t rows = logits.dim(0);
  const std::int64_t cols = logits.dim(1);
  std::vector<std::int64_t> out(static_cast<std::size_t>(rows));
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* in = logits.raw() + r * cols;
    std::int64_t best = 0;
    for (std::int64_t c = 1; c < cols; ++c) {
      if (in[c] > in[best]) best = c;
    }
    out[static_cast<std::size_t>(r)] = best;
  }
  return out;
}

void gaussian_kernel_into(std::int64_t size, double sigma, Tensor& kernel) {
  require(size > 0 && sigma > 0.0, "gaussian_kernel: size and sigma must be positive");
  kernel.ensure_shape(Shape{size, size});
  const double center = static_cast<double>(size - 1) / 2.0;
  double total = 0.0;
  for (std::int64_t a = 0; a < size; ++a) {
    for (std::int64_t b = 0; b < size; ++b) {
      const double da = static_cast<double>(a) - center;
      const double db = static_cast<double>(b) - center;
      const double value = std::exp(-(da * da + db * db) / (2.0 * sigma * sigma));
      kernel.at2(a, b) = static_cast<float>(value);
      total += value;
    }
  }
  const auto inv = static_cast<float>(1.0 / total);
  for (std::int64_t i = 0; i < kernel.numel(); ++i) kernel[i] *= inv;
}

Tensor gaussian_kernel(std::int64_t size, double sigma) {
  Tensor kernel;
  gaussian_kernel_into(size, sigma, kernel);
  return kernel;
}

void filter2d_valid_into(const Tensor& x, const Tensor& kernel, Tensor& y) {
  require(x.rank() == 4, "filter2d_valid: input must be NCHW");
  require(kernel.rank() == 2 && kernel.dim(0) == kernel.dim(1),
          "filter2d_valid: square rank-2 kernel required");
  const std::int64_t k = kernel.dim(0);
  const std::int64_t out_h = x.dim(2) - k + 1;
  const std::int64_t out_w = x.dim(3) - k + 1;
  require(out_h > 0 && out_w > 0, "filter2d_valid: kernel larger than input");
  y.ensure_shape(Shape{x.dim(0), x.dim(1), out_h, out_w});
  filter_planes(x, kernel, /*adjoint=*/false, y);
}

Tensor filter2d_valid(const Tensor& x, const Tensor& kernel) {
  Tensor y;
  filter2d_valid_into(x, kernel, y);
  return y;
}

void filter2d_full_adjoint_into(const Tensor& g, const Tensor& kernel, Tensor& dx) {
  require(g.rank() == 4, "filter2d_full_adjoint: input must be NCHW");
  require(kernel.rank() == 2 && kernel.dim(0) == kernel.dim(1),
          "filter2d_full_adjoint: square rank-2 kernel required");
  const std::int64_t k = kernel.dim(0);
  dx.ensure_shape(Shape{g.dim(0), g.dim(1), g.dim(2) + k - 1, g.dim(3) + k - 1});
  filter_planes(g, kernel, /*adjoint=*/true, dx);
}

Tensor filter2d_full_adjoint(const Tensor& g, const Tensor& kernel) {
  Tensor dx;
  filter2d_full_adjoint_into(g, kernel, dx);
  return dx;
}

}  // namespace usb
