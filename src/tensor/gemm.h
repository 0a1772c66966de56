// Cache-blocked, register-tiled single-precision GEMM core.
//
// One kernel serves every dense-matrix entry point in the library: C = A x B
// with either operand optionally stored transposed (the transpose is folded
// into panel packing, never materialized). The core packs A into MR-row and
// B into NR-column panels inside aligned thread-local scratch, loops over
// MC/KC/NC cache blocks, and computes each MRxNR register tile with a
// small-unrolled micro-kernel (an AVX2-compiled variant is selected at
// runtime on x86; both variants execute the identical scalar operation
// sequence, so results are bit-identical across machines).
//
// Determinism contract: the C matrix is partitioned into a FIXED tile grid
// derived only from (M, N) and the blocking constants, and each element of C
// accumulates its K products in ascending order within a tile (KC blocks in
// sequence, p ascending inside a block, one accumulator per element). Tiles
// write disjoint C regions and are executed via parallel_for_deterministic,
// so the result is bit-identical for any USB_THREADS — and, for K <= KC,
// bit-identical to the textbook triple loop that sums p in ascending order
// with a single float accumulator (tests/test_gemm.cpp locks both in).
#pragma once

#include <cstddef>
#include <cstdint>

namespace usb {

/// 64-byte aligned float scratch that grows on demand and never shrinks.
/// Contents are unspecified after ensure(); not thread-safe (intended for
/// thread_local instances). Only the floats of the latest ensure() may be
/// touched: AddressSanitizer builds poison the rest of the capacity.
class AlignedBuffer {
 public:
  AlignedBuffer() = default;
  ~AlignedBuffer();
  AlignedBuffer(const AlignedBuffer&) = delete;
  AlignedBuffer& operator=(const AlignedBuffer&) = delete;

  /// Returns a buffer of at least `count` floats.
  float* ensure(std::size_t count);
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] float* data() const noexcept { return data_; }

 private:
  float* data_ = nullptr;
  std::size_t capacity_ = 0;
};

/// C (M,N; row stride ldc) = A x B, or += when `accumulate`.
///  - transpose_a == false: A is (M,K) with row stride lda;
///    transpose_a == true:  A is stored (K,M) with row stride lda.
///  - transpose_b == false: B is (K,N) with row stride ldb;
///    transpose_b == true:  B is stored (N,K) with row stride ldb.
/// C must not alias A or B. Large problems are tile-parallel over the
/// current pool via parallel_for_deterministic (bit-identical for any
/// thread count); small ones run inline.
void gemm(bool transpose_a, bool transpose_b, std::int64_t m, std::int64_t n, std::int64_t k,
          const float* a, std::int64_t lda, const float* b, std::int64_t ldb, float* c,
          std::int64_t ldc, bool accumulate);

}  // namespace usb
