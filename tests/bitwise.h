// Bit-for-bit comparison helpers for the kernel tests: tensor equality that
// distinguishes -0 from +0 and compares NaN payloads, and the dispatch
// variants a test can pin with ew::force_variant.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/elementwise.h"
#include "tensor/tensor.h"

namespace usb::testing {

/// Fails (once, at the first differing element) unless got and want have
/// the same shape and identical bits.
inline void expect_bitwise_equal(const Tensor& got, const Tensor& want, const char* what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  for (std::int64_t i = 0; i < got.numel(); ++i) {
    std::uint32_t a = 0;
    std::uint32_t b = 0;
    std::memcpy(&a, got.raw() + i, sizeof(a));
    std::memcpy(&b, want.raw() + i, sizeof(b));
    if (a != b) {
      ADD_FAILURE() << what << ": first differing element " << i << " (" << got[i] << " vs "
                    << want[i] << ")";
      return;
    }
  }
}

/// Restores runtime variant selection when the test scope ends.
struct VariantGuard {
  ~VariantGuard() { ew::force_variant(std::nullopt); }
};

/// The dispatch variants this CPU can run: portable always, AVX2 if present.
inline std::vector<ew::Variant> available_variants() {
  std::vector<ew::Variant> variants{ew::Variant::kPortable};
  if (ew::variant_available(ew::Variant::kAvx2)) variants.push_back(ew::Variant::kAvx2);
  return variants;
}

}  // namespace usb::testing
