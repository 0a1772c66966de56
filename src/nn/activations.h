// Pointwise activation layers: ReLU, Sigmoid, Tanh, SiLU (swish).
//
// Each layer's one forward body runs its kernel (see tensor/elementwise.h)
// into an arena slot and caches a borrowed pointer to the input or output
// that backward reads (valid until the arena resets — the
// Module::forward_into contract). The value forms are Module's adapters.
#pragma once

#include "nn/module.h"

namespace usb {

class ReLU final : public Module {
 public:
  [[nodiscard]] const Tensor& forward_into(const Tensor& x, TensorArena& arena) override;
  [[nodiscard]] Tensor& backward_into(const Tensor& grad_out, TensorArena& arena) override;
  [[nodiscard]] std::string name() const override { return "ReLU"; }

 private:
  const Tensor* cached_input_ = nullptr;
};

class Sigmoid final : public Module {
 public:
  [[nodiscard]] const Tensor& forward_into(const Tensor& x, TensorArena& arena) override;
  [[nodiscard]] Tensor& backward_into(const Tensor& grad_out, TensorArena& arena) override;
  [[nodiscard]] std::string name() const override { return "Sigmoid"; }

 private:
  const Tensor* cached_output_ = nullptr;
};

class Tanh final : public Module {
 public:
  [[nodiscard]] const Tensor& forward_into(const Tensor& x, TensorArena& arena) override;
  [[nodiscard]] Tensor& backward_into(const Tensor& grad_out, TensorArena& arena) override;
  [[nodiscard]] std::string name() const override { return "Tanh"; }

 private:
  const Tensor* cached_output_ = nullptr;
};

/// SiLU(x) = x * sigmoid(x); the EfficientNet activation.
class SiLU final : public Module {
 public:
  [[nodiscard]] const Tensor& forward_into(const Tensor& x, TensorArena& arena) override;
  [[nodiscard]] Tensor& backward_into(const Tensor& grad_out, TensorArena& arena) override;
  [[nodiscard]] std::string name() const override { return "SiLU"; }

 private:
  const Tensor* cached_input_ = nullptr;
  Tensor cached_sigmoid_;  // always module-owned (computed, not borrowed)
};

}  // namespace usb
