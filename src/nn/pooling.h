// Pooling layers wrapping the tensor kernels.
#pragma once

#include "nn/module.h"
#include "tensor/tensor_ops.h"

namespace usb {

class MaxPool2d final : public Module {
 public:
  explicit MaxPool2d(Pool2dSpec spec) : spec_(spec) {}

  [[nodiscard]] const Tensor& forward_into(const Tensor& x, TensorArena& arena) override;
  [[nodiscard]] Tensor& backward_into(const Tensor& grad_out, TensorArena& arena) override;
  [[nodiscard]] std::string name() const override { return "MaxPool2d"; }

 private:
  Pool2dSpec spec_;
  Shape cached_input_shape_;
  std::vector<std::int64_t> cached_argmax_;  // capacity recycled across steps
};

class AvgPool2d final : public Module {
 public:
  explicit AvgPool2d(Pool2dSpec spec) : spec_(spec) {}

  [[nodiscard]] const Tensor& forward_into(const Tensor& x, TensorArena& arena) override;
  [[nodiscard]] Tensor& backward_into(const Tensor& grad_out, TensorArena& arena) override;
  [[nodiscard]] std::string name() const override { return "AvgPool2d"; }

 private:
  Pool2dSpec spec_;
  Shape cached_input_shape_;
};

/// (N,C,H,W) -> (N,C,1,1) spatial mean; the classifier-head pool.
class GlobalAvgPool final : public Module {
 public:
  [[nodiscard]] const Tensor& forward_into(const Tensor& x, TensorArena& arena) override;
  [[nodiscard]] Tensor& backward_into(const Tensor& grad_out, TensorArena& arena) override;
  [[nodiscard]] std::string name() const override { return "GlobalAvgPool"; }

 private:
  Shape cached_input_shape_;
};

/// (N,C,H,W) -> (N, C*H*W).
class Flatten final : public Module {
 public:
  [[nodiscard]] const Tensor& forward_into(const Tensor& x, TensorArena& arena) override;
  [[nodiscard]] Tensor& backward_into(const Tensor& grad_out, TensorArena& arena) override;
  [[nodiscard]] std::string name() const override { return "Flatten"; }

 private:
  Shape cached_input_shape_;
};

}  // namespace usb
