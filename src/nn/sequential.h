// Sequential container with ranged forward/backward.
//
// The ranged bodies let callers split a network into a feature extractor
// and a classifier head without restructuring it — the Latent Backdoor
// attack trains against intermediate features, and model factories mark the
// feature/head boundary by layer index. forward_into/backward_into are
// their full-range case.
#pragma once

#include "nn/module.h"

namespace usb {

class Sequential final : public Module {
 public:
  Sequential() = default;

  /// Appends a layer; returns *this for chaining.
  Sequential& add(ModulePtr layer);

  [[nodiscard]] std::int64_t size() const noexcept {
    return static_cast<std::int64_t>(layers_.size());
  }
  [[nodiscard]] Module& layer(std::int64_t index) noexcept {
    return *layers_[static_cast<std::size_t>(index)];
  }

  [[nodiscard]] const Tensor& forward_into(const Tensor& x, TensorArena& arena) override {
    return forward_range(x, 0, size(), arena);
  }
  [[nodiscard]] Tensor& backward_into(const Tensor& grad_out, TensorArena& arena) override {
    return backward_range(grad_out, 0, size(), arena);
  }

  /// Forward through layers [begin, end); an empty range returns `x`.
  [[nodiscard]] const Tensor& forward_range(const Tensor& x, std::int64_t begin,
                                            std::int64_t end, TensorArena& arena);

  /// Backward through layers [begin, end) in reverse; must follow the
  /// matching forward_range. An empty range returns a copy of `grad_out`
  /// in an arena slot.
  [[nodiscard]] Tensor& backward_range(const Tensor& grad_out, std::int64_t begin,
                                       std::int64_t end, TensorArena& arena);

  void collect_parameters(std::vector<Parameter*>& out) override;
  void collect_state(std::vector<StateTensor>& out) override;
  void set_training(bool training) override;
  void set_param_grads_enabled(bool enabled) override;
  [[nodiscard]] std::string name() const override { return "Sequential"; }

 private:
  std::vector<ModulePtr> layers_;
};

}  // namespace usb
