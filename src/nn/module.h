// Layer abstraction with explicit forward/backward.
//
// There is no autograd tape: each Module caches what its own backward needs
// during forward and implements the exact gradient. Backward returns the
// gradient with respect to the module INPUT and accumulates gradients into
// its Parameters. Input gradients are first-class because every algorithm
// in the paper (DeepFool, targeted UAP, NC/TABOR/USB trigger optimization)
// differentiates with respect to images, not just weights.
//
// Every layer has exactly one forward body and one backward body, the
// arena forms forward_into/backward_into: outputs and intermediates live in
// the caller's TensorArena, and layers cache borrowed pointers to their
// input and arena-lived activations instead of copies. The value forms
// forward()/backward() are written once, here in the base class, as
// adapters over those bodies: forward() copies its input into a frame the
// module owns (an input tensor plus an arena, created on first use), runs
// the arena body there and returns a copy of the output; backward() runs
// the arena body on the frame's arena under a Scope and returns a copy. A
// value call therefore costs one Tensor allocation once warm (the returned
// copy), and cannot diverge numerically from the arena path because it is
// the arena path. Loops in the library own an arena and call the bodies
// directly, so no module keeps a frame unless a value form was called on it.
//
// Contract: backward must be called after the forward whose activations it
// consumes, with a grad_out shaped like that forward's output; it may be
// repeated over one forward. Either form of backward pairs with either form
// of forward while the forward's arena has not been reset. Modules are not
// reentrant across interleaved forwards (the training and detection loops
// in this repo never need that).
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "tensor/arena.h"
#include "tensor/tensor.h"

namespace usb {

/// A learnable tensor with its gradient accumulator.
struct Parameter {
  std::string name;
  Tensor value;
  Tensor grad;

  Parameter() = default;
  Parameter(std::string param_name, Tensor initial)
      : name(std::move(param_name)), value(std::move(initial)), grad(value.shape()) {}

  void zero_grad() { grad.fill(0.0F); }
};

/// Named view of a tensor that must be serialized with the model: learnable
/// parameters plus non-learnable buffers (e.g. BatchNorm running stats).
struct StateTensor {
  std::string name;
  Tensor* tensor = nullptr;
};

class Module {
 public:
  virtual ~Module() = default;
  Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  /// The forward body. The output (and any intermediate) lives in `arena`
  /// slots, so a steady-state loop that resets the arena between steps
  /// performs zero Tensor heap allocations. The input `x` and the returned
  /// reference must stay alive (no arena reset) until the matching backward
  /// has consumed this forward's caches.
  [[nodiscard]] virtual const Tensor& forward_into(const Tensor& x, TensorArena& arena) = 0;

  /// The backward body: dL/dinput given dL/doutput, in an `arena` slot;
  /// accumulates parameter gradients. Returns a mutable reference so callers
  /// can fold extra gradient terms in place (e.g. the SSIM term of USB's
  /// Alg. 2).
  [[nodiscard]] virtual Tensor& backward_into(const Tensor& grad_out, TensorArena& arena) = 0;

  /// Value adapter over forward_into: runs it on a copy of `x` in this
  /// module's frame and returns a copy of the output.
  [[nodiscard]] Tensor forward(const Tensor& x);

  /// Value adapter over backward_into on the frame's arena; the Scope it
  /// runs under rewinds the frame after each call, so repeated backwards
  /// over one forward reuse the same slots.
  [[nodiscard]] Tensor backward(const Tensor& grad_out);

  /// Appends pointers to learnable parameters (default: none).
  virtual void collect_parameters(std::vector<Parameter*>& /*out*/) {}

  /// Appends all tensors to serialize: parameters plus buffers.
  virtual void collect_state(std::vector<StateTensor>& out) {
    std::vector<Parameter*> params;
    collect_parameters(params);
    for (Parameter* p : params) out.push_back(StateTensor{p->name, &p->value});
  }

  /// Switches train/eval behaviour (BatchNorm is the only mode-sensitive
  /// layer in this library).
  virtual void set_training(bool training) { training_ = training; }
  [[nodiscard]] bool training() const noexcept { return training_; }

  /// Disables parameter-gradient accumulation. Detection algorithms only
  /// need dL/dinput on a frozen model; skipping the dW/db kernels roughly
  /// halves the cost of every backward pass.
  virtual void set_param_grads_enabled(bool enabled) { param_grads_enabled_ = enabled; }
  [[nodiscard]] bool param_grads_enabled() const noexcept { return param_grads_enabled_; }

  [[nodiscard]] virtual std::string name() const = 0;

  /// Convenience: gathers parameters into a fresh vector.
  [[nodiscard]] std::vector<Parameter*> parameters() {
    std::vector<Parameter*> out;
    collect_parameters(out);
    return out;
  }

  /// Zeroes all parameter gradients in this subtree.
  void zero_grad() {
    for (Parameter* p : parameters()) p->zero_grad();
  }

 protected:
  bool training_ = true;
  bool param_grads_enabled_ = true;

 private:
  /// Storage of the value adapters: the copied input and the arena the
  /// bodies run on. Created by the first value call.
  struct Frame {
    Tensor input;
    TensorArena arena;
  };
  Frame& frame();

  std::unique_ptr<Frame> frame_;
};

using ModulePtr = std::unique_ptr<Module>;

}  // namespace usb
