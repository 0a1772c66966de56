#include "nn/activations.h"

#include "tensor/elementwise.h"

namespace usb {

const Tensor& ReLU::forward_into(const Tensor& x, TensorArena& arena) {
  cached_input_ = &x;
  Tensor& y = arena.alloc(x.shape());
  ew::relu_fwd(x.raw(), y.raw(), x.numel());
  return y;
}

Tensor& ReLU::backward_into(const Tensor& grad_out, TensorArena& arena) {
  Tensor& dx = arena.alloc(grad_out.shape());
  ew::relu_bwd(cached_input_->raw(), grad_out.raw(), dx.raw(), grad_out.numel());
  return dx;
}

const Tensor& Sigmoid::forward_into(const Tensor& x, TensorArena& arena) {
  Tensor& y = arena.alloc(x.shape());
  ew::sigmoid_fwd(x.raw(), y.raw(), x.numel());
  cached_output_ = &y;
  return y;
}

Tensor& Sigmoid::backward_into(const Tensor& grad_out, TensorArena& arena) {
  Tensor& dx = arena.alloc(grad_out.shape());
  ew::sigmoid_bwd(cached_output_->raw(), grad_out.raw(), dx.raw(), grad_out.numel());
  return dx;
}

const Tensor& Tanh::forward_into(const Tensor& x, TensorArena& arena) {
  Tensor& y = arena.alloc(x.shape());
  ew::tanh_fwd(x.raw(), y.raw(), x.numel());
  cached_output_ = &y;
  return y;
}

Tensor& Tanh::backward_into(const Tensor& grad_out, TensorArena& arena) {
  Tensor& dx = arena.alloc(grad_out.shape());
  ew::tanh_bwd(cached_output_->raw(), grad_out.raw(), dx.raw(), grad_out.numel());
  return dx;
}

const Tensor& SiLU::forward_into(const Tensor& x, TensorArena& arena) {
  cached_input_ = &x;
  cached_sigmoid_.ensure_shape(x.shape());
  Tensor& y = arena.alloc(x.shape());
  ew::silu_fwd(x.raw(), cached_sigmoid_.raw(), y.raw(), x.numel());
  return y;
}

Tensor& SiLU::backward_into(const Tensor& grad_out, TensorArena& arena) {
  Tensor& dx = arena.alloc(grad_out.shape());
  ew::silu_bwd(cached_sigmoid_.raw(), cached_input_->raw(), grad_out.raw(), dx.raw(),
               grad_out.numel());
  return dx;
}

}  // namespace usb
