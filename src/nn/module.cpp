#include "nn/module.h"

#include <algorithm>

namespace usb {

Module::Frame& Module::frame() {
  if (frame_ == nullptr) frame_ = std::make_unique<Frame>();
  return *frame_;
}

Tensor Module::forward(const Tensor& x) {
  Frame& f = frame();
  f.arena.reset();
  f.input.ensure_shape(x.shape());
  std::copy(x.raw(), x.raw() + x.numel(), f.input.raw());
  return forward_into(f.input, f.arena);
}

Tensor Module::backward(const Tensor& grad_out) {
  Frame& f = frame();
  const TensorArena::Scope scope(f.arena);
  return backward_into(grad_out, f.arena);
}

}  // namespace usb
