#include "nn/pooling.h"

#include <algorithm>

namespace usb {

const Tensor& MaxPool2d::forward_into(const Tensor& x, TensorArena& arena) {
  cached_input_shape_ = x.shape();
  Tensor& y = arena.alloc(Shape{x.dim(0), x.dim(1), spec_.out_size(x.dim(2)),
                                spec_.out_size(x.dim(3))});
  maxpool2d_forward_into(x, spec_, y, cached_argmax_);
  return y;
}

Tensor& MaxPool2d::backward_into(const Tensor& grad_out, TensorArena& arena) {
  Tensor& dx = arena.alloc(cached_input_shape_);
  maxpool2d_backward_into(grad_out, cached_argmax_, cached_input_shape_, dx);
  return dx;
}

const Tensor& AvgPool2d::forward_into(const Tensor& x, TensorArena& arena) {
  cached_input_shape_ = x.shape();
  Tensor& y = arena.alloc(Shape{x.dim(0), x.dim(1), spec_.out_size(x.dim(2)),
                                spec_.out_size(x.dim(3))});
  avgpool2d_forward_into(x, spec_, y);
  return y;
}

Tensor& AvgPool2d::backward_into(const Tensor& grad_out, TensorArena& arena) {
  Tensor& dx = arena.alloc(cached_input_shape_);
  avgpool2d_backward_into(grad_out, cached_input_shape_, spec_, dx);
  return dx;
}

const Tensor& GlobalAvgPool::forward_into(const Tensor& x, TensorArena& arena) {
  cached_input_shape_ = x.shape();
  Tensor& y = arena.alloc(Shape{x.dim(0), x.dim(1), 1, 1});
  global_avgpool_forward_into(x, y);
  return y;
}

Tensor& GlobalAvgPool::backward_into(const Tensor& grad_out, TensorArena& arena) {
  Tensor& dx = arena.alloc(cached_input_shape_);
  global_avgpool_backward_into(grad_out, cached_input_shape_, dx);
  return dx;
}

const Tensor& Flatten::forward_into(const Tensor& x, TensorArena& arena) {
  cached_input_shape_ = x.shape();
  Tensor& y = arena.alloc(Shape{x.dim(0), x.numel() / x.dim(0)});
  std::copy(x.raw(), x.raw() + x.numel(), y.raw());
  return y;
}

Tensor& Flatten::backward_into(const Tensor& grad_out, TensorArena& arena) {
  Tensor& dx = arena.alloc(cached_input_shape_);
  std::copy(grad_out.raw(), grad_out.raw() + grad_out.numel(), dx.raw());
  return dx;
}

}  // namespace usb
