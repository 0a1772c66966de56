#include "nn/sequential.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace usb {
namespace {

void check_range(std::int64_t begin, std::int64_t end, std::int64_t size, const char* what) {
  if (begin < 0 || end > size || begin > end) {
    throw std::out_of_range(std::string("Sequential::") + what + ": bad range");
  }
}

}  // namespace

Sequential& Sequential::add(ModulePtr layer) {
  layers_.push_back(std::move(layer));
  return *this;
}

const Tensor& Sequential::forward_range(const Tensor& x, std::int64_t begin, std::int64_t end,
                                        TensorArena& arena) {
  check_range(begin, end, size(), "forward_range");
  const Tensor* activation = &x;
  for (std::int64_t i = begin; i < end; ++i) {
    activation = &layers_[static_cast<std::size_t>(i)]->forward_into(*activation, arena);
  }
  return *activation;
}

Tensor& Sequential::backward_range(const Tensor& grad_out, std::int64_t begin, std::int64_t end,
                                   TensorArena& arena) {
  check_range(begin, end, size(), "backward_range");
  if (begin == end) {
    Tensor& dx = arena.alloc(grad_out.shape());
    std::copy(grad_out.raw(), grad_out.raw() + grad_out.numel(), dx.raw());
    return dx;
  }
  Tensor* grad = &layers_[static_cast<std::size_t>(end - 1)]->backward_into(grad_out, arena);
  for (std::int64_t i = end - 2; i >= begin; --i) {
    grad = &layers_[static_cast<std::size_t>(i)]->backward_into(*grad, arena);
  }
  return *grad;
}

void Sequential::collect_parameters(std::vector<Parameter*>& out) {
  for (const ModulePtr& layer : layers_) layer->collect_parameters(out);
}

void Sequential::collect_state(std::vector<StateTensor>& out) {
  for (const ModulePtr& layer : layers_) layer->collect_state(out);
}

void Sequential::set_training(bool training) {
  Module::set_training(training);
  for (const ModulePtr& layer : layers_) layer->set_training(training);
}

void Sequential::set_param_grads_enabled(bool enabled) {
  Module::set_param_grads_enabled(enabled);
  for (const ModulePtr& layer : layers_) layer->set_param_grads_enabled(enabled);
}

}  // namespace usb
