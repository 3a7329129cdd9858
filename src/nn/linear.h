// Fully connected layer: y = x W^T + b.
#pragma once

#include "nn/layer.h"

namespace fedsparse::nn {

class Linear final : public Layer {
 public:
  Linear(std::size_t in, std::size_t out);

  std::size_t param_count() const noexcept override { return in_ * out_ + out_; }
  void bind(std::span<float> weights, std::span<float> grads) override;
  void init_params(util::Rng& rng) override;
  std::size_t out_features(std::size_t in_features) const override;
  void set_grad_enabled(bool enabled) override { grad_enabled_ = enabled; }
  void forward(const Matrix& x, Matrix& y) override;
  void backward(const Matrix& dy, Matrix& dx) override { backward_into(dy, &dx); }
  void backward_params(const Matrix& dy, Matrix&) override { backward_into(dy, nullptr); }
  std::string name() const override;

 private:
  // Parameter gradients, then dx when `dx` is non-null.
  void backward_into(const Matrix& dy, Matrix* dx);

  std::size_t in_;
  std::size_t out_;
  // Views into the model's flat vectors: W is (out x in) row-major, b follows.
  std::span<float> w_;
  std::span<float> b_;
  std::span<float> gw_;
  std::span<float> gb_;
  Matrix x_cache_;  // input copy for dW; skipped on inference-only forwards
  bool grad_enabled_ = true;
};

}  // namespace fedsparse::nn
