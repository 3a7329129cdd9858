#include "nn/linear.h"

#include <cmath>
#include <stdexcept>

namespace fedsparse::nn {

Linear::Linear(std::size_t in, std::size_t out) : in_(in), out_(out) {
  if (in == 0 || out == 0) throw std::invalid_argument("Linear: zero dimension");
}

void Linear::bind(std::span<float> weights, std::span<float> grads) {
  w_ = weights.subspan(0, in_ * out_);
  b_ = weights.subspan(in_ * out_, out_);
  gw_ = grads.subspan(0, in_ * out_);
  gb_ = grads.subspan(in_ * out_, out_);
}

void Linear::init_params(util::Rng& rng) {
  // He initialization: suits the ReLU networks used throughout.
  const float std = std::sqrt(2.0f / static_cast<float>(in_));
  for (auto& v : w_) v = static_cast<float>(rng.normal(0.0, std));
  for (auto& v : b_) v = 0.0f;
}

std::size_t Linear::out_features(std::size_t in_features) const {
  if (in_features != in_) {
    throw std::invalid_argument("Linear: expected " + std::to_string(in_) + " inputs, got " +
                                std::to_string(in_features));
  }
  return out_;
}

void Linear::forward(const Matrix& x, Matrix& y) {
  if (grad_enabled_) x_cache_ = x;
  const std::size_t batch = x.rows();
  // reshape, not resize: every element is written by the bias fill before the
  // GEMM accumulates into it, so the O(batch*out) clear would be pure waste.
  y.reshape(batch, out_);
  for (std::size_t r = 0; r < batch; ++r) {
    float* yr = y.row(r);
    for (std::size_t o = 0; o < out_; ++o) yr[o] = b_[o];
  }
  // y += x · Wᵀ through the blocked dot-product kernel; W viewed in place.
  tensor::gemm_nt(x, tensor::ConstMatrixView(w_, out_, in_), 1.0f, y);
}

void Linear::backward_into(const Matrix& dy, Matrix* dx) {
  const std::size_t batch = dy.rows();
  if (x_cache_.rows() != batch) {
    throw std::logic_error("Linear::backward: no cached forward for this batch");
  }
  // dW += dyᵀ · x via the tiled kernel; db += column sums of dy.
  tensor::gemm_tn(dy, x_cache_, 1.0f, tensor::MatrixView(gw_, out_, in_));
  for (std::size_t r = 0; r < batch; ++r) {
    const float* dyr = dy.row(r);
    for (std::size_t o = 0; o < out_; ++o) gb_[o] += dyr[o];
  }
  if (dx == nullptr) return;
  // dx = dy · W: the view API accumulates, so clear once after the reshape.
  dx->reshape(batch, in_);
  tensor::zero(dx->flat());
  tensor::gemm_nn(dy, tensor::ConstMatrixView(w_, out_, in_), 1.0f, *dx);
}

std::string Linear::name() const {
  return "Linear(" + std::to_string(in_) + "->" + std::to_string(out_) + ")";
}

}  // namespace fedsparse::nn
