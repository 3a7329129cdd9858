// 2D convolution lowered to GEMM via im2col.
//
// Input batches are flat rows of length in_channels*height*width; the layer
// carries the spatial geometry itself (networks are static graphs here).
#pragma once

#include "nn/layer.h"
#include "tensor/im2col.h"

namespace fedsparse::nn {

class Conv2d final : public Layer {
 public:
  Conv2d(std::size_t in_channels, std::size_t height, std::size_t width, std::size_t out_channels,
         std::size_t ksize, std::size_t stride = 1, std::size_t pad = 0);

  std::size_t param_count() const noexcept override {
    return out_channels_ * geom_.col_rows() + out_channels_;
  }
  void bind(std::span<float> weights, std::span<float> grads) override;
  void init_params(util::Rng& rng) override;
  std::size_t out_features(std::size_t in_features) const override;
  void set_grad_enabled(bool enabled) override { grad_enabled_ = enabled; }
  void forward(const Matrix& x, Matrix& y) override;
  void backward(const Matrix& dy, Matrix& dx) override { backward_into(dy, &dx); }
  void backward_params(const Matrix& dy, Matrix&) override { backward_into(dy, nullptr); }
  std::string name() const override;

  std::size_t out_channels() const noexcept { return out_channels_; }
  const tensor::ConvGeometry& geometry() const noexcept { return geom_; }

 private:
  // Parameter gradients, then dx when `dx` is non-null.
  void backward_into(const Matrix& dy, Matrix* dx);

  tensor::ConvGeometry geom_;
  std::size_t out_channels_;
  std::span<float> w_;   // (out_channels x C*k*k) row-major
  std::span<float> b_;   // (out_channels)
  std::span<float> gw_;
  std::span<float> gb_;
  // Batched im2col cache (batch x ckk*spatial): a grad-enabled forward
  // lowers every sample once and backward reads the same columns instead of
  // re-running the im2col scatter per sample — the classic memory-for-time
  // trade. The cache is the only copy of the input batch backward needs.
  // Inference-only forwards (grad_enabled_ false) reuse row 0 as a
  // single-sample scratch so evaluation batches never materialize the cache.
  Matrix cols_cache_;
  bool grad_enabled_ = true;
  Matrix dcols_;     // scratch
};

}  // namespace fedsparse::nn
