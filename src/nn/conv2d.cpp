#include "nn/conv2d.h"

#include <cmath>
#include <stdexcept>

namespace fedsparse::nn {

Conv2d::Conv2d(std::size_t in_channels, std::size_t height, std::size_t width,
               std::size_t out_channels, std::size_t ksize, std::size_t stride, std::size_t pad)
    : out_channels_(out_channels) {
  geom_.channels = in_channels;
  geom_.height = height;
  geom_.width = width;
  geom_.ksize = ksize;
  geom_.stride = stride;
  geom_.pad = pad;
  if (height + 2 * pad < ksize || width + 2 * pad < ksize) {
    throw std::invalid_argument("Conv2d: kernel larger than padded input");
  }
}

void Conv2d::bind(std::span<float> weights, std::span<float> grads) {
  const std::size_t wsize = out_channels_ * geom_.col_rows();
  w_ = weights.subspan(0, wsize);
  b_ = weights.subspan(wsize, out_channels_);
  gw_ = grads.subspan(0, wsize);
  gb_ = grads.subspan(wsize, out_channels_);
}

void Conv2d::init_params(util::Rng& rng) {
  const float std = std::sqrt(2.0f / static_cast<float>(geom_.col_rows()));
  for (auto& v : w_) v = static_cast<float>(rng.normal(0.0, std));
  for (auto& v : b_) v = 0.0f;
}

std::size_t Conv2d::out_features(std::size_t in_features) const {
  if (in_features != geom_.image_size()) {
    throw std::invalid_argument("Conv2d: expected " + std::to_string(geom_.image_size()) +
                                " inputs, got " + std::to_string(in_features));
  }
  return out_channels_ * geom_.col_cols();
}

void Conv2d::forward(const Matrix& x, Matrix& y) {
  const std::size_t batch = x.rows();
  const std::size_t spatial = geom_.col_cols();  // outH*outW
  const std::size_t ckk = geom_.col_rows();
  y.reshape(batch, out_channels_ * spatial);        // fully overwritten below
  // Grad-enabled: one cache row-region per sample, read back by backward.
  // Inference: a single scratch region, so eval-sized batches never pay
  // batch x ckk x spatial memory for columns nobody will read again.
  cols_cache_.reshape(grad_enabled_ ? batch : 1, ckk * spatial);
  const tensor::ConstMatrixView w(w_, out_channels_, ckk);
  for (std::size_t s = 0; s < batch; ++s) {
    const tensor::MatrixView cols(cols_cache_.row(grad_enabled_ ? s : 0), ckk, spatial);
    tensor::im2col(x.row(s), geom_, cols);
    // y_sample = W · cols + b: the bias fill overwrites every element, then
    // one blocked GEMM accumulates the (outC x ckk) · (ckk x spatial) product.
    tensor::MatrixView ys(y.row(s), out_channels_, spatial);
    for (std::size_t o = 0; o < out_channels_; ++o) {
      float* yrow = ys.row(o);
      for (std::size_t p = 0; p < spatial; ++p) yrow[p] = b_[o];
    }
    tensor::gemm_nn(w, cols, 1.0f, ys);
  }
}

void Conv2d::backward_into(const Matrix& dy, Matrix* dx) {
  const std::size_t batch = dy.rows();
  const std::size_t spatial = geom_.col_cols();
  const std::size_t ckk = geom_.col_rows();
  if (cols_cache_.rows() != batch || cols_cache_.cols() != ckk * spatial) {
    throw std::logic_error("Conv2d::backward: no cached forward for this batch");
  }
  if (dx != nullptr) {
    dx->reshape(batch, geom_.image_size());
    tensor::zero(dx->flat());
  }
  const tensor::ConstMatrixView w(w_, out_channels_, ckk);
  const tensor::MatrixView gw(gw_, out_channels_, ckk);
  for (std::size_t s = 0; s < batch; ++s) {
    const tensor::ConstMatrixView cols(cols_cache_.row(s), ckk, spatial);
    const tensor::ConstMatrixView dys(dy.row(s), out_channels_, spatial);
    // db(o) += sum_p dy(o, p), accumulated in double as before.
    for (std::size_t o = 0; o < out_channels_; ++o) {
      const float* dyrow = dys.row(o);
      double bsum = 0.0;
      for (std::size_t p = 0; p < spatial; ++p) bsum += dyrow[p];
      gb_[o] += static_cast<float>(bsum);
    }
    // dW += dy · colsᵀ (rows-dot-rows over the shared spatial axis).
    tensor::gemm_nt(dys, cols, 1.0f, gw);
    if (dx == nullptr) continue;
    // dcols = Wᵀ · dy; then scatter back to image space.
    dcols_.reshape(ckk, spatial);
    tensor::zero(dcols_.flat());
    tensor::gemm_tn(w, dys, 1.0f, dcols_);
    tensor::col2im(dcols_, geom_, dx->row(s));
  }
}

std::string Conv2d::name() const {
  return "Conv2d(" + std::to_string(geom_.channels) + "x" + std::to_string(geom_.height) + "x" +
         std::to_string(geom_.width) + " -> " + std::to_string(out_channels_) + ", k=" +
         std::to_string(geom_.ksize) + ")";
}

}  // namespace fedsparse::nn
