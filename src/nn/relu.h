// ReLU activation (elementwise max(0, x)).
//
// The backward mask is one full-width lane per element (0 or ~0u), so both
// loops compile to branch-free SIMD: the forward is a select against +0.0f
// and the backward a bitwise AND of dy with the mask. A char mask would let
// its stores alias the float buffers and leave GCC a per-element
// data-dependent branch, which mispredicts on every fresh input.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "nn/layer.h"

namespace fedsparse::nn {

class ReLU final : public Layer {
 public:
  std::size_t out_features(std::size_t in_features) const override { return in_features; }

  /// y = x > 0 ? x : +0.0f, so −0.0 and NaN map to +0.
  void forward(const Matrix& x, Matrix& y) override {
    // reshape, not resize: every element (and mask lane) is written below.
    y.reshape(x.rows(), x.cols());
    mask_.resize(x.size());
    const float* __restrict in = x.data();
    float* __restrict out = y.data();
    std::uint32_t* __restrict mask = mask_.data();
    for (std::size_t i = 0; i < x.size(); ++i) {
      const bool pos = in[i] > 0.0f;
      out[i] = pos ? in[i] : 0.0f;
      mask[i] = pos ? ~0u : 0u;
    }
  }

  /// dx = dy where the forward input was > 0, +0.0f elsewhere (the gradient
  /// at exactly 0 is 0); dy's sign bit survives on active lanes.
  void backward(const Matrix& dy, Matrix& dx) override {
    dx.reshape(dy.rows(), dy.cols());  // fully overwritten below
    const float* __restrict in = dy.data();
    float* __restrict out = dx.data();
    const std::uint32_t* __restrict mask = mask_.data();
    for (std::size_t i = 0; i < dy.size(); ++i) {
      out[i] = std::bit_cast<float>(std::bit_cast<std::uint32_t>(in[i]) & mask[i]);
    }
  }

  std::string name() const override { return "ReLU"; }

 private:
  std::vector<std::uint32_t> mask_;
};

}  // namespace fedsparse::nn
