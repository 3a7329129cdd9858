// Layer interface for the nn substrate.
//
// Layers operate on batches laid out as Matrix rows (batch x features). A
// layer's parameters live inside the owning Sequential's flat weight/gradient
// vectors; `bind()` hands each layer a span into those vectors. This flat
// layout is the contract the gradient-sparsification code depends on: the
// entire model is one D-dimensional vector, exactly as in the paper.
#pragma once

#include <cstddef>
#include <span>
#include <string>

#include "tensor/matrix.h"
#include "util/rng.h"

namespace fedsparse::nn {

using tensor::Matrix;

class Layer {
 public:
  virtual ~Layer() = default;

  /// Number of scalar parameters this layer contributes to the flat vector.
  virtual std::size_t param_count() const noexcept { return 0; }

  /// Receives this layer's slices of the model-wide weight/grad vectors.
  /// Called at finalize() and again on every Sequential::bind_weights() —
  /// implementations must treat it as pure span assignment (no allocation,
  /// no one-shot initialization) so the owning model can rebind its weight
  /// chain to external storage (the shared-replica engine does this per
  /// round task).
  virtual void bind(std::span<float> weights, std::span<float> grads) {
    (void)weights;
    (void)grads;
  }

  /// Writes the initial parameter values into the bound weight span.
  virtual void init_params(util::Rng& rng) { (void)rng; }

  /// Output feature count given the input feature count; also validates the
  /// input dimension (throws std::invalid_argument on mismatch).
  virtual std::size_t out_features(std::size_t in_features) const = 0;

  /// Hint from the owning model: when false, the next forward() will never
  /// be followed by backward(), so layers may skip caching backward-only
  /// state (Conv2d's batched im2col columns, Linear's input copy).
  /// Inference-heavy paths (evaluation, probe losses) pass false. Default
  /// no-op for layers whose backward state is cheap.
  virtual void set_grad_enabled(bool enabled) { (void)enabled; }

  /// Forward pass: x is (batch x in), y is resized to (batch x out).
  /// Layers cache whatever they need for backward.
  virtual void forward(const Matrix& x, Matrix& y) = 0;

  /// Backward pass: dy is (batch x out); dx is resized to (batch x in).
  /// Parameter gradients are *accumulated* into the bound grad span.
  virtual void backward(const Matrix& dy, Matrix& dx) = 0;

  /// Backward pass whose input gradient nobody reads (a model's first
  /// layer): accumulates the parameter gradients exactly as backward() does.
  /// The default runs backward() into `dx_scratch`; layers whose dx costs
  /// real work skip it.
  virtual void backward_params(const Matrix& dy, Matrix& dx_scratch) { backward(dy, dx_scratch); }

  virtual std::string name() const = 0;
};

}  // namespace fedsparse::nn
