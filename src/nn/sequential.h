// Sequential model with a flat D-dimensional parameter vector.
//
// The flat `weights()` / `grad()` views are the contract with the
// sparsification code: the paper's gradient vector ∇L(w, i) is exactly
// `grad()` after `forward_loss_grad`.
//
// Weight storage is *rebindable*: after finalize() the model owns its weight
// vector, but bind_weights() can point the whole parameter chain at external
// storage instead (the federated engine's shared global weight store, or one
// client's local vector). Gradients and activations always stay owned by the
// instance, which is what makes one Sequential per *thread* — rather than one
// per client — sufficient for the synchronized round engine.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "nn/layer.h"
#include "nn/loss.h"
#include "tensor/matrix.h"
#include "util/rng.h"

namespace fedsparse::nn {

class Sequential {
 public:
  /// `in_features` is the flat input dimension (e.g. C*H*W for images).
  explicit Sequential(std::size_t in_features) : in_features_(in_features) {}

  Sequential(const Sequential&) = delete;
  Sequential& operator=(const Sequential&) = delete;

  /// Appends a layer; only valid before finalize().
  void add(std::unique_ptr<Layer> layer);

  /// Allocates the flat weight/grad vectors, binds layers, initializes
  /// parameters. Must be called exactly once before any forward pass.
  void finalize(util::Rng& rng);

  bool finalized() const noexcept { return finalized_; }
  std::size_t dim() const noexcept { return dim_; }
  std::size_t in_features() const noexcept { return in_features_; }
  std::size_t num_classes() const noexcept { return out_features_; }

  std::span<float> weights() noexcept { return wspan_; }
  std::span<const float> weights() const noexcept { return wspan_; }
  std::span<const float> grad() const noexcept { return {grads_.data(), grads_.size()}; }

  /// Points the parameter chain at external storage of exactly dim() floats:
  /// every layer's weight span is re-derived from `w` while its grad span is
  /// untouched. The previously owned weight vector (if any) is released, so a
  /// workspace bound to a shared store holds no weight memory of its own.
  /// Cheap (O(#layers)) and idempotent — the round engine rebinds per task.
  void bind_weights(std::span<float> w);

  /// True when weights() aliases storage this instance does not own.
  bool weights_bound_externally() const noexcept {
    return finalized_ && wspan_.data() != weights_.data();
  }

  void set_weights(std::span<const float> w);
  void zero_grad() noexcept;

  /// Forward + loss + backward. The mean-batch gradient is *accumulated* into
  /// grad() (callers normally zero_grad() first). Returns the mean loss.
  double forward_loss_grad(const Matrix& x, std::span<const int> labels);

  /// Forward + loss only (no gradient). Usable concurrently from one thread
  /// per model instance.
  double forward_loss(const Matrix& x, std::span<const int> labels);

  /// Fraction of rows whose argmax logit equals the label.
  double accuracy(const Matrix& x, std::span<const int> labels);

  /// Dense SGD step: w -= lr * grad().
  void sgd_step(float lr) noexcept;

  std::string describe() const;

 private:
  /// `for_grad` tells layers whether backward() will follow, so inference
  /// paths (evaluation, probe losses) skip backward-only caches.
  /// Returns the logits, which live in activations_.back().
  const Matrix& run_forward(const Matrix& x, bool for_grad);

  std::size_t in_features_;
  std::size_t out_features_ = 0;
  std::size_t dim_ = 0;
  bool finalized_ = false;
  std::vector<std::unique_ptr<Layer>> layers_;
  std::vector<float> weights_;       // owned storage; empty once bound externally
  std::span<float> wspan_;           // active weight storage (owned or external)
  std::vector<float> grads_;
  // Scratch reused across calls, so a warmed-up step allocates nothing:
  // activations_[i] is layer i's output; grad_flow_/next_ carry the backward
  // pass's gradient between layers.
  std::vector<Matrix> activations_;
  Matrix grad_flow_;
  Matrix next_;
};

}  // namespace fedsparse::nn
