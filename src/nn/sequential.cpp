#include "nn/sequential.h"

#include <stdexcept>

namespace fedsparse::nn {

void Sequential::add(std::unique_ptr<Layer> layer) {
  if (finalized_) throw std::logic_error("Sequential::add after finalize");
  layers_.push_back(std::move(layer));
}

void Sequential::finalize(util::Rng& rng) {
  if (finalized_) throw std::logic_error("Sequential::finalize called twice");
  if (layers_.empty()) throw std::logic_error("Sequential: no layers");
  // Validate the shape chain and count parameters.
  std::size_t features = in_features_;
  std::size_t total = 0;
  for (const auto& layer : layers_) {
    features = layer->out_features(features);
    total += layer->param_count();
  }
  out_features_ = features;
  dim_ = total;
  weights_.assign(total, 0.0f);
  grads_.assign(total, 0.0f);
  wspan_ = {weights_.data(), weights_.size()};
  std::size_t offset = 0;
  for (const auto& layer : layers_) {
    const std::size_t n = layer->param_count();
    layer->bind(wspan_.subspan(offset, n), std::span<float>(grads_.data() + offset, n));
    layer->init_params(rng);
    offset += n;
  }
  activations_.resize(layers_.size());
  finalized_ = true;
}

void Sequential::bind_weights(std::span<float> w) {
  if (!finalized_) throw std::logic_error("Sequential::bind_weights before finalize");
  if (w.size() != dim_) throw std::invalid_argument("bind_weights: dimension mismatch");
  if (w.data() == wspan_.data()) return;  // already bound here
  wspan_ = w;
  std::size_t offset = 0;
  for (const auto& layer : layers_) {
    const std::size_t n = layer->param_count();
    layer->bind(wspan_.subspan(offset, n), std::span<float>(grads_.data() + offset, n));
    offset += n;
  }
  // The owned vector is dead weight from now on; a per-thread workspace keeps
  // only grads + activations resident.
  weights_.clear();
  weights_.shrink_to_fit();
}

void Sequential::set_weights(std::span<const float> w) {
  if (w.size() != wspan_.size()) {
    throw std::invalid_argument("set_weights: dimension mismatch");
  }
  std::copy(w.begin(), w.end(), wspan_.begin());
}

void Sequential::zero_grad() noexcept { tensor::zero({grads_.data(), grads_.size()}); }

const Matrix& Sequential::run_forward(const Matrix& x, bool for_grad) {
  if (!finalized_) throw std::logic_error("Sequential: forward before finalize");
  if (x.cols() != in_features_) {
    throw std::invalid_argument("Sequential: input has " + std::to_string(x.cols()) +
                                " features, model expects " + std::to_string(in_features_));
  }
  const Matrix* in = &x;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    layers_[i]->set_grad_enabled(for_grad);
    layers_[i]->forward(*in, activations_[i]);
    in = &activations_[i];
  }
  return *in;
}

double Sequential::forward_loss_grad(const Matrix& x, std::span<const int> labels) {
  const Matrix& logits = run_forward(x, /*for_grad=*/true);
  const double loss = SoftmaxCrossEntropy::loss_and_grad(logits, labels, grad_flow_);
  for (std::size_t i = layers_.size(); i-- > 1;) {
    layers_[i]->backward(grad_flow_, next_);
    std::swap(grad_flow_, next_);
  }
  // Nothing reads the model input's gradient.
  layers_[0]->backward_params(grad_flow_, next_);
  return loss;
}

double Sequential::forward_loss(const Matrix& x, std::span<const int> labels) {
  return SoftmaxCrossEntropy::loss_only(run_forward(x, /*for_grad=*/false), labels);
}

double Sequential::accuracy(const Matrix& x, std::span<const int> labels) {
  const Matrix& logits = run_forward(x, /*for_grad=*/false);
  std::size_t correct = 0;
  for (std::size_t r = 0; r < logits.rows(); ++r) {
    const float* row = logits.row(r);
    std::size_t best = 0;
    for (std::size_t c = 1; c < logits.cols(); ++c) {
      if (row[c] > row[best]) best = c;
    }
    if (static_cast<int>(best) == labels[r]) ++correct;
  }
  return logits.rows() ? static_cast<double>(correct) / static_cast<double>(logits.rows()) : 0.0;
}

void Sequential::sgd_step(float lr) noexcept {
  for (std::size_t i = 0; i < wspan_.size(); ++i) wspan_[i] -= lr * grads_[i];
}

std::string Sequential::describe() const {
  std::string out = "Sequential[in=" + std::to_string(in_features_) + "]";
  for (const auto& layer : layers_) out += " -> " + layer->name();
  out += " (D=" + std::to_string(dim()) + ")";
  return out;
}

}  // namespace fedsparse::nn
