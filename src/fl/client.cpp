#include "fl/client.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace fedsparse::fl {

Client::Client(std::size_t id, data::Dataset dataset, std::size_t dim, std::uint64_t seed)
    : id_(id),
      dataset_(std::move(dataset)),
      accumulator_(dim),
      rng_(seed),
      probe_x_(1, 1) {
  if (dataset_.empty()) {
    throw std::invalid_argument("Client " + std::to_string(id) + ": empty dataset");
  }
  if (dim == 0) {
    throw std::invalid_argument("Client " + std::to_string(id) + ": zero model dimension");
  }
  probe_x_.resize(1, dataset_.feature_dim());
  probe_y_.assign(1, 0);
}

void Client::allocate_weights(std::span<const float> init) {
  if (init.size() != dim()) {
    throw std::invalid_argument("allocate_weights: dimension mismatch");
  }
  weights_.assign(init.begin(), init.end());
}

void Client::set_weights(std::span<const float> w) {
  if (w.size() != weights_.size()) {
    throw std::invalid_argument("set_weights: dimension mismatch");
  }
  std::copy(w.begin(), w.end(), weights_.begin());
}

namespace {
// The executing thread's minibatch scratch: a client runs on one thread at a
// time, and per-thread (not per-client) storage keeps a large fleet from
// holding one batch copy per client.
data::Minibatch& minibatch_scratch() {
  thread_local data::Minibatch mb;
  return mb;
}
}  // namespace

double Client::compute_round_gradient(nn::Sequential& model, std::size_t round,
                                      std::size_t batch) {
  util::Rng round_rng = rng_.split(0x1000 + round);
  data::Minibatch& mb = minibatch_scratch();
  data::sample_minibatch(dataset_, batch, round_rng, mb);

  // Probe sample h: one random member of this minibatch (Section IV-E).
  const std::size_t h = round_rng.uniform_u64(mb.indices.size());
  std::memcpy(probe_x_.row(0), mb.x.row(h), mb.x.cols() * sizeof(float));
  probe_y_[0] = mb.y[h];
  probe_loss_prev_ = model.forward_loss(probe_x_, probe_y_);  // f_{i,h}(w(m−1))

  model.zero_grad();
  const double loss = model.forward_loss_grad(mb.x, mb.y);
  accumulator_.add(model.grad());
  return loss;
}

double Client::local_update(nn::Sequential& model, std::size_t round, std::size_t batch,
                            float lr) {
  util::Rng round_rng = rng_.split(0x1000 + round);
  data::Minibatch& mb = minibatch_scratch();
  data::sample_minibatch(dataset_, batch, round_rng, mb);
  model.zero_grad();
  const double loss = model.forward_loss_grad(mb.x, mb.y);
  model.sgd_step(lr);
  return loss;
}

double Client::probe_loss_now(nn::Sequential& model) {
  return model.forward_loss(probe_x_, probe_y_);
}

}  // namespace fedsparse::fl
