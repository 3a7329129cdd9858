// Federated client state: local dataset, accumulated gradient, optional local
// weights, and the one-sample probe losses of the derivative-sign estimator
// (Sec. IV-E).
//
// A client does NOT own a model replica. Algorithm 1 keeps every client at
// the same global weights w(m), so the simulation keeps ONE shared weight
// vector and a small pool of per-thread model workspaces (nn::Sequential
// instances whose weight chain is rebound via bind_weights). Every compute
// entry point below borrows such a workspace, already bound to the weights
// this client should see: the shared store, or — for FedAvg-style methods,
// whose local weights diverge between aggregations — this client's own
// `local weights`.
#pragma once

#include <cstdint>
#include <vector>

#include "data/dataset.h"
#include "data/minibatch.h"
#include "nn/models.h"
#include "sparsify/accumulator.h"
#include "util/rng.h"

namespace fedsparse::fl {

class Client {
 public:
  Client(std::size_t id, data::Dataset dataset, std::size_t dim, std::uint64_t seed);

  std::size_t id() const noexcept { return id_; }
  std::size_t num_samples() const noexcept { return dataset_.size(); }
  const data::Dataset& dataset() const noexcept { return dataset_; }
  std::size_t dim() const noexcept { return accumulator_.dim(); }

  // --- local weight ownership ----------------------------------------------

  /// Gives this client its own copy of the weights (FedAvg-style methods).
  /// Shared-store clients never call this and hold no weight memory at all.
  void allocate_weights(std::span<const float> init);
  bool owns_weights() const noexcept { return !weights_.empty(); }
  std::span<float> weights() noexcept { return {weights_.data(), weights_.size()}; }
  std::span<const float> weights() const noexcept { return {weights_.data(), weights_.size()}; }
  void set_weights(std::span<const float> w);

  // --- accumulated gradient ------------------------------------------------

  /// The chunk-tiered accumulated gradient a_i. Round-path consumers read
  /// values AND chunk summaries through it (sparsify::GradientAccumulator)
  /// rather than a raw span, so selection scans can prune clean chunks —
  /// an idle client that missed rounds keeps only its dirty chunks hot.
  /// Mutations (add / reset) go through the same object, keeping the
  /// summaries consistent by construction.
  sparsify::GradientAccumulator& accumulator() noexcept { return accumulator_; }
  const sparsify::GradientAccumulator& accumulator() const noexcept { return accumulator_; }

  // --- round computation (all take a borrowed, already-bound workspace) ----

  /// One local round (Line 4 of Algorithm 1): sample a minibatch at the
  /// current weights w(m−1), compute the gradient, add it to the accumulated
  /// gradient a_i, pick the probe sample h and record f_{i,h}(w(m−1)).
  /// Returns the minibatch training loss.
  double compute_round_gradient(nn::Sequential& model, std::size_t round, std::size_t batch);

  /// FedAvg-style round: compute the minibatch gradient and immediately apply
  /// it to the bound weights (the client's own vector; no accumulator).
  double local_update(nn::Sequential& model, std::size_t round, std::size_t batch, float lr);

  // --- probe losses (Section IV-E) -----------------------------------------

  /// f_{i,h}(w(m−1)), recorded during compute_round_gradient.
  double probe_loss_prev() const noexcept { return probe_loss_prev_; }

  /// f_{i,h} at the weights the workspace is currently bound to.
  double probe_loss_now(nn::Sequential& model);

  // --- realized traffic & participation (network-model bookkeeping) --------

  /// Records one server round this client participated in: its own uplink
  /// payload and the broadcast downlink it received, in timing-model values.
  void note_round(double uplink_values, double downlink_values) noexcept {
    ++rounds_participated_;
    uplink_values_total_ += uplink_values;
    downlink_values_total_ += downlink_values;
  }

  /// Records a broadcast this client received without participating (online
  /// but unsampled clients still listen so their weights stay synchronized).
  void note_broadcast(double downlink_values) noexcept {
    downlink_values_total_ += downlink_values;
  }
  std::size_t rounds_participated() const noexcept { return rounds_participated_; }
  double uplink_values_total() const noexcept { return uplink_values_total_; }
  double downlink_values_total() const noexcept { return downlink_values_total_; }

 private:
  std::size_t id_;
  data::Dataset dataset_;
  std::vector<float> weights_;  // empty unless this client owns its weights
  sparsify::GradientAccumulator accumulator_;
  util::Rng rng_;

  // Probe sample h (one row) for the current round.
  tensor::Matrix probe_x_;
  std::vector<int> probe_y_;
  double probe_loss_prev_ = 0.0;

  // Realized traffic over the run (values; ×4 for bytes).
  std::size_t rounds_participated_ = 0;
  double uplink_values_total_ = 0.0;
  double downlink_values_total_ = 0.0;
};

}  // namespace fedsparse::fl
