// Benchmark-side decorators that time calls into the library's public layer
// interfaces from the outside: nothing in the library is instrumented for
// them.
//
//  * StampedController wraps the workload's online::KController. Simulation
//    calls observe() exactly once per round (every round of the benchmark's
//    workloads has a non-empty flush), so one steady_clock stamp per observe()
//    gives per-round wall time. It also calls a hook at the two observe()s
//    that bound the timed window, where the run loop snapshots every counter.
//  * TimedMethod wraps sparsify::Method (traced run only): it forwards every
//    virtual and times round() and probe_round().
//  * TimedLayer wraps one nn::Layer (traced run only): it forwards every
//    virtual and times forward() and backward() into the calling thread's own
//    tally, so pool workers never share a counter.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "nn/layer.h"
#include "online/controller.h"
#include "sparsify/method.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

// ------------------------------------------------------------------ nn ---

enum class LayerKind : std::size_t { kLinear = 0, kReLU, kCount };

/// One thread's nn busy time and call counts. Only its owning thread writes
/// it; the run loop reads the sum while the pool is idle (between rounds).
struct NnTally {
  std::array<double, static_cast<std::size_t>(LayerKind::kCount)> fwd_ns{};
  std::array<double, static_cast<std::size_t>(LayerKind::kCount)> bwd_ns{};
  double compute_stage_ns = 0.0;  // part of the above spent in the compute stage
  std::uint64_t model_forwards = 0;   // forward() calls on a model's first layer
  std::uint64_t model_backwards = 0;  // backward() calls on a model's first layer

  double total_fwd_ns() const;
  double total_bwd_ns() const;
  NnTally& operator+=(const NnTally& o);
  NnTally operator-(const NnTally& o) const;
};

/// The calling thread's tally (registered on first use; tallies outlive their
/// threads, so a finished Simulation's pool still counts).
NnTally& thread_tally();
/// Sum over every thread's tally. Call only while no layer is running.
NnTally sum_tallies();
/// True from the round's first controller call until the server round starts:
/// the stretch of a round in which the only nn work is client compute.
extern std::atomic<bool> g_in_compute_stage;

class TimedLayer final : public fedsparse::nn::Layer {
 public:
  TimedLayer(std::unique_ptr<fedsparse::nn::Layer> inner, LayerKind kind, bool first)
      : inner_(std::move(inner)), kind_(static_cast<std::size_t>(kind)), first_(first) {}

  std::size_t param_count() const noexcept override { return inner_->param_count(); }
  void bind(std::span<float> w, std::span<float> g) override { inner_->bind(w, g); }
  void init_params(fedsparse::util::Rng& rng) override { inner_->init_params(rng); }
  std::size_t out_features(std::size_t in) const override { return inner_->out_features(in); }
  void set_grad_enabled(bool enabled) override { inner_->set_grad_enabled(enabled); }
  std::string name() const override { return inner_->name(); }

  void forward(const fedsparse::nn::Matrix& x, fedsparse::nn::Matrix& y) override {
    const auto t0 = Clock::now();
    inner_->forward(x, y);
    record(ns_between(t0, Clock::now()), /*backward=*/false);
  }
  void backward(const fedsparse::nn::Matrix& dy, fedsparse::nn::Matrix& dx) override {
    const auto t0 = Clock::now();
    inner_->backward(dy, dx);
    record(ns_between(t0, Clock::now()), /*backward=*/true);
  }

 private:
  void record(double ns, bool backward) {
    NnTally& t = thread_tally();
    (backward ? t.bwd_ns : t.fwd_ns)[kind_] += ns;
    if (g_in_compute_stage.load(std::memory_order_relaxed)) t.compute_stage_ns += ns;
    if (first_) ++(backward ? t.model_backwards : t.model_forwards);
  }

  std::unique_ptr<fedsparse::nn::Layer> inner_;
  std::size_t kind_;
  bool first_;
};

// ------------------------------------------------------------ sparsify ---

struct MethodTally {
  double round_ns = 0.0;
  double probe_ns = 0.0;
  double uplink_entries = 0.0;    // Σ per-client upload sizes of committed rounds
  double downlink_entries = 0.0;  // broadcast sizes of committed rounds
};

class TimedMethod final : public fedsparse::sparsify::Method {
 public:
  explicit TimedMethod(std::unique_ptr<fedsparse::sparsify::Method> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  bool local_update_style() const override { return inner_->local_update_style(); }
  fedsparse::sparsify::RoundOutcome round(const fedsparse::sparsify::RoundInput& in,
                                          std::size_t k) override;
  fedsparse::sparsify::RoundOutcome probe_round(const fedsparse::sparsify::RoundInput& in,
                                                std::size_t k) override;
  void set_sharding(std::size_t shards) override { inner_->set_sharding(shards); }
  void set_validation(const fedsparse::sparsify::ValidationConfig& c) override {
    inner_->set_validation(c);
  }
  void set_robust(const fedsparse::sparsify::RobustConfig& c) override { inner_->set_robust(c); }
  float upload_threshold_hint(std::size_t client_id, std::size_t k) const override {
    return inner_->upload_threshold_hint(client_id, k);
  }

  const MethodTally& tally() const noexcept { return tally_; }

 private:
  std::unique_ptr<fedsparse::sparsify::Method> inner_;
  MethodTally tally_;
};

// -------------------------------------------------------------- online ---

/// Per-round wall-clock stamps, owned by the run loop so they outlive the
/// Simulation that owns the controller.
struct RoundClock {
  std::size_t warmup = 0;  // observe() count that opens the timed window
  std::size_t rounds = 0;  // observe() count that closes it
  std::vector<Clock::time_point> stamps;  // one per observe(), in round order
  double controller_ns = 0.0;             // time inside the wrapped controller (traced)
  /// Called with 0 at the window's first stamp and 1 at its last.
  std::function<void(int)> on_window_edge;
};

class StampedController final : public fedsparse::online::KController {
 public:
  StampedController(std::unique_ptr<fedsparse::online::KController> inner, RoundClock* clock,
                    bool traced)
      : inner_(std::move(inner)), clock_(clock), traced_(traced) {}

  std::string name() const override { return inner_->name(); }
  double current_k() const override;
  double probe_k() const override;
  void observe(const fedsparse::online::RoundFeedback& fb) override;

 private:
  std::unique_ptr<fedsparse::online::KController> inner_;
  RoundClock* clock_;
  bool traced_;
};

}  // namespace perfbench
