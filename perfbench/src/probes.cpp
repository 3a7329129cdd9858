#include "probes.h"

#include <deque>
#include <mutex>

namespace perfbench {

std::atomic<bool> g_in_compute_stage{false};

namespace {

// Tallies live in a process-wide deque (stable addresses) so they outlive the
// pool threads that wrote them; registration is the only locked step.
std::mutex g_tally_mutex;
std::deque<NnTally> g_tallies;

}  // namespace

double NnTally::total_fwd_ns() const {
  double s = 0.0;
  for (double v : fwd_ns) s += v;
  return s;
}

double NnTally::total_bwd_ns() const {
  double s = 0.0;
  for (double v : bwd_ns) s += v;
  return s;
}

NnTally& NnTally::operator+=(const NnTally& o) {
  for (std::size_t i = 0; i < fwd_ns.size(); ++i) {
    fwd_ns[i] += o.fwd_ns[i];
    bwd_ns[i] += o.bwd_ns[i];
  }
  compute_stage_ns += o.compute_stage_ns;
  model_forwards += o.model_forwards;
  model_backwards += o.model_backwards;
  return *this;
}

NnTally NnTally::operator-(const NnTally& o) const {
  NnTally d = *this;
  for (std::size_t i = 0; i < fwd_ns.size(); ++i) {
    d.fwd_ns[i] -= o.fwd_ns[i];
    d.bwd_ns[i] -= o.bwd_ns[i];
  }
  d.compute_stage_ns -= o.compute_stage_ns;
  d.model_forwards -= o.model_forwards;
  d.model_backwards -= o.model_backwards;
  return d;
}

NnTally& thread_tally() {
  thread_local NnTally* mine = [] {
    const std::lock_guard<std::mutex> lock(g_tally_mutex);
    return &g_tallies.emplace_back();
  }();
  return *mine;
}

NnTally sum_tallies() {
  const std::lock_guard<std::mutex> lock(g_tally_mutex);
  NnTally sum;
  for (const NnTally& t : g_tallies) sum += t;
  return sum;
}

fedsparse::sparsify::RoundOutcome TimedMethod::round(const fedsparse::sparsify::RoundInput& in,
                                                     std::size_t k) {
  g_in_compute_stage.store(false, std::memory_order_relaxed);
  const auto t0 = Clock::now();
  fedsparse::sparsify::RoundOutcome out = inner_->round(in, k);
  tally_.round_ns += ns_between(t0, Clock::now());
  // An (index, value) pair is 2 values on the wire (method.h).
  for (std::size_t s = 0; s < in.client_vectors.size(); ++s) {
    tally_.uplink_entries += out.client_uplink(s) / 2.0;
  }
  tally_.downlink_entries += out.downlink_values / 2.0;
  return out;
}

fedsparse::sparsify::RoundOutcome TimedMethod::probe_round(
    const fedsparse::sparsify::RoundInput& in, std::size_t k) {
  const auto t0 = Clock::now();
  fedsparse::sparsify::RoundOutcome out = inner_->probe_round(in, k);
  tally_.probe_ns += ns_between(t0, Clock::now());
  return out;
}

double StampedController::current_k() const {
  if (!traced_) return inner_->current_k();
  // stage_begin asks for k first; client compute follows before the server
  // round (TimedMethod::round clears the flag).
  g_in_compute_stage.store(true, std::memory_order_relaxed);
  const auto t0 = Clock::now();
  const double k = inner_->current_k();
  clock_->controller_ns += ns_between(t0, Clock::now());
  return k;
}

double StampedController::probe_k() const {
  if (!traced_) return inner_->probe_k();
  const auto t0 = Clock::now();
  const double k = inner_->probe_k();
  clock_->controller_ns += ns_between(t0, Clock::now());
  return k;
}

void StampedController::observe(const fedsparse::online::RoundFeedback& fb) {
  clock_->stamps.push_back(Clock::now());
  const std::size_t n = clock_->stamps.size();
  if (clock_->on_window_edge && (n == clock_->warmup || n == clock_->rounds)) {
    clock_->on_window_edge(n == clock_->warmup ? 0 : 1);
  }
  if (!traced_) {
    inner_->observe(fb);
    return;
  }
  const auto t0 = Clock::now();
  inner_->observe(fb);
  clock_->controller_ns += ns_between(t0, Clock::now());
}

}  // namespace perfbench
