// Network & device model: the paper's Section V timing model, per-client
// rate profiles, rate fluctuation, and Markov on/off availability.
//
// The paper normalizes time so that one round of computation costs 1 and
// exchanging the full D-dimensional gradient (uplink plus downlink) costs β;
// sending V values costs β·V/(2D), one index/value pair counting as 2 values.
// Real cross-device deployments add per-client links and devices that drop
// off the network, so NetworkModel prices every round with one formula:
//
//        τ_m = max_{i ∈ participants} compute_i + β·(v_i/up_i + d/down_min)/(2D)
//
//  * ClientProfile — uplink/downlink bandwidth multipliers (1 = the nominal β
//    link; 0.1 = ten times slower) and a compute-time multiplier.
//  * Fluctuation — per-round log-normal jitter on both link rates, and a
//    two-state Markov availability chain (on→off with p_drop, off→on with
//    p_recover). Both draw from a dedicated util::Rng stream, sequentially
//    over clients inside begin_round(), so realizations are reproducible and
//    independent of thread count.
//  * v_i is participant i's own upload and d the broadcast, which waits on
//    the slowest participating downlink. The client that binds the round is
//    the one whose compute PLUS its own payload over its own link finishes
//    last, not necessarily the one with the largest payload.
//
// With every profile at its default (all rates 1) the divisions are exact and
// τ_m is the paper's compute + β·(2·max_i|J_i| + d)/(2D): a k-element
// bidirectional round costs θ(k) = 1 + 2βk/D, send-all costs 1 + β, and
// FedAvg syncing every ⌊D/(2k)⌋ rounds averages to the same communication
// per round — the paper's matched-budget setup (pinned by tests/fl_test.cpp).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "fl/faults.h"
#include "sparsify/robust.h"
#include "util/rng.h"

namespace fedsparse::fl {

/// Static per-client device/link characteristics. Rates are bandwidth
/// multipliers relative to the nominal β link: transmitting V values takes
/// β·V/(2D) / rate. compute_multiplier scales the nominal compute time.
struct ClientProfile {
  double uplink_rate = 1.0;
  double downlink_rate = 1.0;
  double compute_multiplier = 1.0;
};

/// Full description of a client population. Default-constructed it describes
/// the paper's homogeneous world: every client on the nominal link, always
/// available.
struct NetworkConfig {
  /// One profile per client; empty means "every client is default".
  std::vector<ClientProfile> profiles;

  /// Log-normal per-round jitter on link rates: realized rate =
  /// base · exp(N(0, σ)), redrawn per (client, round). 0 disables.
  double rate_jitter_sigma = 0.0;

  /// Markov availability chain, advanced once per round per client:
  /// P(on→off) = p_drop, P(off→on) = p_recover. Initial states are drawn from
  /// the stationary distribution π_on = p_recover / (p_drop + p_recover).
  /// p_drop = 0 keeps every client always available.
  double p_drop = 0.0;
  double p_recover = 1.0;
};

/// What one synchronized round cost and who bound it. slowest_client is -1
/// when no one straggled: rounds with no participants, and rounds where every
/// participant finished at the same instant. Ties within the slowest group
/// alone name its lowest-slot member.
struct RoundTiming {
  double time = 0.0;                 // τ_m
  std::int64_t slowest_client = -1;  // client id of the binding straggler
};

class NetworkModel {
 public:
  /// The paper's defaults (β = 10, compute 1) over D = 1 and no clients.
  NetworkModel() = default;

  /// `comm_time` is β, `compute_time` the nominal per-round compute and `dim`
  /// the model dimension D (> 0). `cfg.profiles` must be empty or have
  /// exactly `num_clients` entries. `seed` feeds the fluctuation stream
  /// (jitter + availability chain).
  NetworkModel(double comm_time, double compute_time, std::size_t dim, NetworkConfig cfg,
               std::size_t num_clients, std::uint64_t seed);

  std::size_t num_clients() const noexcept { return n_; }
  bool has_churn() const noexcept { return cfg_.p_drop > 0.0; }

  /// Advances the fluctuation state to round m (1-based): redraws jitter
  /// multipliers and steps the availability chain once per client. Rounds
  /// must be visited in order; calling it twice for the same round re-draws.
  void begin_round(std::size_t round);

  /// Availability of client i in the current round.
  bool available(std::size_t i) const;

  /// Clients available / offline this round, ascending ids, maintained
  /// incrementally inside begin_round's per-client transition pass. The
  /// simulation iterates these instead of filtering 0..N-1 itself, so the
  /// per-round cost of availability bookkeeping sits in the one pass that
  /// already touches every chain state — and without churn the online list
  /// is the identity (built once) and offline is empty.
  std::span<const std::size_t> online_ids() const noexcept {
    return {online_ids_.data(), online_ids_.size()};
  }
  std::span<const std::size_t> offline_ids() const noexcept {
    return {offline_ids_.data(), offline_ids_.size()};
  }

  /// Realized (jittered) rates and compute time of client i this round.
  double uplink_rate(std::size_t i) const;
  double downlink_rate(std::size_t i) const;
  double compute_time(std::size_t i) const;

  /// When client i's upload of `values` payload values reaches the server:
  /// the round formula for client i alone with no broadcast (d = 0).
  double arrival_time(std::size_t i, double values) const;

  /// τ_m over the participating clients. `uplink_values_per_slot` is aligned
  /// with `ids` (slot s belongs to client ids[s]); `downlink_values` is the
  /// broadcast payload. Empty `ids` costs one idle nominal compute round.
  RoundTiming round_time(std::span<const std::size_t> ids,
                         std::span<const double> uplink_values_per_slot,
                         double downlink_values) const;

  /// θ_m(k): the time of a hypothetical k-element bidirectional round over
  /// the given participants at the current realized rates — round_time with
  /// every v_i = d = 2k (continuous k allowed: the derivative-sign
  /// estimator extrapolates τ̂ with it). With no participants it is the
  /// nominal client's θ(k) = compute + 2βk/D.
  double theta(double k, std::span<const std::size_t> ids) const;

 private:
  /// The round formula; `uplink(s)` gives slot s's upload in values.
  template <class Uplink>
  RoundTiming time_round(std::span<const std::size_t> ids, Uplink uplink,
                         double downlink_values) const;

  double comm_time_ = 10.0;  // β
  double compute_time_ = 1.0;
  double two_dim_ = 2.0;     // 2D
  NetworkConfig cfg_{};
  std::size_t n_ = 0;
  util::Rng rng_{1};
  void rebuild_availability_lists();

  std::vector<ClientProfile> realized_;  // per-round jittered profiles
  std::vector<std::uint8_t> on_;         // availability states
  std::vector<std::size_t> online_ids_;  // ascending; identity when no churn
  std::vector<std::size_t> offline_ids_;
};

// ---------------------------------------------------------------- scenarios

/// A named preset: network shape plus the money term that gives the
/// scenario its objective (e.g. metered WAN charges money per value).
/// Apply to a SimulationConfig with fl::apply_scenario (simulation.h).
struct Scenario {
  std::string name;
  std::string description;
  NetworkConfig network;
  /// SimulationConfig money-term override: the cost of one transmitted
  /// value in units of simulated time; 0 keeps the pure-time objective.
  double money_per_value = 0.0;
  /// Fault injection (fl/faults.h); trivial by default. apply_scenario also
  /// enables server-side upload screening when this is non-trivial.
  FaultConfig faults;
  /// Robust aggregation (sparsify/robust.h); disabled by default. A scenario
  /// that ships Byzantine adversaries pairs them with a robust reduce here.
  sparsify::RobustConfig robust;
};

/// Registry names: "uniform", "bimodal", "longtail_mobile", "metered_wan",
/// "churn_heavy" (long-tail links, aggressive Markov off-rate — most clients
/// offline per round, the regime the tiered accumulators' dirty-chunk
/// pruning targets), "faulty_wan" (metered WAN links plus upload drops and
/// payload corruption — the fault-injection + screening regime),
/// "byzantine_mix" (long-tail mobile links with a 20% colluding sign-flip
/// cohort, defended by trimmed-mean robust aggregation).
std::vector<std::string> scenario_names();

/// Builds the preset for an n-client population. `seed` shapes the sampled
/// profiles (long-tail draws, bimodal assignment); the same (name, n, seed)
/// always yields the same scenario. Throws std::invalid_argument for unknown
/// names.
Scenario make_scenario(const std::string& name, std::size_t n, std::uint64_t seed = 1);

}  // namespace fedsparse::fl
