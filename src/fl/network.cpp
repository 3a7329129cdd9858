#include "fl/network.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/stats.h"

namespace fedsparse::fl {

NetworkModel::NetworkModel(double comm_time, double compute_time, std::size_t dim,
                           NetworkConfig cfg, std::size_t num_clients, std::uint64_t seed)
    : comm_time_(comm_time),
      compute_time_(compute_time),
      two_dim_(2.0 * static_cast<double>(dim)),
      cfg_(std::move(cfg)),
      n_(num_clients),
      rng_(seed ^ 0x4E7F10CULL) {
  if (dim == 0) throw std::invalid_argument("NetworkModel: dim == 0");
  if (!cfg_.profiles.empty() && cfg_.profiles.size() != n_) {
    throw std::invalid_argument("NetworkModel: profiles must be empty or one per client");
  }
  for (const auto& p : cfg_.profiles) {
    if (p.uplink_rate <= 0.0 || p.downlink_rate <= 0.0 || p.compute_multiplier <= 0.0) {
      throw std::invalid_argument("NetworkModel: profile rates must be positive");
    }
  }
  if (cfg_.rate_jitter_sigma < 0.0) {
    throw std::invalid_argument("NetworkModel: rate_jitter_sigma must be >= 0");
  }
  if (cfg_.p_drop < 0.0 || cfg_.p_drop > 1.0 || cfg_.p_recover < 0.0 || cfg_.p_recover > 1.0) {
    throw std::invalid_argument("NetworkModel: Markov probabilities must be in [0, 1]");
  }
  if (cfg_.p_drop > 0.0 && cfg_.p_recover == 0.0) {
    throw std::invalid_argument("NetworkModel: p_recover = 0 with churn strands every client");
  }
  if (cfg_.profiles.empty()) cfg_.profiles.assign(n_, ClientProfile{});
  realized_ = cfg_.profiles;

  // Initial availability from the stationary distribution, so the first
  // rounds behave like the long-run chain instead of starting all-on.
  on_.assign(n_, 1);
  if (cfg_.p_drop > 0.0) {
    const double pi_on = cfg_.p_recover / (cfg_.p_drop + cfg_.p_recover);
    for (auto& s : on_) s = rng_.bernoulli(pi_on) ? 1 : 0;
  }
  rebuild_availability_lists();
}

void NetworkModel::rebuild_availability_lists() {
  online_ids_.clear();
  offline_ids_.clear();
  online_ids_.reserve(n_);
  if (!has_churn()) {
    // Identity list, built once: without churn every client is always on and
    // begin_round never has to touch the lists again.
    for (std::size_t i = 0; i < n_; ++i) online_ids_.push_back(i);
    return;
  }
  for (std::size_t i = 0; i < n_; ++i) {
    if (on_[i]) {
      online_ids_.push_back(i);
    } else {
      offline_ids_.push_back(i);
    }
  }
}

void NetworkModel::begin_round(std::size_t round) {
  (void)round;
  const bool jitter = cfg_.rate_jitter_sigma > 0.0;
  const bool churn = cfg_.p_drop > 0.0;
  if (!jitter && !churn) return;
  // Telemetry: availability before this round's transitions; churn flips are
  // counted against it below. No-ops (and no registration cost beyond the
  // first call) while telemetry is off.
  static const util::Gauge g_online("net.online_clients");
  static const util::Counter c_churn("net.churn_transitions");
  std::size_t churn_flips = 0;
  // One sequential pass keeps the fluctuation stream independent of thread
  // count and participant order. Draw order per client: jitter (up, down),
  // then the availability transition.
  if (churn) {
    online_ids_.clear();
    offline_ids_.clear();
  }
  for (std::size_t i = 0; i < n_; ++i) {
    if (jitter) {
      realized_[i].uplink_rate =
          cfg_.profiles[i].uplink_rate * std::exp(rng_.normal(0.0, cfg_.rate_jitter_sigma));
      realized_[i].downlink_rate =
          cfg_.profiles[i].downlink_rate * std::exp(rng_.normal(0.0, cfg_.rate_jitter_sigma));
    }
    if (churn) {
      const std::uint8_t was = on_[i];
      on_[i] = on_[i] ? (rng_.bernoulli(cfg_.p_drop) ? 0 : 1)
                      : (rng_.bernoulli(cfg_.p_recover) ? 1 : 0);
      if (on_[i] != was) ++churn_flips;
      // Classify in the pass that already holds the chain state: the
      // simulation's per-round scan becomes O(touched clients), not O(N).
      if (on_[i]) {
        online_ids_.push_back(i);
      } else {
        offline_ids_.push_back(i);
      }
    }
  }
  if (churn_flips > 0) c_churn.add(churn_flips);
  if (churn) g_online.set(static_cast<double>(online_ids_.size()));
}

bool NetworkModel::available(std::size_t i) const { return on_.empty() || on_[i] != 0; }

double NetworkModel::uplink_rate(std::size_t i) const { return realized_[i].uplink_rate; }

double NetworkModel::downlink_rate(std::size_t i) const { return realized_[i].downlink_rate; }

double NetworkModel::compute_time(std::size_t i) const {
  return compute_time_ * realized_[i].compute_multiplier;
}

template <class Uplink>
RoundTiming NetworkModel::time_round(std::span<const std::size_t> ids, Uplink uplink,
                                     double downlink_values) const {
  double slowest_down = std::numeric_limits<double>::infinity();
  for (const std::size_t i : ids) slowest_down = std::min(slowest_down, realized_[i].downlink_rate);
  const double down = downlink_values / slowest_down;
  // The round ends when the last participant has computed, sent its own
  // payload over its own link, and the broadcast has reached the slowest
  // participating downlink.
  RoundTiming out;
  double worst = -1.0, best = std::numeric_limits<double>::infinity();
  for (std::size_t s = 0; s < ids.size(); ++s) {
    const std::size_t i = ids[s];
    const double t = compute_time(i) +
                     comm_time_ * (uplink(s) / realized_[i].uplink_rate + down) / two_dim_;
    if (t > worst) {
      worst = t;
      out.slowest_client = static_cast<std::int64_t>(i);
    }
    best = std::min(best, t);
  }
  // When several participants all finished at the same instant nobody
  // straggled: report none rather than the tie-break winner. Ties only
  // among the slowest group still name one of the binding clients, and a
  // lone participant genuinely bound the round.
  if (ids.size() > 1 && worst == best) out.slowest_client = -1;
  out.time = worst;
  return out;
}

RoundTiming NetworkModel::round_time(std::span<const std::size_t> ids,
                                     std::span<const double> uplink_values_per_slot,
                                     double downlink_values) const {
  if (ids.empty()) {
    // Nobody participated: the server idles for one nominal compute round.
    RoundTiming idle;
    idle.time = compute_time_;
    return idle;
  }
  return time_round(
      ids, [&](std::size_t s) { return uplink_values_per_slot[s]; }, downlink_values);
}

double NetworkModel::arrival_time(std::size_t i, double values) const {
  const std::size_t one[] = {i};
  return time_round(one, [values](std::size_t) { return values; }, 0.0).time;
}

double NetworkModel::theta(double k, std::span<const std::size_t> ids) const {
  const double values = 2.0 * k;
  if (ids.empty()) return compute_time_ + comm_time_ * (values + values) / two_dim_;
  return time_round(ids, [values](std::size_t) { return values; }, values).time;
}

// ---------------------------------------------------------------- scenarios

std::vector<std::string> scenario_names() {
  return {"uniform",     "bimodal",    "longtail_mobile", "metered_wan",
          "churn_heavy", "faulty_wan", "byzantine_mix"};
}

Scenario make_scenario(const std::string& name, std::size_t n, std::uint64_t seed) {
  Scenario s;
  s.name = name;
  util::Rng rng(seed ^ 0x5CE7A210ULL);
  if (name == "uniform") {
    s.description = "homogeneous clients (the paper's Section V model)";
    // Empty profiles: every client on the nominal link.
  } else if (name == "bimodal") {
    s.description = "3/4 fast fiber clients, 1/4 slow DSL stragglers";
    s.network.profiles.assign(n, ClientProfile{});
    // Deterministic slow-client placement: a seeded shuffle of client ids so
    // the slow quarter is not correlated with the dataset's client order.
    std::vector<std::size_t> ids(n);
    for (std::size_t i = 0; i < n; ++i) ids[i] = i;
    rng.shuffle(ids);
    const std::size_t slow = std::max<std::size_t>(1, n / 4);
    for (std::size_t j = 0; j < slow && j < n; ++j) {
      auto& p = s.network.profiles[ids[j]];
      p.uplink_rate = 0.1;       // 10x slower uplink dominates τ_m
      p.downlink_rate = 0.5;
      p.compute_multiplier = 2.0;
    }
  } else if (name == "longtail_mobile") {
    s.description = "log-normal mobile links with jitter and on/off churn";
    s.network.profiles.resize(n);
    for (auto& p : s.network.profiles) {
      // Heavy-tailed link quality: median ~0.5x nominal, occasional ~0.05x.
      p.uplink_rate = 0.5 * std::exp(rng.normal(0.0, 0.8));
      p.downlink_rate = 0.7 * std::exp(rng.normal(0.0, 0.5));
      p.compute_multiplier = std::exp(rng.normal(0.0, 0.4));
    }
    s.network.rate_jitter_sigma = 0.3;
    s.network.p_drop = 0.05;
    s.network.p_recover = 0.5;
  } else if (name == "metered_wan") {
    s.description = "uniform half-rate WAN where every transmitted value costs money";
    s.network.profiles.assign(n, ClientProfile{0.5, 0.5, 1.0});
    s.money_per_value = 0.002;
  } else if (name == "churn_heavy") {
    // The SparsyFed cross-device regime the tiered accumulators target: a
    // long-tail link population where most clients are offline in any given
    // round (stationary availability = p_recover/(p_drop+p_recover) ~ 0.27)
    // and sit on accumulated-but-unflushed gradient until they rejoin.
    s.description = "long-tail links with aggressive on/off churn; most clients idle per round";
    s.network.profiles.resize(n);
    for (auto& p : s.network.profiles) {
      p.uplink_rate = 0.4 * std::exp(rng.normal(0.0, 0.9));
      p.downlink_rate = 0.6 * std::exp(rng.normal(0.0, 0.5));
      p.compute_multiplier = std::exp(rng.normal(0.0, 0.5));
    }
    s.network.rate_jitter_sigma = 0.4;
    s.network.p_drop = 0.4;
    s.network.p_recover = 0.15;
  } else if (name == "faulty_wan") {
    // The metered-WAN link shape under an unreliable transport: one upload
    // in twenty is lost in transit and one in a hundred arrives tampered.
    // apply_scenario turns the server-side screening stage on with it.
    s.description = "half-rate WAN with 5% upload drops and 1% payload corruption";
    s.network.profiles.assign(n, ClientProfile{0.5, 0.5, 1.0});
    s.money_per_value = 0.002;
    s.faults.drop_prob = 0.05;
    s.faults.corrupt_prob = 0.01;
  } else if (name == "byzantine_mix") {
    // Long-tail mobile links carrying a colluding Byzantine cohort: ~20% of
    // clients sign-flip their sparsified uploads every round (finite values,
    // so norm screening alone cannot catch them). The scenario pairs the
    // attack with the trimmed-mean robust reduce; apply_scenario carries the
    // robust config into the SimulationConfig alongside the screen.
    s.description = "long-tail mobile links with a 20% sign-flip cohort and trimmed-mean defense";
    s.network.profiles.resize(n);
    for (auto& p : s.network.profiles) {
      p.uplink_rate = 0.5 * std::exp(rng.normal(0.0, 0.8));
      p.downlink_rate = 0.7 * std::exp(rng.normal(0.0, 0.5));
      p.compute_multiplier = std::exp(rng.normal(0.0, 0.4));
    }
    s.network.rate_jitter_sigma = 0.3;
    s.faults.adversary.attack = AttackKind::kSignFlip;
    s.faults.adversary.byzantine_fraction = 0.2;
    s.faults.adversary.cohort_seed = 77;
    s.robust.enabled = true;
    s.robust.kind = sparsify::RobustKind::kTrimmedMean;
    s.robust.trim_fraction = 0.25;
  } else {
    throw std::invalid_argument("make_scenario: unknown scenario '" + name +
                                "' (expected uniform|bimodal|longtail_mobile|metered_wan|"
                                "churn_heavy|faulty_wan|byzantine_mix)");
  }
  return s;
}

}  // namespace fedsparse::fl
