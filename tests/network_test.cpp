// Network & device model tests: the NetworkModel straggler formula (and its
// reduction to the paper's Section V model over default profiles), fluctuation
// models (log-normal jitter, Markov availability), the scenario registry, and
// the equivalence suite pinning that explicit all-default profiles reproduce
// the empty-profile simulation byte-for-byte.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <set>

#include "data/synthetic.h"
#include "fl/network.h"
#include "fl/simulation.h"
#include "nn/models.h"
#include "online/extended_sign_ogd.h"
#include "sparsify/fab_topk.h"
#include "sparsify/method.h"
#include "util/rng.h"

namespace fedsparse::fl {
namespace {

// ------------------------------------------------------------ model units --

TEST(NetworkModel, HomogeneousRoundTimeIsBitwiseTimingModel) {
  // Default profiles divide by rate 1.0, which is exact: τ is the paper's
  // compute + β·(max_i v_i + d)/(2D) bit for bit, and θ(k) = 1 + 2βk/D.
  NetworkModel model(10.0, 1.0, 1000, NetworkConfig{}, 4, 1);
  const std::vector<std::size_t> ids = {0, 1, 2, 3};
  const std::vector<double> uplinks = {10.0, 40.0, 20.0, 30.0};
  model.begin_round(1);
  const auto rt = model.round_time(ids, uplinks, 40.0);
  EXPECT_EQ(rt.time, 1.0 + 10.0 * (40.0 + 40.0) / 2000.0);
  EXPECT_EQ(rt.slowest_client, 1);  // the largest payload bound the round
  EXPECT_EQ(model.theta(50.0, ids), 1.0 + 10.0 * (100.0 + 100.0) / 2000.0);
}

TEST(NetworkModel, UniformProfilesNameTheBindingClientOnlyWhenOneBinds) {
  NetworkModel model(10.0, 1.0, 1000, NetworkConfig{}, 3, 1);
  const std::vector<std::size_t> ids = {0, 1, 2};
  // Equal payloads on identical links tie: nobody straggled.
  const std::vector<double> equal = {40.0, 40.0, 40.0};
  EXPECT_EQ(model.round_time(ids, equal, 40.0).slowest_client, -1);
  // Unequal payloads: the largest upload finished last.
  const std::vector<double> unequal = {40.0, 20.0, 60.0};
  EXPECT_EQ(model.round_time(ids, unequal, 40.0).slowest_client, 2);
  // A tie within the slowest group names its lowest slot.
  const std::vector<double> top_tie = {20.0, 60.0, 60.0};
  EXPECT_EQ(model.round_time(ids, top_tie, 40.0).slowest_client, 1);
  // A lone participant bound its own round.
  const std::vector<std::size_t> lone = {2};
  EXPECT_EQ(model.round_time(lone, {equal.data(), 1}, 40.0).slowest_client, 2);
}

TEST(NetworkModel, ThetaAndArrivalsAreTheRoundFormula) {
  // θ(k, ids) is round_time with every upload and the broadcast at 2k, and
  // an arrival is the formula for one client with no broadcast — bitwise,
  // on random heterogeneous, jittered profiles.
  const std::size_t n = 16;
  util::Rng rng(11);
  NetworkConfig cfg;
  cfg.profiles.resize(n);
  for (auto& p : cfg.profiles) {
    p.uplink_rate = 0.5 * std::exp(rng.normal(0.0, 0.8));
    p.downlink_rate = 0.7 * std::exp(rng.normal(0.0, 0.5));
    p.compute_multiplier = std::exp(rng.normal(0.0, 0.4));
  }
  cfg.rate_jitter_sigma = 0.3;
  NetworkModel model(7.0, 1.0, 4420, cfg, n, 5);
  for (std::size_t m = 1; m <= 20; ++m) {
    model.begin_round(m);
    std::vector<std::size_t> ids;
    for (std::size_t i = 0; i < n; ++i) {
      if (rng.bernoulli(0.5)) ids.push_back(i);
    }
    if (ids.empty()) ids.push_back(m % n);
    const double k = 1.0 + 500.0 * rng.uniform();
    const std::vector<double> two_k(ids.size(), 2.0 * k);
    EXPECT_EQ(model.theta(k, ids), model.round_time(ids, two_k, 2.0 * k).time) << "round " << m;
    for (const std::size_t i : ids) {
      const std::size_t one[] = {i};
      const double up[] = {2.0 * k};
      EXPECT_EQ(model.arrival_time(i, 2.0 * k), model.round_time(one, up, 0.0).time);
    }
  }
}

TEST(NetworkModel, StragglerFormulaMaxesComputePlusOwnUplink) {
  // Client 1 has a tiny payload on a 10x-slower link; client 0 a big payload
  // on a nominal link. The slow link must bind the round even with the
  // smaller payload — the homogeneous max-payload shortcut gets this wrong.
  NetworkConfig cfg;
  cfg.profiles = {ClientProfile{1.0, 1.0, 1.0}, ClientProfile{0.1, 0.5, 2.0}};
  NetworkModel model(10.0, 1.0, 1000, cfg, 2, 1);
  model.begin_round(1);
  const std::vector<std::size_t> ids = {0, 1};
  const std::vector<double> uplinks = {100.0, 20.0};
  const auto rt = model.round_time(ids, uplinks, 60.0);
  const double t0 = 1.0 + 10.0 * 100.0 / 2000.0;              // compute + own uplink
  const double t1 = 2.0 + (10.0 * 20.0 / 2000.0) / 0.1;       // straggler
  const double down = (10.0 * 60.0 / 2000.0) / 0.5;           // slowest downlink
  EXPECT_DOUBLE_EQ(rt.time, std::max(t0, t1) + down);
  EXPECT_EQ(rt.slowest_client, 1);
  // theta: every participant uploads 2k; same max structure.
  const double k = 30.0;
  const double th0 = 1.0 + 10.0 * 60.0 / 2000.0;
  const double th1 = 2.0 + (10.0 * 60.0 / 2000.0) / 0.1;
  EXPECT_DOUBLE_EQ(model.theta(k, ids), std::max(th0, th1) + (10.0 * 60.0 / 2000.0) / 0.5);
  EXPECT_LT(model.theta(10.0, ids), model.theta(20.0, ids));  // monotone in k
  // Dropping the straggler from the participant set drops its terms.
  const std::vector<std::size_t> fast_only = {0};
  const auto rt_fast = model.round_time(fast_only, {uplinks.data(), 1}, 60.0);
  EXPECT_DOUBLE_EQ(rt_fast.time, t0 + 10.0 * 60.0 / 2000.0);
}

TEST(NetworkModel, EmptyParticipantsCostOneIdleComputeRound) {
  NetworkModel model(10.0, 1.0, 1000, NetworkConfig{}, 3, 1);
  const auto rt = model.round_time({}, {}, 0.0);
  EXPECT_DOUBLE_EQ(rt.time, 1.0);
  EXPECT_EQ(rt.slowest_client, -1);
}

TEST(NetworkModel, JitterIsReproducibleAndPositive) {
  NetworkConfig cfg;
  cfg.profiles.assign(4, ClientProfile{0.5, 0.8, 1.0});
  cfg.rate_jitter_sigma = 0.4;
  NetworkModel a(10.0, 1.0, 1000, cfg, 4, 42);
  NetworkModel b(10.0, 1.0, 1000, cfg, 4, 42);
  bool moved = false;
  double prev = 0.0;
  for (std::size_t m = 1; m <= 10; ++m) {
    a.begin_round(m);
    b.begin_round(m);
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_EQ(a.uplink_rate(i), b.uplink_rate(i));  // same seed, same stream
      EXPECT_EQ(a.downlink_rate(i), b.downlink_rate(i));
      EXPECT_GT(a.uplink_rate(i), 0.0);
      EXPECT_TRUE(a.available(i));  // jitter without churn never drops anyone
    }
    if (m > 1 && a.uplink_rate(0) != prev) moved = true;
    prev = a.uplink_rate(0);
  }
  EXPECT_TRUE(moved);  // rates actually fluctuate round to round
}

TEST(NetworkModel, MarkovChainAlternatesAtExtremeProbabilities) {
  // p_drop = p_recover = 1 flips every client's state each round.
  NetworkConfig cfg;
  cfg.p_drop = 1.0;
  cfg.p_recover = 1.0;
  NetworkModel model(10.0, 1.0, 1000, cfg, 8, 3);
  std::vector<bool> prev(8);
  model.begin_round(1);
  for (std::size_t i = 0; i < 8; ++i) prev[i] = model.available(i);
  for (std::size_t m = 2; m <= 6; ++m) {
    model.begin_round(m);
    for (std::size_t i = 0; i < 8; ++i) {
      EXPECT_NE(model.available(i), prev[i]) << "round " << m << " client " << i;
      prev[i] = model.available(i);
    }
  }
}

TEST(NetworkModel, ChurnVisitsBothStates) {
  NetworkConfig cfg;
  cfg.p_drop = 0.3;
  cfg.p_recover = 0.5;
  NetworkModel model(10.0, 1.0, 1000, cfg, 6, 7);
  std::size_t on_rounds = 0, off_rounds = 0;
  for (std::size_t m = 1; m <= 50; ++m) {
    model.begin_round(m);
    for (std::size_t i = 0; i < 6; ++i) (model.available(i) ? on_rounds : off_rounds)++;
  }
  EXPECT_GT(on_rounds, 0u);
  EXPECT_GT(off_rounds, 0u);
}

TEST(NetworkModel, ValidatesConfiguration) {
  const auto make = [](NetworkConfig cfg, std::size_t n) {
    return NetworkModel(10.0, 1.0, 1000, std::move(cfg), n, 1);
  };
  NetworkConfig wrong_count;
  wrong_count.profiles.assign(3, ClientProfile{});
  EXPECT_THROW(make(wrong_count, 4), std::invalid_argument);
  NetworkConfig bad_rate;
  bad_rate.profiles.assign(2, ClientProfile{});
  bad_rate.profiles[0].uplink_rate = 0.0;
  EXPECT_THROW(make(bad_rate, 2), std::invalid_argument);
  NetworkConfig bad_prob;
  bad_prob.p_drop = 1.5;
  EXPECT_THROW(make(bad_prob, 2), std::invalid_argument);
  NetworkConfig stranded;
  stranded.p_drop = 0.5;
  stranded.p_recover = 0.0;
  EXPECT_THROW(make(stranded, 2), std::invalid_argument);
  NetworkConfig bad_sigma;
  bad_sigma.rate_jitter_sigma = -0.1;
  EXPECT_THROW(make(bad_sigma, 2), std::invalid_argument);
  EXPECT_THROW(NetworkModel(10.0, 1.0, /*dim=*/0, NetworkConfig{}, 2, 1), std::invalid_argument);
}

// ------------------------------------------------------- scenario registry --

TEST(Scenarios, RegistryBuildsEveryPreset) {
  const auto names = scenario_names();
  ASSERT_EQ(names.size(), 7u);
  for (const auto& name : names) {
    const Scenario s = make_scenario(name, 12, 5);
    EXPECT_EQ(s.name, name);
    EXPECT_FALSE(s.description.empty());
    if (!s.network.profiles.empty()) EXPECT_EQ(s.network.profiles.size(), 12u);
    // Every preset must be consumable by a NetworkModel.
    NetworkModel model(10.0, 1.0, 1000, s.network, 12, 5);
    (void)model;
  }
  EXPECT_THROW(make_scenario("no_such_scenario", 4), std::invalid_argument);
}

TEST(Scenarios, UniformIsTrivialAndBimodalIsNot) {
  const Scenario bimodal = make_scenario("bimodal", 8, 3);
  std::size_t slow = 0, fast = 0;
  for (const auto& p : bimodal.network.profiles) (p.uplink_rate == 1.0 ? fast : slow)++;
  EXPECT_EQ(slow, 2u);  // n/4 stragglers
  EXPECT_EQ(fast, 6u);
  // Same (name, n, seed) => same placement; different seed => may differ.
  const Scenario again = make_scenario("bimodal", 8, 3);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(bimodal.network.profiles[i].uplink_rate, again.network.profiles[i].uplink_rate);
  }
  const Scenario wan = make_scenario("metered_wan", 8);
  EXPECT_GT(wan.money_per_value, 0.0);
  const Scenario mobile = make_scenario("longtail_mobile", 8, 2);
  EXPECT_GT(mobile.network.rate_jitter_sigma, 0.0);
  EXPECT_GT(mobile.network.p_drop, 0.0);
  // churn_heavy: most clients offline in steady state (stationary pi_on
  // below one half), which is what makes its accumulators pile up unflushed.
  const Scenario churn = make_scenario("churn_heavy", 8, 2);
  EXPECT_GT(churn.network.p_drop, 0.0);
  const double pi_on =
      churn.network.p_recover / (churn.network.p_drop + churn.network.p_recover);
  EXPECT_LT(pi_on, 0.5);
}

// ------------------------------------------------ per-client payload wiring --

TEST(RoundOutcome, ClientUplinkFallsBackToUniform) {
  sparsify::RoundOutcome out;
  out.uplink_values = 42.0;
  EXPECT_DOUBLE_EQ(out.client_uplink(0), 42.0);  // empty list: uniform payload
  out.client_uplink_values = {10.0, 42.0};
  EXPECT_DOUBLE_EQ(out.client_uplink(0), 10.0);
  EXPECT_DOUBLE_EQ(out.client_uplink(1), 42.0);
}

TEST(FabTopK, EmitsPerClientUplinkDistribution) {
  const std::size_t dim = 64, n = 3;
  std::vector<std::vector<float>> vecs(n, std::vector<float>(dim, 0.0f));
  for (std::size_t i = 0; i < dim; ++i) {
    vecs[0][i] = static_cast<float>(i % 7) - 3.0f;
    vecs[1][i] = static_cast<float>(i % 5) - 2.0f;
    vecs[2][i] = static_cast<float>(i % 3) - 1.0f;
  }
  std::vector<double> weights(n, 1.0 / 3.0);
  sparsify::RoundInput in;
  in.dim = dim;
  in.round = 1;
  in.data_weights = {weights.data(), n};
  for (const auto& v : vecs) in.client_vectors.push_back({v.data(), v.size()});
  sparsify::FabTopK method(dim);
  const auto out = method.round(in, 10);
  // Every client uploads exactly min(k, D) (index, value) pairs, and the
  // slot-aligned list must agree with the max-payload accounting.
  ASSERT_EQ(out.client_uplink_values.size(), n);
  double max_up = 0.0;
  for (std::size_t s = 0; s < n; ++s) {
    EXPECT_DOUBLE_EQ(out.client_uplink(s), 20.0);  // 10 pairs = 20 values
    max_up = std::max(max_up, out.client_uplink_values[s]);
  }
  EXPECT_DOUBLE_EQ(out.uplink_values, max_up);  // uplink_values is the largest upload
}

// ------------------------------------------------- simulation equivalence --

data::SyntheticConfig tiny_dataset(std::uint64_t seed = 1) {
  data::SyntheticConfig cfg;
  cfg.num_classes = 4;
  cfg.channels = 1;
  cfg.height = 4;
  cfg.width = 4;
  cfg.num_clients = 5;
  cfg.samples_per_client = 24;
  cfg.samples_spread = 0.3;
  cfg.test_samples = 128;
  cfg.class_sep = 2.5;
  cfg.noise_std = 0.6;
  cfg.partition = data::PartitionKind::kByWriter;
  cfg.classes_per_writer = 2;
  cfg.seed = seed;
  return cfg;
}

nn::ModelFactory tiny_model() { return nn::mlp(16, {12}, 4); }

SimulationConfig fast_sim(double beta = 10.0) {
  SimulationConfig cfg;
  cfg.lr = 0.05f;
  cfg.batch = 8;
  cfg.max_rounds = 50;
  cfg.comm_time = beta;
  cfg.eval_every = 10;
  cfg.eval_samples_per_client = 0;
  cfg.eval_test_samples = 0;
  cfg.threads = 2;
  cfg.seed = 3;
  return cfg;
}

SimulationResult run_sim(SimulationConfig cfg, const std::string& method, bool adaptive,
                         std::uint64_t data_seed = 1) {
  auto dataset = data::make_synthetic(tiny_dataset(data_seed));
  auto factory = tiny_model();
  util::Rng probe(1);
  const std::size_t dim = factory(probe)->dim();
  std::unique_ptr<online::KController> controller;
  if (adaptive) {
    controller = std::make_unique<online::ExtendedSignOgd>(
        online::ExtendedSignOgd::Config{2.0, static_cast<double>(dim), 0.0, 1.5, 10});
  } else {
    controller = std::make_unique<online::FixedK>(20.0);
  }
  Simulation sim(cfg, std::move(dataset), factory, sparsify::make_method(method, dim, 5),
                 std::move(controller));
  return sim.run();
}

// Bitwise trace comparison: uniform profiles must change NOTHING.
void expect_identical(const SimulationResult& a, const SimulationResult& b,
                      const std::string& label) {
  ASSERT_EQ(a.records.size(), b.records.size()) << label;
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    const RoundRecord& ra = a.records[i];
    const RoundRecord& rb = b.records[i];
    EXPECT_EQ(ra.time, rb.time) << label << " round " << ra.round;
    EXPECT_EQ(ra.k_continuous, rb.k_continuous) << label << " round " << ra.round;
    EXPECT_EQ(ra.k_used, rb.k_used) << label << " round " << ra.round;
    EXPECT_EQ(ra.train_loss, rb.train_loss) << label << " round " << ra.round;
    EXPECT_EQ(ra.uplink_values, rb.uplink_values) << label << " round " << ra.round;
    EXPECT_EQ(ra.downlink_values, rb.downlink_values) << label << " round " << ra.round;
    EXPECT_EQ(ra.participants, rb.participants) << label << " round " << ra.round;
    if (std::isnan(ra.global_loss)) {
      EXPECT_TRUE(std::isnan(rb.global_loss)) << label << " round " << ra.round;
    } else {
      EXPECT_EQ(ra.global_loss, rb.global_loss) << label << " round " << ra.round;
    }
  }
  EXPECT_EQ(a.k_sequence, b.k_sequence) << label;
  EXPECT_EQ(a.contributed_totals, b.contributed_totals) << label;
  EXPECT_EQ(a.total_time, b.total_time) << label;
  EXPECT_EQ(a.final_loss, b.final_loss) << label;
  EXPECT_EQ(a.invalid_probe_rounds, b.invalid_probe_rounds) << label;
}

class UniformNetworkEquivalence : public ::testing::TestWithParam<const char*> {};

TEST_P(UniformNetworkEquivalence, FixedKTraceMatchesHomogeneousPath) {
  const std::string method = GetParam();
  const auto homogeneous = run_sim(fast_sim(), method, /*adaptive=*/false);
  SimulationConfig cfg = fast_sim();
  cfg.network.profiles.assign(5, ClientProfile{});  // explicit all-uniform
  const auto uniform = run_sim(cfg, method, /*adaptive=*/false);
  expect_identical(homogeneous, uniform, method);
}

INSTANTIATE_TEST_SUITE_P(AllMethods, UniformNetworkEquivalence,
                         ::testing::Values("fab_topk", "fub_topk", "unidirectional_topk",
                                           "periodic", "send_all", "fedavg"));

TEST(UniformNetworkEquivalenceAdaptive, ProbePathMatchesHomogeneousPath) {
  // The adaptive controller consumes round_time AND theta_probe — both must
  // route through the network model bit-identically when uniform.
  const auto homogeneous = run_sim(fast_sim(), "fab_topk", /*adaptive=*/true);
  SimulationConfig cfg = fast_sim();
  cfg.network.profiles.assign(5, ClientProfile{});
  const auto uniform = run_sim(cfg, "fab_topk", /*adaptive=*/true);
  expect_identical(homogeneous, uniform, "fab_topk/adaptive");
}

TEST(UniformNetworkEquivalence2, PartialParticipationMatches) {
  SimulationConfig cfg = fast_sim();
  cfg.participation = 0.4;
  const auto homogeneous = run_sim(cfg, "fab_topk", /*adaptive=*/false);
  cfg.network.profiles.assign(5, ClientProfile{});
  const auto uniform = run_sim(cfg, "fab_topk", /*adaptive=*/false);
  expect_identical(homogeneous, uniform, "fab_topk/participation");
}

// ------------------------------------------------- heterogeneous behaviour --

TEST(HeterogeneousSimulation, SlowLinksInflateTimeAndNameTheStraggler) {
  const auto uniform = run_sim(fast_sim(), "fab_topk", /*adaptive=*/false);
  SimulationConfig cfg = fast_sim();
  cfg.network.profiles.assign(5, ClientProfile{});
  cfg.network.profiles[2] = {0.1, 0.5, 2.0};  // one slow client
  const auto het = run_sim(cfg, "fab_topk", /*adaptive=*/false);
  EXPECT_GT(het.total_time, uniform.total_time);
  // Weights/learning are untouched by timing: identical loss trajectory.
  ASSERT_EQ(het.records.size(), uniform.records.size());
  for (std::size_t i = 0; i < het.records.size(); ++i) {
    EXPECT_EQ(het.records[i].train_loss, uniform.records[i].train_loss);
  }
  // The slow client binds every round (its compute multiplier alone ensures
  // it under near-equal payloads).
  std::size_t bound_by_slow = 0;
  for (const auto& r : het.records) {
    if (r.slowest_client == 2) ++bound_by_slow;
  }
  EXPECT_GT(bound_by_slow, het.records.size() / 2);
}

TEST(HeterogeneousSimulation, AdaptiveControllerShrinksKUnderStragglers) {
  // The acceptance trend behind bench/scenario_sweep: dearer effective
  // communication (a slow uplink quarter) must push the learned k down.
  auto tail_k = [&](bool bimodal) {
    SimulationConfig cfg = fast_sim(10.0);
    cfg.max_rounds = 150;
    if (bimodal) {
      cfg.network.profiles.assign(5, ClientProfile{});
      cfg.network.profiles[1] = {0.05, 0.5, 1.0};  // ~20x dearer uplink
    }
    const auto res = run_sim(cfg, "fab_topk", /*adaptive=*/true, 4);
    double tail = 0.0;
    const std::size_t tail_n = res.k_sequence.size() / 4;
    for (std::size_t i = res.k_sequence.size() - tail_n; i < res.k_sequence.size(); ++i) {
      tail += res.k_sequence[i];
    }
    return tail / static_cast<double>(tail_n);
  };
  EXPECT_GT(tail_k(false), tail_k(true));
}

TEST(HeterogeneousSimulation, ChurnSkipsRoundsButKeepsLearning) {
  SimulationConfig cfg = fast_sim(1.0);
  cfg.max_rounds = 60;
  cfg.network.p_drop = 0.3;
  cfg.network.p_recover = 0.5;
  const auto res = run_sim(cfg, "fab_topk", /*adaptive=*/false);
  EXPECT_EQ(res.rounds_run, 60u);
  EXPECT_TRUE(std::isfinite(res.final_loss));
  EXPECT_LT(res.final_loss, res.records.front().train_loss);
  // Churn must actually have excluded clients from some rounds…
  std::size_t reduced_rounds = 0, total_participants = 0;
  for (const auto& r : res.records) {
    if (r.participants < 5) ++reduced_rounds;
    total_participants += r.participants;
  }
  EXPECT_GT(reduced_rounds, 0u);
  // …and the per-client participation ledger must agree with the records.
  ASSERT_EQ(res.client_rounds_participated.size(), 5u);
  std::size_t ledger = 0;
  for (const auto v : res.client_rounds_participated) {
    ledger += v;
    EXPECT_LT(v, res.rounds_run);  // nobody was online every single round
  }
  EXPECT_EQ(ledger, total_participants);
  // Offline clients upload nothing: traffic only on participated rounds.
  for (std::size_t i = 0; i < 5; ++i) {
    if (res.client_rounds_participated[i] == 0) {
      EXPECT_EQ(res.client_uplink_values[i], 0.0);
    } else {
      EXPECT_GT(res.client_uplink_values[i], 0.0);
    }
  }
}

TEST(HeterogeneousSimulation, AllOfflineRoundIdlesWithoutCrashing) {
  // Aggressive churn on a tiny population: rounds where every client is
  // offline must idle (no server round, NaN train loss, k carried) instead
  // of crashing or corrupting the trace.
  SimulationConfig cfg = fast_sim(1.0);
  cfg.max_rounds = 80;
  cfg.network.p_drop = 0.8;
  cfg.network.p_recover = 0.3;
  auto dataset = data::make_synthetic(tiny_dataset(1));
  auto factory = tiny_model();
  util::Rng probe(1);
  const std::size_t dim = factory(probe)->dim();
  Simulation sim(cfg, std::move(dataset), factory, sparsify::make_method("fab_topk", dim, 5),
                 std::make_unique<online::FixedK>(20.0));
  const auto res = sim.run();
  EXPECT_EQ(res.rounds_run, 80u);
  EXPECT_EQ(res.records.size(), 80u);
  EXPECT_EQ(res.k_sequence.size(), 80u);
  std::size_t idle_rounds = 0;
  for (const auto& r : res.records) {
    if (r.participants == 0) {
      ++idle_rounds;
      EXPECT_TRUE(std::isnan(r.train_loss)) << "round " << r.round;
      EXPECT_EQ(r.uplink_values, 0.0);
      EXPECT_EQ(r.slowest_client, -1);
    }
  }
  EXPECT_GT(idle_rounds, 0u);  // stationary P(all 5 offline) ≈ 0.73^5 ≈ 0.2
  EXPECT_TRUE(std::isfinite(res.total_time));
  EXPECT_TRUE(std::isfinite(res.final_loss));
}

TEST(HeterogeneousSimulation, DeterministicGivenSeed) {
  SimulationConfig cfg = fast_sim(1.0);
  cfg.max_rounds = 40;
  cfg.network = make_scenario("longtail_mobile", 5, 9).network;
  const auto a = run_sim(cfg, "fab_topk", /*adaptive=*/true);
  const auto b = run_sim(cfg, "fab_topk", /*adaptive=*/true);
  expect_identical(a, b, "longtail_mobile determinism");
  EXPECT_EQ(a.client_uplink_values, b.client_uplink_values);
  EXPECT_EQ(a.client_rounds_participated, b.client_rounds_participated);
}

TEST(HeterogeneousSimulation, TrafficLedgerMatchesRecordsUnderFullParticipation) {
  const auto res = run_sim(fast_sim(1.0), "fab_topk", /*adaptive=*/false);
  double downlink_sum = 0.0;
  for (const auto& r : res.records) downlink_sum += r.downlink_values;
  ASSERT_EQ(res.client_downlink_values.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(res.client_downlink_values[i], downlink_sum);  // everyone hears broadcasts
    EXPECT_GT(res.client_uplink_values[i], 0.0);
    EXPECT_EQ(res.client_rounds_participated[i], res.rounds_run);
  }
  const auto rows =
      client_traffic_rows(res.client_uplink_values, res.client_downlink_values,
                          res.client_rounds_participated);
  ASSERT_EQ(rows.size(), 5u);
  EXPECT_DOUBLE_EQ(rows[0].downlink_bytes, values_to_bytes(downlink_sum));
  EXPECT_THROW(client_traffic_rows({1.0}, {}, {}), std::invalid_argument);
}

TEST(HeterogeneousSimulation, FedAvgLocalOnlyRoundsDoNotCountAsParticipation) {
  // Between synchronizations FedAvg exchanges nothing: only the
  // kWeightAverage rounds are server rounds a client "joins".
  const auto res = run_sim(fast_sim(1.0), "fedavg", /*adaptive=*/false);
  std::size_t sync_rounds = 0;
  for (const auto& r : res.records) {
    if (r.uplink_values > 0.0) ++sync_rounds;
  }
  ASSERT_GT(sync_rounds, 0u);
  ASSERT_LT(sync_rounds, res.rounds_run);  // period > 1 at k=20
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(res.client_rounds_participated[i], sync_rounds);
  }
}

TEST(ApplyScenario, InstallsNetworkAndMoneyKnobs) {
  SimulationConfig cfg;
  apply_scenario(make_scenario("metered_wan", 6), cfg);
  EXPECT_EQ(cfg.network.profiles.size(), 6u);
  EXPECT_GT(cfg.money_per_value, 0.0);
  SimulationConfig uni;
  apply_scenario(make_scenario("uniform", 6), uni);
  EXPECT_TRUE(uni.network.profiles.empty());
  EXPECT_EQ(uni.money_per_value, 0.0);  // pure-time objective untouched
}

}  // namespace
}  // namespace fedsparse::fl
