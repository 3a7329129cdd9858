// Tests for the extension features beyond the paper's evaluation:
// quantization on top of GS, the composite resource objective, partial
// client participation, and heterogeneous client compute times.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <set>

#include "data/synthetic.h"
#include "fl/resource.h"
#include "fl/simulation.h"
#include "nn/models.h"
#include "online/extended_sign_ogd.h"
#include "sparsify/fab_topk.h"
#include "sparsify/quantize.h"
#include "util/rng.h"

namespace fedsparse {
namespace {

// ------------------------------------------------------- quantization ------

TEST(Quantizer, IsUnbiasedOverRepetitions) {
  sparsify::QuantizerConfig cfg;
  cfg.levels = 4;
  cfg.seed = 1;
  sparsify::StochasticQuantizer q(cfg);
  const float original = 0.37f;
  double sum = 0.0;
  const int trials = 50000;
  for (int t = 0; t < trials; ++t) {
    sparsify::SparseVector sv{{0, original}, {1, -1.0f}};  // scale anchor = 1.0
    q.quantize(sv);
    sum += sv[0].value;
  }
  EXPECT_NEAR(sum / trials, original, 0.01);
}

TEST(Quantizer, ValuesLandOnTheGridAndKeepSign) {
  sparsify::QuantizerConfig cfg;
  cfg.levels = 5;
  sparsify::StochasticQuantizer q(cfg);
  sparsify::SparseVector sv{{0, 0.31f}, {1, -0.77f}, {2, 1.0f}};
  const float scale = q.quantize(sv);
  EXPECT_FLOAT_EQ(scale, 1.0f);
  for (const auto& e : sv) {
    const float normalized = std::fabs(e.value) / scale * 5.0f;
    EXPECT_NEAR(normalized, std::round(normalized), 1e-5);
  }
  EXPECT_LE(sv[1].value, 0.0f);
  EXPECT_GE(sv[0].value, 0.0f);
}

TEST(Quantizer, ZeroAndEmptyInputs) {
  sparsify::StochasticQuantizer q({15, 3});
  sparsify::SparseVector empty;
  EXPECT_FLOAT_EQ(q.quantize(empty), 0.0f);
  sparsify::SparseVector zeros{{0, 0.0f}, {4, 0.0f}};
  EXPECT_FLOAT_EQ(q.quantize(zeros), 0.0f);
  EXPECT_THROW(sparsify::StochasticQuantizer({0, 1}), std::invalid_argument);
}

TEST(Quantizer, BitsPerValue) {
  EXPECT_NEAR(sparsify::StochasticQuantizer({15, 1}).bits_per_value(), 5.0, 1e-9);  // 4+sign
  EXPECT_NEAR(sparsify::StochasticQuantizer({1, 1}).bits_per_value(), 2.0, 1e-9);   // 1+sign
}

TEST(QuantizedMethod, RescalesCommunicationAccounting) {
  const std::size_t dim = 64, k = 8;
  util::Rng rng(5);
  std::vector<std::vector<float>> vecs(2, std::vector<float>(dim));
  for (auto& v : vecs) {
    for (auto& x : v) x = static_cast<float>(rng.normal());
  }
  std::vector<double> weights{0.5, 0.5};
  sparsify::RoundInput in;
  in.dim = dim;
  in.round = 1;
  in.data_weights = {weights.data(), weights.size()};
  for (const auto& v : vecs) in.client_vectors.push_back({v.data(), v.size()});

  sparsify::QuantizerConfig qcfg;
  qcfg.levels = 15;  // 5 bits incl. sign
  sparsify::QuantizedMethod method(std::make_unique<sparsify::FabTopK>(dim), qcfg);
  EXPECT_EQ(method.name(), "fab_topk+q15");
  const auto out = method.round(in, k);
  // Plain FAB charges 2k = 16 values; quantized: k·(1 + 5/32) = 9.25.
  EXPECT_NEAR(out.uplink_values, 8.0 * (1.0 + 5.0 / 32.0), 1e-9);
  EXPECT_LT(out.uplink_values, 16.0);
  EXPECT_EQ(out.update.size(), k);
}

TEST(QuantizedMethod, StillConvergesInTraining) {
  data::SyntheticConfig dcfg;
  dcfg.num_classes = 4;
  dcfg.channels = 1;
  dcfg.height = 4;
  dcfg.width = 4;
  dcfg.num_clients = 4;
  dcfg.samples_per_client = 24;
  dcfg.test_samples = 64;
  dcfg.seed = 3;
  auto factory = nn::mlp(16, {12}, 4);
  util::Rng probe(1);
  const std::size_t dim = factory(probe)->dim();
  fl::SimulationConfig scfg;
  scfg.lr = 0.05f;
  scfg.batch = 8;
  scfg.max_rounds = 100;
  scfg.comm_time = 1.0;
  scfg.eval_every = 20;
  scfg.eval_samples_per_client = 0;
  scfg.eval_test_samples = 0;
  scfg.threads = 2;
  fl::Simulation sim(scfg, data::make_synthetic(dcfg), factory,
                     std::make_unique<sparsify::QuantizedMethod>(
                         std::make_unique<sparsify::FabTopK>(dim), sparsify::QuantizerConfig{}),
                     std::make_unique<online::FixedK>(20.0));
  const auto res = sim.run();
  EXPECT_LT(res.final_loss, res.records.front().train_loss);
}

// ---------------------------------------------------- resource model -------

TEST(ResourceModel, PureTimeMatchesTimingModel) {
  fl::ResourceModel r;
  r.timing = fl::TimingModel{10.0, 1.0, 1000};
  EXPECT_TRUE(r.is_pure_time());
  EXPECT_DOUBLE_EQ(r.round_cost(100, 100), r.timing.round_time(100, 100));
  EXPECT_DOUBLE_EQ(r.theta_cost(50), r.timing.theta(50));
}

TEST(ResourceModel, CompositeCostIsAdditive) {
  fl::ResourceModel r;
  r.timing = fl::TimingModel{10.0, 1.0, 1000};
  r.energy_per_compute = 2.0;
  r.energy_per_value = 0.01;
  r.money_per_value = 0.001;
  r.weight_time = 1.0;
  r.weight_energy = 3.0;
  r.weight_money = 100.0;
  const double up = 200, down = 100;
  const double expected = r.timing.round_time(up, down) + 3.0 * (2.0 + 0.01 * 300) + 100.0 *
                          (0.001 * 300);
  EXPECT_NEAR(r.round_cost(up, down), expected, 1e-12);
  EXPECT_FALSE(r.is_pure_time());
}

TEST(ResourceModel, EnergyDominatedCostPushesAdaptiveKDown) {
  // Communication is free in *time* (beta ~ 0) but expensive in *energy*:
  // the controller should still learn a small k because it minimizes the
  // composite cost — the paper's "replace time with another additive
  // resource" claim, exercised end to end.
  auto run = [&](double energy_weight) {
    data::SyntheticConfig dcfg;
    dcfg.num_classes = 4;
    dcfg.channels = 1;
    dcfg.height = 4;
    dcfg.width = 4;
    dcfg.num_clients = 5;
    dcfg.samples_per_client = 24;
    dcfg.test_samples = 64;
    dcfg.seed = 4;
    auto factory = nn::mlp(16, {12}, 4);
    util::Rng probe(1);
    const std::size_t dim = factory(probe)->dim();
    fl::SimulationConfig scfg;
    scfg.lr = 0.05f;
    scfg.batch = 8;
    scfg.max_rounds = 150;
    scfg.comm_time = 0.01;  // time cost of communication ~ none
    scfg.eval_every = 30;
    scfg.threads = 2;
    scfg.energy_per_value = 0.01;
    scfg.weight_energy = energy_weight;
    auto controller = std::make_unique<online::ExtendedSignOgd>(online::ExtendedSignOgd::Config{
        2.0, static_cast<double>(dim), 0.0, 1.5, 10});
    fl::Simulation sim(scfg, data::make_synthetic(dcfg), factory,
                       sparsify::make_method("fab_topk", dim, 5), std::move(controller));
    const auto res = sim.run();
    double tail = 0.0;
    const std::size_t tail_n = res.k_sequence.size() / 4;
    for (std::size_t i = res.k_sequence.size() - tail_n; i < res.k_sequence.size(); ++i) {
      tail += res.k_sequence[i];
    }
    return tail / static_cast<double>(tail_n);
  };
  const double k_free = run(0.0);     // no energy term: k stays large
  const double k_metered = run(30.0); // heavy energy term: k must shrink
  EXPECT_GT(k_free, k_metered);
}

// ------------------------------------------- participation / stragglers ----

fl::SimulationConfig small_sim() {
  fl::SimulationConfig cfg;
  cfg.lr = 0.05f;
  cfg.batch = 8;
  cfg.max_rounds = 40;
  cfg.comm_time = 1.0;
  cfg.eval_every = 10;
  cfg.eval_samples_per_client = 0;
  cfg.eval_test_samples = 0;
  cfg.threads = 2;
  cfg.seed = 9;
  return cfg;
}

data::SyntheticConfig small_data(std::uint64_t seed = 8) {
  data::SyntheticConfig dcfg;
  dcfg.num_classes = 4;
  dcfg.channels = 1;
  dcfg.height = 4;
  dcfg.width = 4;
  dcfg.num_clients = 8;
  dcfg.samples_per_client = 20;
  dcfg.test_samples = 64;
  dcfg.seed = seed;
  return dcfg;
}

fl::SimulationResult run_small(fl::SimulationConfig cfg, std::uint64_t data_seed = 8) {
  auto factory = nn::mlp(16, {8}, 4);
  util::Rng probe(1);
  const std::size_t dim = factory(probe)->dim();
  fl::Simulation sim(cfg, data::make_synthetic(small_data(data_seed)), factory,
                     sparsify::make_method("fab_topk", dim, 5),
                     std::make_unique<online::FixedK>(15.0));
  return sim.run();
}

TEST(Participation, ValidatesRange) {
  auto cfg = small_sim();
  cfg.participation = 0.0;
  auto factory = nn::mlp(16, {8}, 4);
  util::Rng probe(1);
  const std::size_t dim = factory(probe)->dim();
  EXPECT_THROW(fl::Simulation(cfg, data::make_synthetic(small_data()), factory,
                              sparsify::make_method("fab_topk", dim, 5),
                              std::make_unique<online::FixedK>(15.0)),
               std::invalid_argument);
}

TEST(Participation, PartialSamplingStillLearnsAndSpreadsContributions) {
  auto cfg = small_sim();
  cfg.participation = 0.5;
  cfg.max_rounds = 80;
  const auto res = run_small(cfg);
  EXPECT_LT(res.final_loss, res.records.front().train_loss);
  // With 8 clients at 50% participation over 80 rounds, every client should
  // have been sampled (and hence contributed) at least once.
  for (const auto total : res.contributed_totals) EXPECT_GT(total, 0u);
  // But contributions are roughly half of the full-participation run's.
  auto full_cfg = small_sim();
  full_cfg.max_rounds = 80;
  const auto full = run_small(full_cfg);
  std::size_t part_sum = 0, full_sum = 0;
  for (const auto v : res.contributed_totals) part_sum += v;
  for (const auto v : full.contributed_totals) full_sum += v;
  EXPECT_LT(part_sum, full_sum);
}

TEST(Participation, FullParticipationSelectsEveryoneEveryRound) {
  auto cfg = small_sim();
  cfg.max_rounds = 10;
  const auto res = run_small(cfg);
  // FAB fairness: with N=8, k=15 -> everyone contributes >= 1 per round.
  for (const auto total : res.contributed_totals) {
    EXPECT_GE(total, res.rounds_run);
  }
}

// Heterogeneous devices: per-client compute-time multipliers drawn
// log-normally, exp(N(0, sigma)), as the network model's client profiles.
void spread_compute_times(fl::SimulationConfig& cfg, double sigma) {
  util::Rng rng(cfg.seed ^ 0x4E7E20ULL);
  cfg.network.profiles.assign(small_data().num_clients, fl::ClientProfile{});
  for (auto& profile : cfg.network.profiles) {
    profile.compute_multiplier = std::exp(rng.normal(0.0, sigma));
  }
}

TEST(Heterogeneity, StragglersInflateRoundCost) {
  auto base = small_sim();
  base.max_rounds = 20;
  const auto homogeneous = run_small(base);
  auto het = base;
  spread_compute_times(het, 0.8);
  const auto heterogeneous = run_small(het);
  EXPECT_GT(heterogeneous.total_time, homogeneous.total_time);
}

TEST(Heterogeneity, PartialParticipationCanDodgeStragglers) {
  // With sampling, some rounds exclude the slowest client, so per-round cost
  // is sometimes lower than the all-clients max — total time per round
  // (averaged) must be <= the full-participation straggler-bound run.
  auto full = small_sim();
  full.max_rounds = 40;
  spread_compute_times(full, 1.0);
  const auto all_in = run_small(full);
  auto sampled = full;
  sampled.participation = 0.25;
  const auto some_in = run_small(sampled);
  const double avg_all = all_in.total_time / static_cast<double>(all_in.rounds_run);
  const double avg_some = some_in.total_time / static_cast<double>(some_in.rounds_run);
  EXPECT_LE(avg_some, avg_all + 1e-9);
}

TEST(Heterogeneity, DeterministicGivenSeed) {
  auto cfg = small_sim();
  spread_compute_times(cfg, 0.5);
  cfg.participation = 0.5;
  const auto a = run_small(cfg);
  const auto b = run_small(cfg);
  EXPECT_EQ(a.total_time, b.total_time);
  EXPECT_EQ(a.final_loss, b.final_loss);
  EXPECT_EQ(a.contributed_totals, b.contributed_totals);
}

}  // namespace
}  // namespace fedsparse
