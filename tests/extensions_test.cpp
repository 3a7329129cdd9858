// Tests for the extension features beyond the paper's evaluation: the
// money term of the round cost, partial client participation, and
// heterogeneous client compute times.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <set>

#include "data/synthetic.h"
#include "fl/simulation.h"
#include "nn/models.h"
#include "online/extended_sign_ogd.h"
#include "sparsify/method.h"
#include "util/rng.h"

namespace fedsparse {
namespace {

// ---------------------------------------------------- resource model -------

TEST(ResourceModel, MoneyDominatedCostPushesAdaptiveKDown) {
  // Communication is free in *time* (beta ~ 0) but expensive in *money*:
  // the controller should still learn a small k because it minimizes the
  // round cost — the paper's "replace time with another additive resource"
  // claim, exercised end to end.
  auto run = [&](double money_weight) {
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
    scfg.money_per_value = 0.01 * money_weight;
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
  const double k_free = run(0.0);     // no money term: k stays large
  const double k_metered = run(30.0); // heavy money term: k must shrink
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
