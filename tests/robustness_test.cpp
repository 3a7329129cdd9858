// Robustness / boundary-condition tests across the whole stack: degenerate
// client counts, extreme sparsity degrees, zero gradients, exhausted replay
// sequences, and unusual-but-legal configurations.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <ostream>

#include "data/synthetic.h"
#include "fl/network.h"
#include "fl/simulation.h"
#include "nn/models.h"
#include "online/controller.h"
#include "online/extended_sign_ogd.h"
#include "sparsify/fab_topk.h"
#include "sparsify/method.h"
#include "sparsify/topk.h"

namespace fedsparse {
namespace {

data::SyntheticConfig micro_data(std::size_t clients, std::size_t samples,
                                 std::uint64_t seed = 3) {
  data::SyntheticConfig cfg;
  cfg.num_classes = 3;
  cfg.channels = 1;
  cfg.height = 3;
  cfg.width = 3;
  cfg.num_clients = clients;
  cfg.samples_per_client = samples;
  cfg.samples_spread = 0.0;
  cfg.test_samples = 32;
  cfg.seed = seed;
  return cfg;
}

fl::SimulationConfig micro_sim(std::size_t rounds) {
  fl::SimulationConfig cfg;
  cfg.lr = 0.05f;
  cfg.batch = 4;
  cfg.max_rounds = rounds;
  cfg.comm_time = 1.0;
  cfg.eval_every = rounds;  // evaluate once at the end
  cfg.threads = 1;
  cfg.seed = 5;
  return cfg;
}

fl::SimulationResult run_micro(const char* method, double k, std::size_t clients,
                               std::size_t samples, std::size_t rounds) {
  auto factory = nn::mlp(9, {6}, 3);
  util::Rng probe(1);
  const std::size_t dim = factory(probe)->dim();
  fl::Simulation sim(micro_sim(rounds), data::make_synthetic(micro_data(clients, samples)),
                     factory, sparsify::make_method(method, dim, 7),
                     std::make_unique<online::FixedK>(k));
  return sim.run();
}

struct EdgeCase {
  const char* method;
  double k;
  std::size_t clients;
};

// Names the test case by value; the default byte dump would embed the
// address of `method`, which changes from run to run under ASLR.
void PrintTo(const EdgeCase& c, std::ostream* os) {
  *os << c.method << "_k" << c.k << "_clients" << c.clients;
}

class DegenerateConfigs : public ::testing::TestWithParam<EdgeCase> {};

TEST_P(DegenerateConfigs, RunsToCompletionWithFiniteLoss) {
  const auto [method, k, clients] = GetParam();
  const auto res = run_micro(method, k, clients, 8, 12);
  EXPECT_EQ(res.rounds_run, 12u);
  EXPECT_TRUE(std::isfinite(res.final_loss)) << method;
  EXPECT_TRUE(std::isfinite(res.total_time));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DegenerateConfigs,
    ::testing::Values(EdgeCase{"fab_topk", 1.0, 1},     // single client, k = 1
                      EdgeCase{"fab_topk", 1.0, 5},     // k < N: ⌊k/N⌋ = 0
                      EdgeCase{"fab_topk", 1e9, 3},     // k clamps to D
                      EdgeCase{"fub_topk", 1.0, 5},
                      EdgeCase{"unidirectional_topk", 2.0, 4},
                      EdgeCase{"periodic", 1.0, 2},
                      EdgeCase{"send_all", 1.0, 1},
                      EdgeCase{"fedavg", 2.0, 3}));

TEST(ZeroGradients, FabRoundOnZeroAccumulatorsIsANoopUpdate) {
  const std::size_t dim = 16;
  std::vector<std::vector<float>> zeros(3, std::vector<float>(dim, 0.0f));
  std::vector<double> weights(3, 1.0 / 3.0);
  sparsify::RoundInput in;
  in.dim = dim;
  in.round = 1;
  in.data_weights = {weights.data(), weights.size()};
  for (const auto& v : zeros) in.client_vectors.push_back({v.data(), v.size()});
  sparsify::FabTopK method(dim);
  const auto out = method.round(in, 4);
  ASSERT_EQ(out.update.size(), 4u);
  for (const auto& e : out.update) EXPECT_FLOAT_EQ(e.value, 0.0f);  // harmless update
}

TEST(ZeroGradients, TopKOfZerosIsDeterministic) {
  std::vector<float> zeros(10, 0.0f);
  const auto idx = sparsify::top_k_indices({zeros.data(), zeros.size()}, 3);
  EXPECT_EQ(idx, (std::vector<std::int32_t>{0, 1, 2}));  // index tie-break
}

TEST(ReplayExhaustion, SimulationOutlivesSequenceGracefully) {
  auto factory = nn::mlp(9, {6}, 3);
  util::Rng probe(1);
  const std::size_t dim = factory(probe)->dim();
  // 3-entry sequence, 10 rounds: rounds 4..10 hold the last value.
  fl::Simulation sim(micro_sim(10), data::make_synthetic(micro_data(3, 8)), factory,
                     sparsify::make_method("fab_topk", dim, 7),
                     std::make_unique<online::ReplayK>(std::vector<double>{4.0, 8.0, 16.0}));
  const auto res = sim.run();
  ASSERT_EQ(res.k_sequence.size(), 10u);
  EXPECT_DOUBLE_EQ(res.k_sequence[0], 4.0);
  EXPECT_DOUBLE_EQ(res.k_sequence[2], 16.0);
  EXPECT_DOUBLE_EQ(res.k_sequence[9], 16.0);
}

TEST(TimingEdge, ZeroCommunicationTimeIsPureCompute) {
  const fl::NetworkModel t(0.0, 1.0, 100, fl::NetworkConfig{}, 1, 1);
  const std::size_t ids[] = {0};
  const double uplink[] = {1000.0};
  EXPECT_EQ(t.round_time(ids, uplink, 1000.0).time, 1.0);
  EXPECT_EQ(t.theta(50, ids), 1.0);
}

TEST(ControllerEdge, TinySearchInterval) {
  online::ExtendedSignOgd ogd(online::ExtendedSignOgd::Config{2.0, 3.0, 0.0, 1.5, 4});
  for (int i = 0; i < 50; ++i) ogd.observe_sign(i % 2 ? 1 : -1);
  EXPECT_GE(ogd.current_k(), 2.0);
  EXPECT_LE(ogd.current_k(), 3.0);
}

TEST(ControllerEdge, ProbeNeverEscapesBounds) {
  online::ExtendedSignOgd ogd(online::ExtendedSignOgd::Config{2.0, 1000.0, 2.0, 1.5, 10});
  for (int i = 0; i < 30; ++i) {
    EXPECT_GE(ogd.probe_k(), 1.0);
    EXPECT_LT(ogd.probe_k(), std::max(ogd.current_k(), 2.0));
    ogd.observe_sign(1);  // keep pushing k to the bottom
  }
  EXPECT_DOUBLE_EQ(ogd.current_k(), 2.0);
  EXPECT_GE(ogd.probe_k(), 1.0);
}

TEST(DataEdge, TwoSampleClientsSurviveMinibatching) {
  const auto res = run_micro("fab_topk", 4.0, 4, 2, 8);  // 2 samples per client
  EXPECT_EQ(res.rounds_run, 8u);
  EXPECT_TRUE(std::isfinite(res.final_loss));
}

TEST(DataEdge, ManyMoreClientsThanClasses) {
  auto cfg = micro_data(12, 6);
  cfg.partition = data::PartitionKind::kOneClassPerClient;  // 12 clients, 3 classes
  const auto fed = data::make_synthetic(cfg);
  for (std::size_t c = 0; c < fed.clients.size(); ++c) {
    for (const int y : fed.clients[c].y) {
      EXPECT_EQ(y, static_cast<int>(c % 3));
    }
  }
}

}  // namespace
}  // namespace fedsparse
