// Integration tests for the federated simulation: timing-model consistency,
// client mechanics, weight-synchronization invariants, convergence of every
// GS method, FedAvg ≡ send-all at period 1, and the adaptive-k plumbing.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <memory>
#include <ostream>
#include <string>

#include "data/synthetic.h"
#include "fl/client.h"
#include "fl/metrics.h"
#include "fl/network.h"
#include "fl/simulation.h"
#include "nn/models.h"
#include "online/extended_sign_ogd.h"
#include "online/factory.h"
#include "sparsify/method.h"

namespace fedsparse::fl {

// Reaches the evaluation's inputs and the participant sampling that follows
// it (see Simulation's friend declaration).
struct SimulationTestPeer {
  static util::Rng& rng(Simulation& s) { return s.rng_; }
  static std::span<float> global_weights(Simulation& s) { return s.global_weights(); }
  static RoundRecord evaluate(Simulation& s) {
    RoundRecord rec;
    s.evaluate(rec);
    return rec;
  }
  static std::vector<std::size_t> sample_participants(Simulation& s) {
    return s.sample_participants();
  }
};

namespace {

// The serial evaluation oracle: one private model replica, a weight copy per
// evaluation, and every client in order on the calling thread — the engine's
// evaluation before it moved onto the workspace pool.
class Evaluator {
 public:
  Evaluator(const nn::ModelFactory& factory, std::uint64_t seed) {
    util::Rng rng(seed);
    model_ = factory(rng);
  }

  void set_weights(std::span<const float> w) { model_->set_weights(w); }

  /// Mean loss on (a uniform subsample of) `ds`; max_samples == 0 => all.
  double loss(const data::Dataset& ds, std::size_t max_samples, util::Rng& rng) {
    data::Dataset storage;
    const data::Dataset* use = subsampled(ds, max_samples, rng, storage);
    return model_->forward_loss(use->x, use->y);
  }

  /// Classification accuracy on (a subsample of) `ds`.
  double accuracy(const data::Dataset& ds, std::size_t max_samples, util::Rng& rng) {
    data::Dataset storage;
    const data::Dataset* use = subsampled(ds, max_samples, rng, storage);
    return model_->accuracy(use->x, use->y);
  }

  /// Global loss over `fed`'s clients (data-weighted, in client order), then the
  /// test accuracy, drawing every subsample from `rng`.
  RoundRecord evaluate(const data::FederatedDataset& fed, const SimulationConfig& cfg,
                       util::Rng& rng) {
    const std::vector<double> weights = fed.data_weights();
    RoundRecord rec;
    double loss_sum = 0.0;
    for (std::size_t i = 0; i < fed.clients.size(); ++i) {
      const double l = loss(fed.clients[i], cfg.eval_samples_per_client, rng);
      // Fused, as the engine's loop compiled under -march=native (tests
      // build without it, so the contraction is spelled out).
      loss_sum = std::fma(weights[i], l, loss_sum);
    }
    rec.global_loss = loss_sum;
    rec.accuracy = accuracy(fed.test, cfg.eval_test_samples, rng);
    return rec;
  }

 private:
  static const data::Dataset* subsampled(const data::Dataset& ds, std::size_t max_samples,
                                         util::Rng& rng, data::Dataset& storage) {
    if (max_samples == 0 || ds.size() <= max_samples) return &ds;
    std::vector<std::size_t> idx(max_samples);
    for (auto& v : idx) v = rng.uniform_u64(ds.size());
    storage = ds.subset(idx);
    return &storage;
  }

  std::unique_ptr<nn::Sequential> model_;
};

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
  cfg.max_rounds = 60;
  cfg.comm_time = beta;
  cfg.eval_every = 10;
  cfg.eval_samples_per_client = 0;  // tiny data: evaluate exactly
  cfg.eval_test_samples = 0;
  cfg.threads = 2;
  cfg.seed = 3;
  return cfg;
}

std::unique_ptr<Simulation> make_sim(const std::string& method, double fixed_k,
                                     SimulationConfig cfg = fast_sim(),
                                     std::uint64_t data_seed = 1) {
  auto dataset = data::make_synthetic(tiny_dataset(data_seed));
  auto factory = tiny_model();
  util::Rng probe(1);
  const std::size_t dim = factory(probe)->dim();
  return std::make_unique<Simulation>(cfg, std::move(dataset), factory,
                                      sparsify::make_method(method, dim, 5),
                                      std::make_unique<online::FixedK>(fixed_k));
}

// ------------------------------------------------------------ timing -------
//
// The paper's Section V timing model is NetworkModel over default profiles:
// compute 1 per round, β for a full D-value exchange.

NetworkModel paper_timing(double beta, std::size_t dim, std::size_t clients = 1) {
  return NetworkModel(beta, /*compute_time=*/1.0, dim, NetworkConfig{}, clients, /*seed=*/1);
}

// Every client of a paper_timing model uploads `up` values; broadcast `down`.
double paper_round(const NetworkModel& t, double up, double down) {
  std::vector<std::size_t> ids(t.num_clients());
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = i;
  const std::vector<double> uplinks(ids.size(), up);
  return t.round_time(ids, uplinks, down).time;
}

const std::vector<std::size_t> kOneClient = {0};

TEST(TimingModel, SendAllCostsExactlyBeta) {
  const auto t = paper_timing(/*beta=*/10.0, /*dim=*/1000, /*clients=*/3);
  EXPECT_EQ(paper_round(t, 1000, 1000), 1.0 + 10.0);
}

TEST(TimingModel, TopKCostMatchesFormula) {
  const auto t = paper_timing(10.0, 1000, 3);
  const std::vector<std::size_t> ids = {0, 1, 2};
  // k-element GS: 2k values each way => 1 + β·2k/D.
  EXPECT_EQ(t.theta(50.0, ids), 1.0 + 10.0 * 2.0 * 50.0 / 1000.0);
  EXPECT_EQ(t.theta(50.0, {}), t.theta(50.0, ids));  // no participants: nominal θ
}

TEST(TimingModel, FedAvgMatchedBudgetConsistency) {
  // Average FedAvg cost per round equals the k-element GS cost per round.
  const std::size_t dim = 10000;
  const std::size_t k = 100;
  const auto t = paper_timing(7.0, dim);
  const double gs_per_round = t.theta(k, kOneClient) - 1.0;
  const std::size_t period = dim / (2 * k);
  const double fedavg_per_round = (paper_round(t, dim, dim) - 1.0) / static_cast<double>(period);
  EXPECT_NEAR(gs_per_round, fedavg_per_round, 1e-9);
}

TEST(TimingModel, ThetaIsMonotoneInK) {
  const auto t = paper_timing(3.0, 500);
  EXPECT_LT(t.theta(10, kOneClient), t.theta(20, kOneClient));
  EXPECT_THROW(NetworkModel(1.0, 1.0, /*dim=*/0, NetworkConfig{}, 1, 1), std::invalid_argument);
}

// -------------------------------------------------------- round cost -------

TEST(ResourceModel, DefaultsReduceToPureTime) {
  const SimulationConfig cfg;
  const auto t = paper_timing(10.0, 1000);
  EXPECT_EQ(cfg.round_cost(paper_round(t, 100.0, 100.0), 100.0, 100.0),
            paper_round(t, 100.0, 100.0));
  EXPECT_EQ(cfg.round_cost(t.theta(50.0, kOneClient), 100.0, 100.0), t.theta(50.0, kOneClient));
}

TEST(ResourceModel, CompositeCostSumsWeightedResources) {
  SimulationConfig cfg;
  cfg.money_per_value = 0.35;
  const auto t = paper_timing(10.0, 1000);
  const double up = 40.0, down = 60.0;
  const double time = paper_round(t, up, down);
  EXPECT_EQ(cfg.round_cost(time, up, down), time + 0.35 * (up + down));
}

TEST(ResourceModel, ThetaCostIsMonotoneInK) {
  // θ-cost of a k-element round (2k values each way). With β = 0 the time
  // is flat in k, so only the money term can make it grow.
  SimulationConfig cfg;
  cfg.money_per_value = 0.02;
  const auto free_links = paper_timing(0.0, 2000);
  double prev = cfg.round_cost(free_links.theta(1.0, kOneClient), 2.0, 2.0);
  for (double k = 10.0; k <= 1000.0; k *= 2.0) {
    const double cur = cfg.round_cost(free_links.theta(k, kOneClient), 2.0 * k, 2.0 * k);
    EXPECT_GT(cur, prev) << "theta cost not increasing at k=" << k;
    prev = cur;
  }
}

// ------------------------------------------------------------ client -------

TEST(Client, GradientAccumulatesAndResets) {
  // Clients borrow a workspace model rather than owning a replica.
  auto fed = data::make_synthetic(tiny_dataset());
  util::Rng mrng(1);
  auto model = tiny_model()(mrng);
  Client client(0, std::move(fed.clients[0]), model->dim(), 42);
  const double loss = client.compute_round_gradient(*model, 1, 8);
  EXPECT_TRUE(std::isfinite(loss));
  double mass = 0.0;
  for (const float v : client.accumulator().value()) mass += std::fabs(v);
  EXPECT_GT(mass, 0.0);
  EXPECT_GT(client.accumulator().dirty_chunks(), 0u);
  std::vector<std::int32_t> all(client.dim());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = static_cast<std::int32_t>(i);
  client.accumulator().reset_indices({all.data(), all.size()});
  mass = 0.0;
  for (const float v : client.accumulator().value()) mass += std::fabs(v);
  EXPECT_EQ(mass, 0.0);
}

TEST(Client, SharedStoreClientOwnsNoWeights) {
  auto fed = data::make_synthetic(tiny_dataset());
  util::Rng mrng(4);
  auto model = tiny_model()(mrng);
  Client client(0, std::move(fed.clients[0]), model->dim(), 11);
  EXPECT_FALSE(client.owns_weights());
  EXPECT_TRUE(client.weights().empty());
  client.allocate_weights(model->weights());
  EXPECT_TRUE(client.owns_weights());
  EXPECT_EQ(client.weights().size(), model->dim());
}

// --------------------------------------------------------- simulation ------

TEST(Simulation, WeightsStaySynchronizedUnderGs) {
  // The paper's key invariant (Sec. III-A): all clients share w(m).
  auto sim = make_sim("fab_topk", 20.0);
  (void)sim->run();
  // Re-run with direct access: construct again and compare client weights
  // after a few manual rounds — easiest is to rely on Simulation internals
  // via the result of a short run and check final loss is finite. For a
  // stronger check, run two simulations with identical seeds: identical
  // traces imply synchronized determinism end to end.
  auto a = make_sim("fab_topk", 20.0)->run();
  auto b = make_sim("fab_topk", 20.0)->run();
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].train_loss, b.records[i].train_loss);
    EXPECT_EQ(a.records[i].k_used, b.records[i].k_used);
  }
}

struct MethodCase {
  const char* name;
  double k;
};

// Names the test case by value; the default byte dump would embed the
// address of `name`, which changes from run to run under ASLR.
void PrintTo(const MethodCase& c, std::ostream* os) { *os << c.name << "_k" << c.k; }

class EveryMethodConverges : public ::testing::TestWithParam<MethodCase> {};

TEST_P(EveryMethodConverges, LossDropsOnSeparableData) {
  const auto [name, k] = GetParam();
  SimulationConfig cfg = fast_sim(1.0);
  cfg.max_rounds = 120;
  auto sim = make_sim(name, k, cfg);
  const auto res = sim->run();
  ASSERT_FALSE(res.records.empty());
  const double first_loss = res.records.front().train_loss;
  EXPECT_TRUE(std::isfinite(res.final_loss));
  EXPECT_LT(res.final_loss, first_loss) << name;
  EXPECT_GT(res.final_accuracy, 1.0 / 4.0) << name;  // beats random guessing
}

INSTANTIATE_TEST_SUITE_P(AllMethods, EveryMethodConverges,
                         ::testing::Values(MethodCase{"fab_topk", 20},
                                           MethodCase{"fub_topk", 20},
                                           MethodCase{"unidirectional_topk", 20},
                                           MethodCase{"periodic", 20},
                                           MethodCase{"send_all", 20},
                                           MethodCase{"fedavg", 20}));

TEST(Simulation, FedAvgPeriodOneEqualsSendAllFirstRound) {
  // With aggregation every round and identical seeds, FedAvg's first-round
  // averaged weights equal send-all's first-round update applied to w(0):
  // avg_i(w − η g_i) = w − η avg_i(g_i). Compare via the recorded train loss
  // of round 2 (computed on the synchronized weights after round 1).
  SimulationConfig cfg = fast_sim(1.0);
  cfg.max_rounds = 2;
  const std::size_t dim = [] {
    util::Rng r(1);
    return tiny_model()(r)->dim();
  }();
  // fedavg with k = D/2 => period = ⌊D/(2·D/2)⌋ = 1.
  auto fedavg = make_sim("fedavg", static_cast<double>(dim) / 2.0, cfg);
  auto sendall = make_sim("send_all", static_cast<double>(dim) / 2.0, cfg);
  const auto ra = fedavg->run();
  const auto rb = sendall->run();
  ASSERT_EQ(ra.records.size(), 2u);
  ASSERT_EQ(rb.records.size(), 2u);
  EXPECT_NEAR(ra.records[1].train_loss, rb.records[1].train_loss, 1e-5);
}

TEST(Simulation, TimeAccountingMatchesTimingModel) {
  SimulationConfig cfg = fast_sim(10.0);
  cfg.max_rounds = 5;
  auto sim = make_sim("fab_topk", 10.0, cfg);
  const auto res = sim->run();
  ASSERT_EQ(res.records.size(), 5u);
  double expected = 0.0;
  const auto t = paper_timing(10.0, sim->dim());
  for (const auto& r : res.records) {
    expected += paper_round(t, r.uplink_values, r.downlink_values);
    EXPECT_NEAR(r.time, expected, 1e-9);
  }
}

TEST(Simulation, StopsAtMaxTime) {
  SimulationConfig cfg = fast_sim(100.0);
  cfg.max_rounds = 100000;
  cfg.max_time = 50.0;
  auto sim = make_sim("send_all", 10.0, cfg);  // 101 per round => stops fast
  const auto res = sim->run();
  EXPECT_LE(res.rounds_run, 2u);
  EXPECT_GE(res.total_time, 50.0);
}

TEST(Simulation, StopsAtTargetLoss) {
  SimulationConfig cfg = fast_sim(0.1);
  cfg.max_rounds = 500;
  cfg.target_loss = 1.2;
  cfg.eval_every = 5;
  auto sim = make_sim("fab_topk", 40.0, cfg);
  const auto res = sim->run();
  EXPECT_TRUE(res.reached_target);
  EXPECT_LE(res.final_loss, 1.2);
  EXPECT_LT(res.rounds_run, 500u);
}

TEST(Simulation, SwitchAtLossReplacesController) {
  // Fig. 1 mechanism: run with large k until loss <= psi, then k = 5.
  SimulationConfig cfg = fast_sim(0.1);
  cfg.max_rounds = 300;
  cfg.eval_every = 5;
  cfg.switch_at_loss = 1.3;
  cfg.switch_to_k = 5.0;
  auto sim = make_sim("fab_topk", 100.0, cfg);
  const auto res = sim->run();
  ASSERT_GT(res.k_sequence.size(), 10u);
  EXPECT_DOUBLE_EQ(res.k_sequence.front(), 100.0);
  EXPECT_DOUBLE_EQ(res.k_sequence.back(), 5.0);  // switched at some point
}

TEST(Simulation, FairnessCountsFlowThrough) {
  SimulationConfig cfg = fast_sim(1.0);
  cfg.max_rounds = 20;
  auto sim = make_sim("fab_topk", 25.0, cfg);
  const std::size_t n = sim->num_clients();
  const auto res = sim->run();
  ASSERT_EQ(res.contributed_totals.size(), n);
  // FAB guarantees ⌊k/N⌋ = ⌊25/5⌋ = 5 elements per client per round.
  for (const auto total : res.contributed_totals) {
    EXPECT_GE(total, 5u * res.rounds_run);
  }
  const auto per_round = contribution_per_round(res.contributed_totals, res.rounds_run);
  for (const auto v : per_round) EXPECT_GE(v, 5.0);
}

TEST(Simulation, AdaptiveControllerReceivesValidFeedback) {
  SimulationConfig cfg = fast_sim(10.0);
  cfg.max_rounds = 80;
  auto dataset = data::make_synthetic(tiny_dataset(2));
  auto factory = tiny_model();
  util::Rng probe(1);
  const std::size_t dim = factory(probe)->dim();
  auto controller = std::make_unique<online::ExtendedSignOgd>(
      online::ExtendedSignOgd::Config{2.0, static_cast<double>(dim), 0.0, 1.5, 10});
  Simulation sim(cfg, std::move(dataset), factory, sparsify::make_method("fab_topk", dim, 5),
                 std::move(controller));
  const auto res = sim.run();
  EXPECT_EQ(res.k_sequence.size(), res.rounds_run);
  // k must have moved at least once (valid signs estimated), and most rounds
  // should produce valid estimates on this easy separable problem.
  bool moved = false;
  for (std::size_t i = 1; i < res.k_sequence.size(); ++i) {
    if (res.k_sequence[i] != res.k_sequence[i - 1]) moved = true;
  }
  EXPECT_TRUE(moved);
  EXPECT_LT(res.invalid_probe_rounds, res.rounds_run);
}

TEST(Simulation, ExtremeCommTimePushesAdaptiveKDown) {
  // With β huge, communication dominates: the learned k should end well below
  // its starting midpoint. With β tiny, k should stay high. (Figs. 7–8 trend.)
  auto run_with_beta = [&](double beta) {
    SimulationConfig cfg = fast_sim(beta);
    cfg.max_rounds = 150;
    auto dataset = data::make_synthetic(tiny_dataset(4));
    auto factory = tiny_model();
    util::Rng probe(1);
    const std::size_t dim = factory(probe)->dim();
    auto controller = std::make_unique<online::ExtendedSignOgd>(
        online::ExtendedSignOgd::Config{2.0, static_cast<double>(dim), 0.0, 1.5, 10});
    Simulation sim(cfg, std::move(dataset), factory, sparsify::make_method("fab_topk", dim, 5),
                   std::move(controller));
    const auto res = sim.run();
    double tail = 0.0;
    const std::size_t tail_n = res.k_sequence.size() / 4;
    for (std::size_t i = res.k_sequence.size() - tail_n; i < res.k_sequence.size(); ++i) {
      tail += res.k_sequence[i];
    }
    return tail / static_cast<double>(tail_n);
  };
  const double k_cheap_comm = run_with_beta(0.01);
  const double k_dear_comm = run_with_beta(300.0);
  EXPECT_GT(k_cheap_comm, k_dear_comm);
}

TEST(Simulation, ValidatesConfiguration) {
  auto dataset = data::make_synthetic(tiny_dataset());
  auto factory = tiny_model();
  util::Rng probe(1);
  const std::size_t dim = factory(probe)->dim();
  SimulationConfig bad = fast_sim();
  bad.lr = 0.0f;
  EXPECT_THROW(Simulation(bad, std::move(dataset), factory,
                          sparsify::make_method("fab_topk", dim, 5),
                          std::make_unique<online::FixedK>(5.0)),
               std::invalid_argument);
}

// Construction-only checks of SimulationConfig::validate(): each setting is
// rejected before any round runs, NaN included.
void expect_rejected(const SimulationConfig& bad) {
  auto factory = tiny_model();
  util::Rng probe(1);
  const std::size_t dim = factory(probe)->dim();
  EXPECT_THROW(Simulation(bad, data::make_synthetic(tiny_dataset()), factory,
                          sparsify::make_method("fab_topk", dim, 5),
                          std::make_unique<online::FixedK>(5.0)),
               std::invalid_argument);
}

TEST(SimulationConfigValidation, RejectsNanParticipation) {
  SimulationConfig bad = fast_sim();
  bad.participation = std::numeric_limits<double>::quiet_NaN();
  expect_rejected(bad);
}

TEST(SimulationConfigValidation, RejectsNanLearningRate) {
  SimulationConfig bad = fast_sim();
  bad.lr = std::numeric_limits<float>::quiet_NaN();
  expect_rejected(bad);
}

TEST(SimulationConfigValidation, RejectsNegativeCommTime) {
  SimulationConfig bad = fast_sim();
  bad.comm_time = -1.0;
  expect_rejected(bad);
}

TEST(SimulationConfigValidation, RejectsNonPositiveComputeTime) {
  for (const double t : {0.0, -1.0, std::numeric_limits<double>::quiet_NaN()}) {
    SimulationConfig bad = fast_sim();
    bad.compute_time = t;
    expect_rejected(bad);
  }
}

TEST(SimulationConfigValidation, RejectsNanAsyncSettings) {
  SimulationConfig bad = fast_sim();
  bad.aggregation = AggregationMode::kBufferedAsync;
  bad.async.staleness_lambda = std::numeric_limits<double>::quiet_NaN();
  expect_rejected(bad);
  bad.async.staleness_lambda = 0.25;
  bad.async.trigger_scale = std::numeric_limits<double>::quiet_NaN();
  expect_rejected(bad);
}

TEST(SimulationConfigValidation, RejectsBadMoneyPerValue) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double v : {nan, inf, -0.5}) {
    SimulationConfig bad = fast_sim();
    bad.money_per_value = v;
    EXPECT_THROW(bad.validate(), std::invalid_argument) << v;
  }
  SimulationConfig bad = fast_sim();
  bad.money_per_value = nan;
  expect_rejected(bad);  // before the Simulation builds anything
}

TEST(SimulationConfigValidation, RejectsNanOrNonPositiveMaxTime) {
  for (const double t : {std::numeric_limits<double>::quiet_NaN(), 0.0, -3.0}) {
    SimulationConfig bad = fast_sim();
    bad.max_time = t;
    EXPECT_THROW(bad.validate(), std::invalid_argument) << t;
  }
  SimulationConfig unbounded = fast_sim();
  unbounded.max_time = std::numeric_limits<double>::infinity();  // the default
  EXPECT_NO_THROW(unbounded.validate());
}

TEST(SimulationConfigValidation, RejectsNanOrNegativeStopAndSwitchLosses) {
  for (const double v : {std::numeric_limits<double>::quiet_NaN(), -0.1}) {
    SimulationConfig bad = fast_sim();
    bad.target_loss = v;
    EXPECT_THROW(bad.validate(), std::invalid_argument) << "target_loss " << v;
    bad = fast_sim();
    bad.switch_at_loss = v;
    bad.switch_to_k = 10.0;
    EXPECT_THROW(bad.validate(), std::invalid_argument) << "switch_at_loss " << v;
  }
}

TEST(SimulationConfigValidation, RejectsBadSwitchToKOnlyWhenSwitching) {
  for (const double k : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(), 0.0, 0.5}) {
    SimulationConfig bad = fast_sim();
    bad.switch_at_loss = 1.0;
    bad.switch_to_k = k;
    EXPECT_THROW(bad.validate(), std::invalid_argument) << k;
    bad.switch_at_loss = 0.0;  // no switch: switch_to_k is never read
    EXPECT_NO_THROW(bad.validate()) << k;
  }
  SimulationConfig ok = fast_sim();
  ok.switch_at_loss = 1.0;
  ok.switch_to_k = 1.0;
  EXPECT_NO_THROW(ok.validate());
}

TEST(SimulationConfigValidation, MessageNamesTheSetting) {
  SimulationConfig bad = fast_sim();
  bad.participation = 1.5;
  try {
    bad.validate();
    FAIL() << "participation 1.5 was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("participation"), std::string::npos) << e.what();
  }
  EXPECT_NO_THROW(fast_sim().validate());
}

// Two identical runs; then one evaluates on the pool and the other replays
// the serial oracle on its own rng_. Loss and accuracy must agree bit for
// bit, and both runs must go on to sample the same participants.
void expect_pooled_evaluation_matches_oracle(const std::string& method, double fixed_k,
                                             std::size_t eval_samples,
                                             std::size_t test_samples) {
  for (const std::size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    SimulationConfig cfg = fast_sim();
    cfg.threads = threads;
    cfg.max_rounds = 12;
    cfg.participation = 0.6;  // sampling draws from rng_ after the evaluation
    cfg.eval_samples_per_client = eval_samples;
    cfg.eval_test_samples = test_samples;
    auto pooled = make_sim(method, fixed_k, cfg);
    auto serial = make_sim(method, fixed_k, cfg);
    pooled->run();
    serial->run();

    const RoundRecord got = SimulationTestPeer::evaluate(*pooled);
    Evaluator oracle(tiny_model(), 3);
    oracle.set_weights(SimulationTestPeer::global_weights(*serial));
    const auto fed = data::make_synthetic(tiny_dataset());
    const RoundRecord want = oracle.evaluate(fed, cfg, SimulationTestPeer::rng(*serial));
    EXPECT_TRUE(std::isfinite(got.global_loss));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.global_loss),
              std::bit_cast<std::uint64_t>(want.global_loss));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.accuracy),
              std::bit_cast<std::uint64_t>(want.accuracy));
    EXPECT_EQ(SimulationTestPeer::sample_participants(*pooled),
              SimulationTestPeer::sample_participants(*serial));
  }
}

TEST(EvaluationOnPool, WholeDatasetClientsMatchSerialOracle) {
  expect_pooled_evaluation_matches_oracle("fab_topk", 20, 0, 0);
}

TEST(EvaluationOnPool, SubsampledClientsMatchSerialOracle) {
  // Every client holds more than 10 samples and the test set 128, so each
  // evaluation draws 5·10 + 50 rows from rng_.
  const auto fed = data::make_synthetic(tiny_dataset());
  for (const auto& c : fed.clients) ASSERT_GT(c.size(), 10u);
  expect_pooled_evaluation_matches_oracle("fab_topk", 20, 10, 50);
}

TEST(EvaluationOnPool, FedAvgMatchesSerialOracle) {
  expect_pooled_evaluation_matches_oracle("fedavg", 20, 10, 50);
}

TEST(Evaluator, LossAndAccuracyOnKnownModel) {
  auto fed = data::make_synthetic(tiny_dataset());
  Evaluator ev(tiny_model(), 3);
  util::Rng rng(8);
  const double loss = ev.loss(fed.test, 0, rng);
  EXPECT_TRUE(std::isfinite(loss));
  EXPECT_NEAR(loss, std::log(4.0), 1.5);  // random init ≈ uniform predictions
  const double acc = ev.accuracy(fed.test, 0, rng);
  EXPECT_GE(acc, 0.0);
  EXPECT_LE(acc, 1.0);
}

}  // namespace
}  // namespace fedsparse::fl
