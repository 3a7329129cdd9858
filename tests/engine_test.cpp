// Shared-store round engine tests: the one shared global weight store must
// track Algorithm 1's w(m) exactly (checked against a test-side replica
// oracle that replays every broadcast update onto its own copy), runs must
// be deterministic across thread counts, and no client may own a model
// replica. The traversal tests pin tiered ≡ dense-input, sharded ≡
// single-shard and fused ≡ separate-pass selections.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>

#include "data/synthetic.h"
#include "fl/simulation.h"
#include "nn/models.h"
#include "online/extended_sign_ogd.h"
#include "online/factory.h"
#include "sparsify/method.h"
#include "sparsify/sparse_vector.h"
#include "tensor/matrix.h"

namespace fedsparse::fl {
namespace {

data::SyntheticConfig tiny_dataset(std::uint64_t seed = 1) {
  data::SyntheticConfig cfg;
  cfg.num_classes = 4;
  cfg.channels = 1;
  cfg.height = 4;
  cfg.width = 4;
  cfg.num_clients = 10;
  cfg.samples_per_client = 24;
  cfg.samples_spread = 0.3;
  cfg.test_samples = 64;
  cfg.class_sep = 2.5;
  cfg.noise_std = 0.6;
  cfg.partition = data::PartitionKind::kByWriter;
  cfg.classes_per_writer = 2;
  cfg.seed = seed;
  return cfg;
}

nn::ModelFactory tiny_model() { return nn::mlp(16, {12}, 4); }

// Test-side overrides of a method as the simulation sees it.
struct MethodOverrides {
  std::size_t shards = 0;    // > 0: pin the round engine's shard count
  bool dense_input = false;  // strip chunk summaries
};

// Forwards every call to the wrapped method. A pinned shard count replaces
// the one the simulation derives from its pool; dense input makes every
// selection take the dense scans instead of the chunk-pruned ones.
class OverriddenMethod : public sparsify::Method {
 public:
  OverriddenMethod(std::unique_ptr<sparsify::Method> inner, MethodOverrides ov)
      : inner_(std::move(inner)), ov_(ov) {
    if (ov_.shards > 0) inner_->set_sharding(ov_.shards);
  }

  std::string name() const override { return inner_->name(); }
  bool local_update_style() const override { return inner_->local_update_style(); }
  sparsify::RoundOutcome round(const sparsify::RoundInput& in, std::size_t k) override {
    return inner_->round(view(in), k);
  }
  sparsify::RoundOutcome probe_round(const sparsify::RoundInput& in, std::size_t k) override {
    return inner_->probe_round(view(in), k);
  }
  void set_sharding(std::size_t shards) override {
    if (ov_.shards == 0) inner_->set_sharding(shards);
  }
  void set_validation(const sparsify::ValidationConfig& cfg) override {
    inner_->set_validation(cfg);
  }
  void set_robust(const sparsify::RobustConfig& cfg) override { inner_->set_robust(cfg); }
  float upload_threshold_hint(std::size_t client_id, std::size_t k) const override {
    return inner_->upload_threshold_hint(client_id, k);
  }

 private:
  const sparsify::RoundInput& view(const sparsify::RoundInput& in) {
    if (!ov_.dense_input) return in;
    stripped_ = in;
    stripped_.client_chunk_max.clear();
    return stripped_;
  }

  std::unique_ptr<sparsify::Method> inner_;
  MethodOverrides ov_;
  sparsify::RoundInput stripped_;
};

std::unique_ptr<sparsify::Method> make_test_method(const std::string& method, std::size_t dim,
                                                   MethodOverrides ov) {
  auto m = sparsify::make_method(method, dim, 5);
  if (ov.shards == 0 && !ov.dense_input) return m;
  return std::make_unique<OverriddenMethod>(std::move(m), ov);
}

SimulationConfig engine_sim(std::size_t threads = 2) {
  SimulationConfig cfg;
  cfg.lr = 0.05f;
  cfg.batch = 8;
  cfg.max_rounds = 40;
  cfg.comm_time = 5.0;
  cfg.eval_every = 10;
  cfg.eval_samples_per_client = 0;
  cfg.eval_test_samples = 0;
  cfg.threads = threads;
  cfg.seed = 7;
  return cfg;
}

// Test-side per-replica oracle. Algorithm 1 (Lines 13–15) keeps every
// client at the same w(m), so the engine holds one shared store. This
// decorator keeps a replica of w(m) the long way: starting from the initial
// weights, it applies each forwarded round's broadcast update to its own
// copy (w -= lr·u through the library's axpy kernels, so both sides round
// alike). Before every server round — after the previous round's apply and
// k'-probe shift/restore — it compares every client's weights with the
// replica bit for bit.
class ReplicaOracle final : public OverriddenMethod {
 public:
  ReplicaOracle(std::unique_ptr<sparsify::Method> inner, float lr)
      : OverriddenMethod(std::move(inner), {}), lr_(lr) {}

  /// Snapshots the initial weights; call between construction and run().
  void attach(const Simulation& sim) {
    sim_ = &sim;
    const auto w = sim.client_weights(0);
    replica_.assign(w.begin(), w.end());
  }

  /// Compares every client's current weights with the replica.
  void check() {
    ++checks_;
    for (std::size_t i = 0; i < sim_->num_clients(); ++i) {
      const auto w = sim_->client_weights(i);
      if (w.size() != replica_.size() ||
          std::memcmp(w.data(), replica_.data(), w.size() * sizeof(float)) != 0) {
        ++mismatches_;
      }
    }
  }

  sparsify::RoundOutcome round(const sparsify::RoundInput& in, std::size_t k) override {
    check();
    sparsify::RoundOutcome out = OverriddenMethod::round(in, k);
    using Kind = sparsify::RoundOutcome::Kind;
    const std::span<float> w{replica_.data(), replica_.size()};
    if (out.kind == Kind::kSparseUpdate) {
      sparsify::axpy_sparse(-lr_, out.update, w);
    } else if (out.kind == Kind::kDenseUpdate) {
      tensor::axpy(-lr_, {out.dense.data(), out.dense.size()}, w);
    }
    return out;
  }
  sparsify::RoundOutcome probe_round(const sparsify::RoundInput& in, std::size_t k) override {
    ++probes_;
    return OverriddenMethod::probe_round(in, k);
  }

  std::size_t checks() const { return checks_; }
  std::size_t mismatches() const { return mismatches_; }
  std::size_t probes() const { return probes_; }

 private:
  float lr_;
  const Simulation* sim_ = nullptr;
  std::vector<float> replica_;
  std::size_t checks_ = 0;
  std::size_t mismatches_ = 0;
  std::size_t probes_ = 0;
};

std::unique_ptr<online::KController> adaptive_controller(std::size_t dim) {
  return std::make_unique<online::ExtendedSignOgd>(
      online::ExtendedSignOgd::Config{2.0, static_cast<double>(dim), 0.0, 1.5, 10});
}

SimulationResult run_fixed_k(const std::string& method, double k, SimulationConfig cfg,
                             MethodOverrides ov = {}) {
  auto dataset = data::make_synthetic(tiny_dataset(1));
  auto factory = tiny_model();
  util::Rng probe(1);
  const std::size_t dim = factory(probe)->dim();
  Simulation sim(cfg, std::move(dataset), factory, make_test_method(method, dim, ov),
                 std::make_unique<online::FixedK>(k));
  return sim.run();
}

SimulationResult run_adaptive(const std::string& method, SimulationConfig cfg,
                              MethodOverrides ov = {}) {
  auto dataset = data::make_synthetic(tiny_dataset(2));
  auto factory = tiny_model();
  util::Rng probe(1);
  const std::size_t dim = factory(probe)->dim();
  Simulation sim(cfg, std::move(dataset), factory, make_test_method(method, dim, ov),
                 adaptive_controller(dim));
  return sim.run();
}

// Runs `method` under the replica oracle (fixed k, or Algorithm 3 when
// k == 0) and checks the shared store against it before every server round
// and once more after the run.
void expect_store_matches_replica(const std::string& method, double k, SimulationConfig cfg,
                                  const std::string& label) {
  auto dataset = data::make_synthetic(tiny_dataset(k > 0.0 ? 1 : 2));
  auto factory = tiny_model();
  util::Rng probe(1);
  const std::size_t dim = factory(probe)->dim();
  auto oracle_owner =
      std::make_unique<ReplicaOracle>(sparsify::make_method(method, dim, 5), cfg.lr);
  ReplicaOracle& oracle = *oracle_owner;
  std::unique_ptr<online::KController> controller;
  if (k > 0.0) {
    controller = std::make_unique<online::FixedK>(k);
  } else {
    controller = adaptive_controller(dim);
  }
  Simulation sim(cfg, std::move(dataset), factory, std::move(oracle_owner),
                 std::move(controller));
  oracle.attach(sim);
  const SimulationResult res = sim.run();
  oracle.check();
  EXPECT_EQ(oracle.checks(), res.rounds_run + 1) << label;
  EXPECT_EQ(oracle.mismatches(), 0u) << label;
  if (k == 0.0) {
    EXPECT_GT(oracle.probes(), 0u) << label << ": the k' probe never ran";
  }
}

// Bitwise comparison of everything a run records: round traces, loss curves,
// k sequences, fairness totals. EXPECT_EQ on doubles is deliberate — the two
// runs must produce the *same bits*, not merely close values.
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
    if (std::isnan(ra.global_loss)) {
      EXPECT_TRUE(std::isnan(rb.global_loss)) << label << " round " << ra.round;
    } else {
      EXPECT_EQ(ra.global_loss, rb.global_loss) << label << " round " << ra.round;
      EXPECT_EQ(ra.accuracy, rb.accuracy) << label << " round " << ra.round;
    }
  }
  EXPECT_EQ(a.k_sequence, b.k_sequence) << label;
  EXPECT_EQ(a.contributed_totals, b.contributed_totals) << label;
  EXPECT_EQ(a.rounds_run, b.rounds_run) << label;
  EXPECT_EQ(a.total_time, b.total_time) << label;
  EXPECT_EQ(a.final_loss, b.final_loss) << label;
  EXPECT_EQ(a.final_accuracy, b.final_accuracy) << label;
  EXPECT_EQ(a.invalid_probe_rounds, b.invalid_probe_rounds) << label;
}

// ---------------- shared store vs the replica oracle ------------------------

class SharedVsPerReplica : public ::testing::TestWithParam<const char*> {};

TEST_P(SharedVsPerReplica, FixedKTraceIsByteIdentical) {
  // Sparse (top-k, periodic) and dense (send_all) updates alike are applied
  // once to the shared store; every client must read the replica's bits.
  const std::string method = GetParam();
  expect_store_matches_replica(method, 20.0, engine_sim(), method);
}

INSTANTIATE_TEST_SUITE_P(AllSynchronizedMethods, SharedVsPerReplica,
                         ::testing::Values("fab_topk", "fub_topk", "unidirectional_topk",
                                           "periodic", "send_all"));

TEST(SharedReplicaEngine, AdaptiveProbePathIsByteIdentical) {
  // The adaptive controller exercises the k'-probe: the engine shifts its
  // store to w'(m) once, evaluates every participant, and restores the
  // saved values. The next round must start from the replica's exact bits.
  for (const char* method : {"fab_topk", "fub_topk", "unidirectional_topk"}) {
    SimulationConfig cfg = engine_sim();
    cfg.max_rounds = 60;
    expect_store_matches_replica(method, 0.0, cfg, method);
  }
}

TEST(SharedReplicaEngine, PartialParticipationIsByteIdentical) {
  // Reset lists arrive slot-indexed over the participant subset, and the
  // unsampled clients still receive the broadcast: every client, sampled or
  // not, must hold the replica's weights.
  SimulationConfig cfg = engine_sim();
  cfg.participation = 0.4;
  expect_store_matches_replica("fab_topk", 12.0, cfg, "fab_topk/participation=0.4");
}

// ---------------- workspace-reuse determinism across thread counts ----------

TEST(SharedReplicaEngine, DeterministicAcrossThreadCounts) {
  // 1 / 2 / 8 threads mean 2 / 3 / 9 workspaces and entirely different
  // task-to-workspace assignments; every trace must still be byte-identical.
  const auto t1 = run_fixed_k("fab_topk", 20.0, engine_sim(1));
  const auto t2 = run_fixed_k("fab_topk", 20.0, engine_sim(2));
  const auto t8 = run_fixed_k("fab_topk", 20.0, engine_sim(8));
  expect_identical(t1, t2, "threads 1 vs 2");
  expect_identical(t1, t8, "threads 1 vs 8");
}

TEST(SharedReplicaEngine, AdaptiveDeterministicAcrossThreadCounts) {
  SimulationConfig c1 = engine_sim(1);
  SimulationConfig c8 = engine_sim(8);
  c1.max_rounds = c8.max_rounds = 50;
  const auto t1 = run_adaptive("fab_topk", c1);
  const auto t8 = run_adaptive("fab_topk", c8);
  expect_identical(t1, t8, "adaptive threads 1 vs 8");
}

// ---------------- tiered vs dense accumulator traversal ---------------------

// The chunk-tiered round view (accumulator chunk summaries handed to the
// methods, selection scans pruned) is a pure
// traversal-order optimization: every trace it produces must be
// byte-identical to a run whose methods see dense inputs only, per method,
// across thread counts, and under churn.

class TieredVsDense : public ::testing::TestWithParam<const char*> {};

TEST_P(TieredVsDense, FixedKTraceIsByteIdentical) {
  const std::string method = GetParam();
  for (const std::size_t threads : {1u, 2u, 8u}) {
    const SimulationConfig cfg = engine_sim(threads);
    const auto tiered = run_fixed_k(method, 20.0, cfg);
    const auto dense = run_fixed_k(method, 20.0, cfg, {.dense_input = true});
    expect_identical(tiered, dense, method + "/threads=" + std::to_string(threads));
  }
}

INSTANTIATE_TEST_SUITE_P(AllTopKMethods, TieredVsDense,
                         ::testing::Values("fab_topk", "fub_topk", "unidirectional_topk",
                                           "periodic", "send_all"));

TEST(TieredVsDense, AdaptiveProbePathIsByteIdentical) {
  // The k'-probe reruns selection through the same hint store right after
  // the real round — the hint interplay must not depend on the traversal.
  SimulationConfig cfg = engine_sim();
  cfg.max_rounds = 60;
  const auto tiered = run_adaptive("fab_topk", cfg);
  const auto dense = run_adaptive("fab_topk", cfg, {.dense_input = true});
  expect_identical(tiered, dense, "adaptive fab_topk tiered vs dense");
}

TEST(TieredVsDense, ChurnedRoundsAreByteIdentical) {
  // Availability churn is where the tiered store earns its keep: offline
  // clients keep accumulating without flushing, then rejoin with stale-high
  // chunk bounds. Traces must still match the dense traversal bit for bit
  // at every thread count.
  for (const std::size_t threads : {1u, 2u, 8u}) {
    SimulationConfig cfg = engine_sim(threads);
    cfg.max_rounds = 50;
    cfg.network.p_drop = 0.35;
    cfg.network.p_recover = 0.3;
    cfg.network.rate_jitter_sigma = 0.2;
    cfg.participation = 0.7;
    const auto tiered = run_fixed_k("fab_topk", 15.0, cfg);
    const auto dense = run_fixed_k("fab_topk", 15.0, cfg, {.dense_input = true});
    expect_identical(tiered, dense, "churn/threads=" + std::to_string(threads));
  }
}

// ---------------- sharded round engine ---------------------------------------

// The shard count (per-shard arenas, keyed tree merge, bucketed aggregation)
// is a pure execution-strategy choice: every trace must be byte-identical at
// every shard count, for every top-k method, under churn, partial
// participation, and the adaptive probe. The simulation derives the count
// from its pool; these tests pin it through the method instead.

class ShardedVsSingleShard : public ::testing::TestWithParam<const char*> {};

TEST_P(ShardedVsSingleShard, FixedKTraceIsByteIdentical) {
  const std::string method = GetParam();
  const SimulationConfig cfg = engine_sim();
  const auto ref = run_fixed_k(method, 20.0, cfg, {.shards = 1});
  for (const std::size_t shards : {2u, 8u}) {
    const auto sharded = run_fixed_k(method, 20.0, cfg, {.shards = shards});
    expect_identical(ref, sharded, method + "/shards=" + std::to_string(shards));
  }
}

INSTANTIATE_TEST_SUITE_P(AllTopKMethods, ShardedVsSingleShard,
                         ::testing::Values("fab_topk", "fub_topk", "unidirectional_topk"));

TEST(ShardedEngine, AdaptiveProbePathIsByteIdentical) {
  // Probe rounds rerun the selection with k' ≠ k right after the real round;
  // the per-client hint evolution must not depend on the shard count.
  for (const char* method : {"fab_topk", "fub_topk", "unidirectional_topk"}) {
    SimulationConfig cfg = engine_sim();
    cfg.max_rounds = 50;
    const auto ref = run_adaptive(method, cfg, {.shards = 1});
    const auto sharded = run_adaptive(method, cfg, {.shards = 8});
    expect_identical(ref, sharded, std::string(method) + " adaptive shards 1 vs 8");
  }
}

TEST(ShardedEngine, ChurnAndPartialParticipationAreByteIdentical) {
  // Fluctuating participant counts cross shard-plan boundaries every round
  // (some rounds have fewer participants than shards).
  SimulationConfig cfg = engine_sim();
  cfg.max_rounds = 50;
  cfg.network.p_drop = 0.35;
  cfg.network.p_recover = 0.3;
  cfg.network.rate_jitter_sigma = 0.2;
  cfg.participation = 0.7;
  const auto ref = run_fixed_k("fab_topk", 15.0, cfg, {.shards = 1});
  for (const std::size_t shards : {2u, 8u}) {
    const auto sharded = run_fixed_k("fab_topk", 15.0, cfg, {.shards = shards});
    expect_identical(ref, sharded, "churn/shards=" + std::to_string(shards));
  }
}

TEST(ShardedEngine, AutoShardSelectionIsDeterministicAcrossThreadCounts) {
  // The simulation's shard count tracks the pool size: 1 / 2 / 8 threads
  // resolve to 1 / 3 / 9 shards. Identical traces required regardless.
  const auto t1 = run_fixed_k("fab_topk", 20.0, engine_sim(1));
  const auto t2 = run_fixed_k("fab_topk", 20.0, engine_sim(2));
  const auto t8 = run_fixed_k("fab_topk", 20.0, engine_sim(8));
  expect_identical(t1, t2, "auto shards, threads 1 vs 2");
  expect_identical(t1, t8, "auto shards, threads 1 vs 8");
}

// ---------------- hinted scans on a wide model ------------------------------

// Selection only runs its hinted threshold scan above the prefilter gate
// (D >= 4096), which the tiny 256-dim MLP above never reaches.

data::SyntheticConfig wide_dataset(std::uint64_t seed = 3) {
  data::SyntheticConfig cfg;
  cfg.num_classes = 10;
  cfg.channels = 1;
  cfg.height = 16;
  cfg.width = 16;
  cfg.num_clients = 6;
  cfg.samples_per_client = 20;
  cfg.samples_spread = 0.3;
  cfg.test_samples = 64;
  cfg.class_sep = 2.5;
  cfg.noise_std = 0.6;
  cfg.partition = data::PartitionKind::kByWriter;
  cfg.classes_per_writer = 3;
  cfg.seed = seed;
  return cfg;
}

SimulationResult run_wide(const std::string& method, std::unique_ptr<online::KController> ctrl,
                          SimulationConfig cfg, MethodOverrides ov) {
  auto dataset = data::make_synthetic(wide_dataset());
  auto factory = nn::mlp(256, {64}, 10);  // dim 17098 >= prefilter gate
  util::Rng probe(1);
  const std::size_t dim = factory(probe)->dim();
  Simulation sim(cfg, std::move(dataset), factory, make_test_method(method, dim, ov),
                 std::move(ctrl));
  return sim.run();
}

TEST(TieredVsDense, WideModelHintedScansAreByteIdentical) {
  // Chunk-pruned hinted scans against the unpruned ones, at fixed k and
  // under Algorithm 3, whose k' probe reruns selection with k' != k in the
  // same round through the same hint store.
  SimulationConfig cfg = engine_sim();
  cfg.max_rounds = 15;
  for (const char* method : {"fab_topk", "fub_topk", "unidirectional_topk"}) {
    const auto tiered = run_wide(method, std::make_unique<online::FixedK>(64.0), cfg, {});
    const auto dense = run_wide(method, std::make_unique<online::FixedK>(64.0), cfg,
                                {.dense_input = true});
    expect_identical(tiered, dense, std::string(method) + " wide tiered vs dense");
  }
  util::Rng probe(1);
  const auto dim = static_cast<double>(nn::mlp(256, {64}, 10)(probe)->dim());
  const auto adaptive = [&](MethodOverrides ov) {
    auto controller = std::make_unique<online::ExtendedSignOgd>(
        online::ExtendedSignOgd::Config{2.0, dim, 0.0, 1.5, 64});
    return run_wide("fab_topk", std::move(controller), cfg, ov);
  };
  expect_identical(adaptive({}), adaptive({.dense_input = true}),
                   "adaptive fab_topk wide tiered vs dense");
}

// ---------------- weight-layout invariants ----------------------------------

TEST(SharedReplicaEngine, SynchronizedClientsResolveToTheSharedStore) {
  auto dataset = data::make_synthetic(tiny_dataset());
  auto factory = tiny_model();
  util::Rng probe(1);
  const std::size_t dim = factory(probe)->dim();
  Simulation sim(engine_sim(), std::move(dataset), factory,
                 sparsify::make_method("fab_topk", dim, 5),
                 std::make_unique<online::FixedK>(10.0));
  (void)sim.run();
  // No per-client replicas: every client's weights alias the same storage.
  const auto w0 = sim.client_weights(0);
  for (std::size_t i = 1; i < sim.num_clients(); ++i) {
    EXPECT_EQ(sim.client_weights(i).data(), w0.data()) << "client " << i;
  }
}

}  // namespace
}  // namespace fedsparse::fl
