// Byzantine-resilient sparse aggregation (fl/faults.h adversary models,
// sparsify/robust.h + BucketAggregator::run_robust, reputation quarantine):
//  * adversary draws are pure in (cohort seed, round, client) and cohort
//    membership is round-independent — attacked runs are replayable;
//  * every attack transform leaves the payload structurally valid and finite:
//    adversarial uploads are the robust stage's problem, not screening's;
//  * the robust statistics (trimmed mean, median, thin-support clipped mean)
//    reduce to known closed-form values on hand-built contribution groups and
//    are byte-identical across shard counts;
//  * an attacked, defended simulation trace is bitwise invariant across
//    thread counts and shard counts, and the reputation pass quarantines the
//    sign-flipping cohort through the validator's suspect-strike machinery;
//  * a recorded attacked run (sync and buffered-async) replays from the log
//    alone with zero digest mismatches at any shard count;
//  * a fuzz harness drives screening + robust reduction with adversarial
//    payload generators (duplicate/out-of-range indices, NaN/Inf, norm
//    blowups, empty and all-attacker rounds) and checks the invariants the
//    engine relies on: malformed payloads never survive the screen, surviving
//    weights stay a convex combination, the robust aggregate stays finite and
//    shard-count invariant.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "data/synthetic.h"
#include "fl/faults.h"
#include "fl/replay.h"
#include "fl/simulation.h"
#include "nn/models.h"
#include "online/controller.h"
#include "sparsify/method.h"
#include "sparsify/robust.h"
#include "sparsify/shard_engine.h"
#include "sparsify/validate.h"
#include "util/rng.h"

namespace fedsparse::fl {
namespace {

data::SyntheticConfig tiny_dataset(std::uint64_t seed = 1, std::size_t clients = 10) {
  data::SyntheticConfig cfg;
  cfg.num_classes = 4;
  cfg.channels = 1;
  cfg.height = 4;
  cfg.width = 4;
  cfg.num_clients = clients;
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

SimulationConfig base_sim(std::size_t threads = 2) {
  SimulationConfig cfg;
  cfg.lr = 0.05f;
  cfg.batch = 8;
  cfg.max_rounds = 25;
  cfg.comm_time = 5.0;
  cfg.eval_every = 10;
  cfg.eval_samples_per_client = 0;
  cfg.eval_test_samples = 0;
  cfg.threads = threads;
  cfg.seed = 7;
  return cfg;
}

SimulationResult run_fixed_k(const std::string& method, double k, SimulationConfig cfg,
                             RoundRecorder* recorder = nullptr, std::uint64_t data_seed = 1,
                             std::size_t clients = 10) {
  auto dataset = data::make_synthetic(tiny_dataset(data_seed, clients));
  auto factory = tiny_model();
  util::Rng probe(1);
  const std::size_t dim = factory(probe)->dim();
  Simulation sim(cfg, std::move(dataset), factory, sparsify::make_method(method, dim, 5),
                 std::make_unique<online::FixedK>(k));
  sim.set_recorder(recorder);
  return sim.run();
}

// Bitwise trace comparison including the adversary / robust-stage counters.
void expect_identical(const SimulationResult& a, const SimulationResult& b,
                      const std::string& label) {
  ASSERT_EQ(a.records.size(), b.records.size()) << label;
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    const RoundRecord& ra = a.records[i];
    const RoundRecord& rb = b.records[i];
    EXPECT_EQ(ra.time, rb.time) << label << " round " << ra.round;
    EXPECT_EQ(ra.k_used, rb.k_used) << label << " round " << ra.round;
    EXPECT_EQ(ra.train_loss, rb.train_loss) << label << " round " << ra.round;
    EXPECT_EQ(ra.uplink_values, rb.uplink_values) << label << " round " << ra.round;
    EXPECT_EQ(ra.downlink_values, rb.downlink_values) << label << " round " << ra.round;
    EXPECT_EQ(ra.participants, rb.participants) << label << " round " << ra.round;
    EXPECT_EQ(ra.byzantine, rb.byzantine) << label << " round " << ra.round;
    EXPECT_EQ(ra.rejected, rb.rejected) << label << " round " << ra.round;
    EXPECT_EQ(ra.quarantined, rb.quarantined) << label << " round " << ra.round;
    EXPECT_EQ(ra.suspects, rb.suspects) << label << " round " << ra.round;
    EXPECT_EQ(ra.trust, rb.trust) << label << " round " << ra.round;
    EXPECT_EQ(ra.degraded, rb.degraded) << label << " round " << ra.round;
  }
  EXPECT_EQ(a.k_sequence, b.k_sequence) << label;
  EXPECT_EQ(a.contributed_totals, b.contributed_totals) << label;
  EXPECT_EQ(a.total_time, b.total_time) << label;
  EXPECT_EQ(a.final_loss, b.final_loss) << label;
}

bool structurally_ok(const sparsify::SparseVector& sv, std::size_t dim) {
  std::set<std::int32_t> seen;
  for (const auto& e : sv) {
    if (!std::isfinite(e.value)) return false;
    if (e.index < 0 || static_cast<std::size_t>(e.index) >= dim) return false;
    if (!seen.insert(e.index).second) return false;
  }
  return true;
}

// ---------------- adversary models ------------------------------------------

TEST(AdversaryModel, CohortIsSeededRoundIndependentAndShared) {
  FaultConfig cfg;
  cfg.adversary.attack = AttackKind::kSignFlip;
  cfg.adversary.byzantine_fraction = 0.2;
  cfg.adversary.cohort_seed = 41;
  const FaultModel a(cfg, 7, 64);
  const FaultModel b(cfg, 99, 64);  // different SIM seed, same cohort seed

  std::size_t members = 0;
  for (std::size_t c = 0; c < 200; ++c) {
    // Colluders built from the same cohort seed agree on membership even
    // under different simulation seeds — the cohort is a shared identity,
    // not a per-run draw.
    EXPECT_EQ(a.byzantine(c), b.byzantine(c)) << "client " << c;
    if (a.byzantine(c)) ++members;
  }
  // ~20% of 200; a gross miss means the membership mixing is broken.
  EXPECT_GT(members, 15u);
  EXPECT_LT(members, 80u);

  // A different cohort seed draws a different cohort.
  FaultConfig other = cfg;
  other.adversary.cohort_seed = 42;
  const FaultModel c(other, 7, 64);
  bool any_diff = false;
  for (std::size_t i = 0; i < 200 && !any_diff; ++i) any_diff = a.byzantine(i) != c.byzantine(i);
  EXPECT_TRUE(any_diff);

  // Trivial adversary: nobody is Byzantine, the tamper seam is untouched.
  const FaultModel none(FaultConfig{}, 7, 64);
  for (std::size_t i = 0; i < 50; ++i) EXPECT_FALSE(none.byzantine(i));
}

TEST(AdversaryModel, AttacksAreWellFormedPureAndAsAdvertised) {
  constexpr std::size_t kDim = 64;
  const sparsify::SparseVector clean{{2, 0.5f}, {7, -1.5f}, {11, 0.25f}, {40, 1.0f}};
  const auto with_attack = [](AttackKind kind) {
    FaultConfig cfg;
    cfg.adversary.attack = kind;
    cfg.adversary.byzantine_fraction = 1.0;  // everyone, so draws don't gate
    cfg.adversary.cohort_seed = 5;
    return cfg;
  };

  {  // sign flip: exact negation, nothing else moves
    const FaultModel m(with_attack(AttackKind::kSignFlip), 3, kDim);
    sparsify::SparseVector sv = clean;
    m.attack_payload(1, 0, sv);
    ASSERT_EQ(sv.size(), clean.size());
    for (std::size_t i = 0; i < sv.size(); ++i) {
      EXPECT_EQ(sv[i].index, clean[i].index);
      EXPECT_EQ(sv[i].value, -clean[i].value);
    }
  }
  {  // scale blowup: finite multiplication by adversary.scale
    const FaultModel m(with_attack(AttackKind::kScaleBlowup), 3, kDim);
    sparsify::SparseVector sv = clean;
    m.attack_payload(1, 0, sv);
    ASSERT_EQ(sv.size(), clean.size());
    for (std::size_t i = 0; i < sv.size(); ++i) {
      EXPECT_EQ(sv[i].value, clean[i].value * 20.0f);
      EXPECT_TRUE(std::isfinite(sv[i].value));
    }
    EXPECT_TRUE(structurally_ok(sv, kDim));
  }
  {  // targeted poison: shared in-bounds block, same for every cohort member
    const FaultModel m(with_attack(AttackKind::kTargetedPoison), 3, kDim);
    sparsify::SparseVector sv0 = clean;
    sparsify::SparseVector sv1 = clean;
    m.attack_payload(1, 0, sv0);
    m.attack_payload(1, 9, sv1);  // different client, same cohort
    EXPECT_TRUE(structurally_ok(sv0, kDim));
    ASSERT_EQ(sv0.size(), sv1.size());
    for (std::size_t i = 0; i < sv0.size(); ++i) {
      EXPECT_EQ(sv0[i].index, sv1[i].index);  // the cohort's shared target block
      EXPECT_LT(sv0[i].value, 0.0f);          // pushed hard in a common direction
    }
  }
  {  // colluding: shared per-coordinate sign pattern at own magnitudes
    const FaultModel m(with_attack(AttackKind::kColluding), 3, kDim);
    sparsify::SparseVector sv0 = clean;
    sparsify::SparseVector sv1{{7, 2.0f}, {11, -4.0f}};  // overlaps coords 7, 11
    m.attack_payload(1, 0, sv0);
    m.attack_payload(1, 1, sv1);
    EXPECT_TRUE(structurally_ok(sv0, kDim));
    EXPECT_TRUE(structurally_ok(sv1, kDim));
    for (const auto& e0 : sv0) {
      for (const auto& e1 : sv1) {
        if (e0.index != e1.index) continue;
        EXPECT_EQ(std::signbit(e0.value), std::signbit(e1.value))
            << "colluders disagree on coordinate " << e0.index;
      }
    }
  }
  {  // purity: the same (round, client, payload) always yields the same bits
    const FaultModel m(with_attack(AttackKind::kTargetedPoison), 3, kDim);
    const FaultModel m2(with_attack(AttackKind::kTargetedPoison), 3, kDim);
    sparsify::SparseVector once = clean;
    sparsify::SparseVector twice = clean;
    m.attack_payload(5, 2, once);
    m2.attack_payload(5, 2, twice);
    EXPECT_EQ(once, twice);
  }
}

// ---------------- robust statistics on hand-built groups --------------------

struct RobustRun {
  std::vector<float> agg;
  std::vector<std::uint32_t> stamp;
  sparsify::RobustStats stats;
};

RobustRun reduce_robust(const std::vector<sparsify::SparseVector>& uploads,
                        const std::vector<double>& weights, std::size_t dim,
                        const sparsify::RobustConfig& cfg, std::size_t shards) {
  RobustRun r;
  r.agg.assign(dim, 0.0f);
  r.stamp.assign(dim, 0);
  sparsify::BucketAggregator aggregator;
  aggregator.run_robust(uploads, weights, dim, shards, nullptr, {}, cfg, r.agg.data(),
                        r.stamp.data(), 1, r.stats);
  return r;
}

TEST(RobustReduce, TrimmedMeanAndMedianSuppressOutliersExactly) {
  // Five clients transmit coordinate 0; one is a magnitude outlier. The plain
  // weighted sum is dominated by it, the robust statistics are not.
  const std::vector<sparsify::SparseVector> uploads{
      {{0, 1.0f}}, {{0, 1.0f}}, {{0, 1.0f}}, {{0, 1.0f}}, {{0, 100.0f}}};
  const std::vector<double> weights{0.2, 0.2, 0.2, 0.2, 0.2};

  sparsify::RobustConfig cfg;
  cfg.enabled = true;
  cfg.kind = sparsify::RobustKind::kTrimmedMean;
  cfg.trim_fraction = 0.25;  // floor(0.25 * 5) = 1 trimmed per end
  cfg.min_support = 4;

  const RobustRun trimmed = reduce_robust(uploads, weights, 8, cfg, 1);
  // Survivors are three 1.0 contributions; rescaled by total weight 1.0.
  EXPECT_NEAR(trimmed.agg[0], 1.0f, 1e-6f);
  EXPECT_EQ(trimmed.stats.coords_robust, 1u);
  EXPECT_EQ(trimmed.stats.coords_thin, 0u);
  EXPECT_EQ(trimmed.stats.values_trimmed, 2u);

  cfg.kind = sparsify::RobustKind::kMedian;
  const RobustRun median = reduce_robust(uploads, weights, 8, cfg, 1);
  EXPECT_NEAR(median.agg[0], 1.0f, 1e-6f);  // total weight 1.0 × median 1.0

  // The plain weighted sum the robust statistic replaced: 0.2 · 104 = 20.8.
  std::vector<float> plain(8, 0.0f);
  std::vector<std::uint32_t> stamp(8, 0);
  sparsify::BucketAggregator aggregator;
  aggregator.run(uploads, weights, 8, 1, nullptr, {}, plain.data(), stamp.data(), 1);
  EXPECT_NEAR(plain[0], 20.8f, 1e-4f);
}

TEST(RobustReduce, ThinSupportFallsBackToClippedMean) {
  // Coordinate 0 has support 2 < min_support 4: too little overlap to trim,
  // so its plain weighted sum is kept with each contribution clamped to
  // clip_mult × the round's median |value| (1.0 here, from the four 1.0
  // entries among {1, 1, 100, 1}).
  const std::vector<sparsify::SparseVector> uploads{
      {{0, 1.0f}, {1, 1.0f}}, {{0, 100.0f}, {2, 1.0f}}};
  const std::vector<double> weights{0.25, 0.25};

  sparsify::RobustConfig cfg;
  cfg.enabled = true;
  cfg.kind = sparsify::RobustKind::kTrimmedMean;
  cfg.min_support = 4;
  cfg.clip_mult = 8.0;

  const RobustRun r = reduce_robust(uploads, weights, 8, cfg, 1);
  // 0.25 · 1 + 0.25 · clamp(100 → 8) = 2.25, instead of the plain 25.25.
  EXPECT_NEAR(r.agg[0], 2.25f, 1e-5f);
  EXPECT_EQ(r.stats.coords_robust, 0u);
  EXPECT_EQ(r.stats.coords_thin, 3u);  // all three touched coords are thin
}

TEST(RobustReduce, ByteIdenticalAcrossShardCounts) {
  // Random sparse uploads, both statistics: the robust reduce must produce
  // the same bits at every shard count, exactly like the plain reduce.
  constexpr std::size_t kDim = 512;
  util::Rng rng(314);
  std::vector<sparsify::SparseVector> uploads(40);
  std::vector<double> weights(uploads.size());
  double total_w = 0.0;
  std::vector<std::int32_t> coords(kDim);
  for (std::size_t c = 0; c < kDim; ++c) coords[c] = static_cast<std::int32_t>(c);
  for (std::size_t s = 0; s < uploads.size(); ++s) {
    rng.shuffle(coords);
    const std::size_t k = 8 + rng.uniform_u64(48);
    for (std::size_t i = 0; i < k; ++i) {
      uploads[s].push_back({coords[i], static_cast<float>(rng.normal(0.0, 2.0))});
    }
    weights[s] = rng.uniform(0.1, 1.0);
    total_w += weights[s];
  }
  for (double& w : weights) w /= total_w;

  for (const auto kind : {sparsify::RobustKind::kTrimmedMean, sparsify::RobustKind::kMedian}) {
    sparsify::RobustConfig cfg;
    cfg.enabled = true;
    cfg.kind = kind;
    const RobustRun ref = reduce_robust(uploads, weights, kDim, cfg, 1);
    for (const std::size_t shards : {std::size_t{2}, std::size_t{8}}) {
      const RobustRun got = reduce_robust(uploads, weights, kDim, cfg, shards);
      EXPECT_EQ(got.stats.coords_robust, ref.stats.coords_robust) << "shards " << shards;
      EXPECT_EQ(got.stats.coords_thin, ref.stats.coords_thin) << "shards " << shards;
      EXPECT_EQ(got.stats.values_trimmed, ref.stats.values_trimmed) << "shards " << shards;
      for (std::size_t j = 0; j < kDim; ++j) {
        ASSERT_EQ(got.stamp[j] == 1u, ref.stamp[j] == 1u) << "shards " << shards << " j " << j;
        if (ref.stamp[j] == 1u) {
          ASSERT_EQ(got.agg[j], ref.agg[j]) << "shards " << shards << " j " << j;
        }
      }
    }
  }
}

// ---------------- attacked simulation: determinism + reputation -------------

SimulationConfig attacked_sim(std::size_t threads) {
  SimulationConfig cfg = base_sim(threads);
  cfg.faults.adversary.attack = AttackKind::kSignFlip;
  cfg.faults.adversary.byzantine_fraction = 0.3;
  cfg.faults.adversary.cohort_seed = 41;
  cfg.faults.seed = 99;
  cfg.validation.enabled = true;
  cfg.robust.enabled = true;
  cfg.robust.kind = sparsify::RobustKind::kTrimmedMean;
  return cfg;
}

TEST(ByzantineRun, AttackedDefendedTraceIsThreadAndShardInvariant) {
  const auto t1 = run_fixed_k("fab_topk", 20.0, attacked_sim(1));
  std::size_t byz = 0;
  for (const auto& rec : t1.records) byz += rec.byzantine;
  ASSERT_GT(byz, 0u) << "the cohort never fired; the invariance check is vacuous";

  // Threads 1 / 2 / 8 resolve to 1 / 3 / 9 round-engine shards.
  const auto t2 = run_fixed_k("fab_topk", 20.0, attacked_sim(2));
  const auto t8 = run_fixed_k("fab_topk", 20.0, attacked_sim(8));
  expect_identical(t1, t2, "attacked/threads=1vs2");
  expect_identical(t1, t8, "attacked/threads=1vs8");
}

TEST(ByzantineRun, CleanRunFalsePositivesStayRareAndNeverQuarantine) {
  // No adversary. An honest client with a divergent local gradient can still
  // land below the suspect-cosine threshold on a noisy round — false-positive
  // suspects are expected and tolerated. What must hold: they stay rare and
  // isolated (trust stays high), and note_aligned clears the strikes between
  // occurrences so no honest client ever accumulates the consecutive streak
  // that quarantine requires.
  SimulationConfig cfg = base_sim(2);
  cfg.robust.enabled = true;
  cfg.validation.enabled = true;
  const auto res = run_fixed_k("fab_topk", 20.0, cfg);
  std::size_t suspects = 0;
  double min_trust = 1.0;
  for (const auto& rec : res.records) {
    suspects += rec.suspects;
    min_trust = std::min(min_trust, rec.trust);
    EXPECT_EQ(rec.byzantine, 0u) << "round " << rec.round;
    EXPECT_EQ(rec.quarantined, 0u) << "round " << rec.round;
  }
  EXPECT_LT(suspects, res.records.size() / 2);  // rare: well under 1 per round
  EXPECT_GT(min_trust, 0.75);
  EXPECT_TRUE(std::isfinite(res.final_loss));
}

TEST(ByzantineRun, ReputationQuarantinesTheSignFlipCohort) {
  // 50 clients, 20% sign-flip cohort, long quarantine: the reputation pass
  // must flag the flippers (anti-aligned with the trimmed aggregate), strike
  // them through the validator, and quarantine them — after which the rounds
  // run at full trust again because the poison is gone.
  SimulationConfig cfg;
  cfg.batch = 2;
  cfg.max_rounds = 30;
  cfg.eval_every = 0;
  cfg.threads = 2;
  cfg.seed = 23;
  cfg.faults.adversary.attack = AttackKind::kSignFlip;
  cfg.faults.adversary.byzantine_fraction = 0.2;
  cfg.faults.adversary.cohort_seed = 17;
  cfg.validation.enabled = true;
  cfg.validation.quarantine_rounds = cfg.max_rounds;
  cfg.robust.enabled = true;
  cfg.robust.kind = sparsify::RobustKind::kTrimmedMean;

  data::SyntheticConfig dc;
  dc.num_classes = 4;
  dc.channels = 1;
  dc.height = 4;
  dc.width = 4;
  dc.num_clients = 50;
  dc.samples_per_client = 4;
  dc.test_samples = 64;
  dc.seed = 23;
  auto factory = tiny_model();
  util::Rng probe(1);
  const std::size_t dim = factory(probe)->dim();
  Simulation sim(cfg, data::make_synthetic(dc), factory, sparsify::make_method("fab_topk", dim, 5),
                 std::make_unique<online::FixedK>(48.0));
  const auto res = sim.run();

  std::size_t byz = 0, suspects = 0, quarantined = 0;
  double min_trust = 1.0;
  for (const auto& rec : res.records) {
    byz += rec.byzantine;
    suspects += rec.suspects;
    quarantined += rec.quarantined;
    min_trust = std::min(min_trust, rec.trust);
  }
  EXPECT_GT(byz, 0u);
  EXPECT_GT(suspects, 0u);         // the reputation pass flagged the cohort
  EXPECT_GT(quarantined, 0u);      // and the strikes engaged quarantine
  EXPECT_LT(min_trust, 1.0);       // trust dipped while the attack was live
  // Once the cohort is quarantined the trailing rounds are clean again.
  EXPECT_EQ(res.records.back().trust, 1.0);
  EXPECT_EQ(res.records.back().suspects, 0u);
  for (const float w : sim.client_weights(0)) ASSERT_TRUE(std::isfinite(w));
}

// ---------------- record / replay of attacked runs --------------------------

TEST(ByzantineReplay, AttackedSyncRunReplaysAtEveryShardCount) {
  SimulationConfig cfg = attacked_sim(2);
  auto dataset = data::make_synthetic(tiny_dataset());
  auto factory = tiny_model();
  util::Rng probe(1);
  const std::size_t dim = factory(probe)->dim();
  RoundRecorder recorder(dim, dataset.clients.size(), "fab_topk", 5, cfg.faults, cfg.validation,
                         cfg.robust);
  {
    Simulation sim(cfg, std::move(dataset), factory, sparsify::make_method("fab_topk", dim, 5),
                   std::make_unique<online::FixedK>(20.0));
    sim.set_recorder(&recorder);
    sim.run();
  }
  const ReplayLog& log = recorder.log();
  ASSERT_GT(log.rounds.size(), 10u);
  EXPECT_TRUE(log.robust.enabled);
  bool saw_adversarial = false;
  for (const auto& r : log.rounds) {
    for (const FaultEvent& e : r.faults) saw_adversarial |= e.kind == FaultKind::kAdversarialTamper;
  }
  EXPECT_TRUE(saw_adversarial);

  for (const std::size_t shards : {std::size_t{1}, std::size_t{8}}) {
    const ReplayResult res = replay(log, shards);
    EXPECT_EQ(res.rounds, log.rounds.size()) << "shards " << shards;
    EXPECT_EQ(res.mismatches, 0u) << "shards " << shards;
  }

  // Binary round-trip carries the robust config and still replays clean.
  const std::string path = ::testing::TempDir() + "byzantine_replay_test.bin";
  log.save(path);
  const ReplayLog loaded = ReplayLog::load(path);
  std::remove(path.c_str());
  EXPECT_TRUE(loaded.robust.enabled);
  EXPECT_EQ(static_cast<int>(loaded.robust.kind), static_cast<int>(log.robust.kind));
  EXPECT_EQ(loaded.fault_config.adversary.cohort_seed, log.fault_config.adversary.cohort_seed);
  const ReplayResult from_disk = replay(loaded, 8);
  EXPECT_EQ(from_disk.mismatches, 0u);
}

TEST(ByzantineReplay, AttackedBufferedAsyncRunReplays) {
  SimulationConfig cfg = attacked_sim(2);
  cfg.aggregation = AggregationMode::kBufferedAsync;
  cfg.async.buffer_size = 4;
  cfg.async.staleness_lambda = 0.25;

  auto dataset = data::make_synthetic(tiny_dataset());
  auto factory = tiny_model();
  util::Rng probe(1);
  const std::size_t dim = factory(probe)->dim();
  RoundRecorder recorder(dim, dataset.clients.size(), "fab_topk", 5, cfg.faults, cfg.validation,
                         cfg.robust);
  Simulation sim(cfg, std::move(dataset), factory, sparsify::make_method("fab_topk", dim, 5),
                 std::make_unique<online::FixedK>(20.0));
  sim.set_recorder(&recorder);
  sim.run();

  const ReplayLog& log = recorder.log();
  ASSERT_GT(log.rounds.size(), 5u);
  for (const std::size_t shards : {std::size_t{1}, std::size_t{8}}) {
    const ReplayResult res = replay(log, shards);
    EXPECT_EQ(res.mismatches, 0u) << "shards " << shards;
  }
}

// ---------------- fuzz: screening + robust reduce under hostile inputs ------

TEST(RobustFuzz, ScreenAndRobustReduceSurviveAdversarialGenerators) {
  constexpr std::size_t kDim = 128;
  constexpr std::size_t kRounds = 150;
  util::Rng rng(2024);

  sparsify::UploadValidator validator;
  sparsify::ValidationConfig vcfg;
  vcfg.enabled = true;
  vcfg.min_valid_fraction = 0.25;
  validator.configure(vcfg);

  std::vector<std::int32_t> coords(kDim);
  for (std::size_t c = 0; c < kDim; ++c) coords[c] = static_cast<std::int32_t>(c);

  for (std::size_t round = 1; round <= kRounds; ++round) {
    const std::size_t n = 2 + rng.uniform_u64(14);
    const bool all_attackers = rng.bernoulli(0.1);  // whole flush hostile
    std::vector<sparsify::SparseVector> uploads(n);
    std::vector<double> weights(n, 1.0 / static_cast<double>(n));
    for (std::size_t s = 0; s < n; ++s) {
      sparsify::SparseVector& sv = uploads[s];
      rng.shuffle(coords);
      const std::size_t k = rng.uniform_u64(24);
      for (std::size_t i = 0; i < k; ++i) {
        sv.push_back({coords[i], static_cast<float>(rng.normal(0.0, 1.0))});
      }
      const int mutation =
          all_attackers || rng.bernoulli(0.4) ? static_cast<int>(rng.uniform_u64(6)) : -1;
      if (sv.empty() || mutation < 0) continue;
      const std::size_t victim = rng.uniform_u64(sv.size());
      switch (mutation) {
        case 0:  // duplicate index
          sv.push_back(sv[victim]);
          break;
        case 1:  // out-of-range index
          sv[victim].index = static_cast<std::int32_t>(kDim + rng.uniform_u64(1000));
          break;
        case 2:  // NaN value
          sv[victim].value = std::numeric_limits<float>::quiet_NaN();
          break;
        case 3:  // Inf value
          sv[victim].value = std::numeric_limits<float>::infinity();
          break;
        case 4:  // near-threshold norm blowup
          for (auto& e : sv) e.value *= static_cast<float>(rng.uniform(4.0, 1.0e6));
          break;
        case 5:  // adversarial-but-well-formed: sign flip (the robust stage's job)
          for (auto& e : sv) e.value = -e.value;
          break;
        default:
          break;
      }
    }

    sparsify::ValidationStats stats;
    const auto eff = validator.screen(uploads, {}, weights, kDim, round, stats);
    ASSERT_EQ(stats.checked, n) << "round " << round;

    // Invariant: nothing malformed survives the screen, ever.
    for (std::size_t s = 0; s < n; ++s) {
      ASSERT_TRUE(structurally_ok(uploads[s], kDim)) << "round " << round << " slot " << s;
    }
    // Invariant: surviving weights stay a convex combination outside
    // degraded rounds (passthrough or renormalized — either way sum 1).
    if (!stats.degraded) {
      double total = 0.0;
      for (const double w : eff) total += w;
      ASSERT_NEAR(total, 1.0, 1e-9) << "round " << round;
    }
    if (stats.degraded) continue;  // the engine skips aggregation here too

    // Robust reduce over the survivors: finite everywhere it touched, and
    // byte-identical between shard counts even on hostile rounds.
    sparsify::RobustConfig rcfg;
    rcfg.enabled = true;
    rcfg.kind = rng.bernoulli(0.5) ? sparsify::RobustKind::kTrimmedMean
                                   : sparsify::RobustKind::kMedian;
    const std::vector<double> effw(eff.begin(), eff.end());
    const RobustRun a = reduce_robust(uploads, effw, kDim, rcfg, 1);
    const RobustRun b = reduce_robust(uploads, effw, kDim, rcfg, 3);
    for (std::size_t j = 0; j < kDim; ++j) {
      ASSERT_EQ(a.stamp[j] == 1u, b.stamp[j] == 1u) << "round " << round << " j " << j;
      if (a.stamp[j] == 1u) {
        ASSERT_TRUE(std::isfinite(a.agg[j])) << "round " << round << " j " << j;
        ASSERT_EQ(a.agg[j], b.agg[j]) << "round " << round << " j " << j;
      }
    }
  }
}

}  // namespace
}  // namespace fedsparse::fl
