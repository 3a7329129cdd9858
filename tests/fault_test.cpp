// Fault-injection subsystem, server-side screening defense, and record/replay
// (fl/faults.h, sparsify/validate.h, fl/replay.h):
//  * FaultModel draws are pure in (seed, round, client) — the fault schedule
//    is identical across instances, thread counts and engines;
//  * the zero-fault configuration is byte-identical to a build without the
//    subsystem, for every upload method at every thread count, with the
//    screening stage enabled or disabled;
//  * injected NaN/Inf payloads never reach the global weights: the screen
//    rejects them, renormalizes the surviving weights, and degrades the round
//    when too few uploads survive;
//  * dropped uploads conserve accumulator mass (the client keeps everything
//    until its next successful upload) and trigger exponential retry backoff;
//  * a recorded faulted run replays byte-identically from the log alone, at
//    any shard count, from either the sync or the buffered-async engine;
//  * buffered-async catch-up after >= 3 missed flushes folds the deferred
//    contribution with the right staleness and drains the buffer.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "data/synthetic.h"
#include "fl/event_timeline.h"
#include "fl/faults.h"
#include "fl/replay.h"
#include "fl/simulation.h"
#include "nn/models.h"
#include "online/extended_sign_ogd.h"
#include "sparsify/method.h"
#include "sparsify/validate.h"

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

SimulationConfig base_sim(std::size_t threads = 2) {
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

SimulationResult run_fixed_k(const std::string& method, double k, SimulationConfig cfg,
                             RoundRecorder* recorder = nullptr, std::uint64_t data_seed = 1) {
  auto dataset = data::make_synthetic(tiny_dataset(data_seed));
  auto factory = tiny_model();
  util::Rng probe(1);
  const std::size_t dim = factory(probe)->dim();
  Simulation sim(cfg, std::move(dataset), factory, sparsify::make_method(method, dim, 5),
                 std::make_unique<online::FixedK>(k));
  sim.set_recorder(recorder);
  return sim.run();
}

// Bitwise trace comparison including the fault/defense counters: the two runs
// must produce the *same bits*, not merely close values.
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
    EXPECT_EQ(ra.dropped, rb.dropped) << label << " round " << ra.round;
    EXPECT_EQ(ra.corrupted, rb.corrupted) << label << " round " << ra.round;
    EXPECT_EQ(ra.rejected, rb.rejected) << label << " round " << ra.round;
    EXPECT_EQ(ra.quarantined, rb.quarantined) << label << " round " << ra.round;
    EXPECT_EQ(ra.degraded, rb.degraded) << label << " round " << ra.round;
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

// ---------------- fault model: pure draws, backoff, corruption modes --------

TEST(FaultModel, DrawsArePureAndInstanceIndependent) {
  FaultConfig cfg;
  cfg.drop_prob = 0.3;
  cfg.corrupt_prob = 0.2;
  cfg.crash_prob = 0.1;
  const FaultModel a(cfg, 42);
  const FaultModel b(cfg, 42);
  std::size_t fired = 0;
  for (std::size_t r = 1; r <= 50; ++r) {
    for (std::size_t c = 0; c < 20; ++c) {
      EXPECT_EQ(a.drops_upload(r, c), b.drops_upload(r, c));
      EXPECT_EQ(a.corrupts(r, c), b.corrupts(r, c));
      EXPECT_EQ(a.crashes(r, c), b.crashes(r, c));
      EXPECT_EQ(a.corruption_mode(r, c), b.corruption_mode(r, c));
      if (a.drops_upload(r, c)) ++fired;
    }
  }
  // ~30% of 1000 draws; a gross miss means the mixing is broken.
  EXPECT_GT(fired, 200u);
  EXPECT_LT(fired, 400u);
  // A different seed yields a different schedule.
  const FaultModel c(cfg, 43);
  bool any_diff = false;
  for (std::size_t r = 1; r <= 50 && !any_diff; ++r) {
    for (std::size_t cl = 0; cl < 20; ++cl) {
      if (a.drops_upload(r, cl) != c.drops_upload(r, cl)) any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(FaultModel, TrivialConfigFiresNothing) {
  const FaultModel m(FaultConfig{}, 7);
  EXPECT_TRUE(m.trivial());
  for (std::size_t r = 1; r <= 20; ++r) {
    for (std::size_t c = 0; c < 10; ++c) {
      EXPECT_FALSE(m.crashes(r, c));
      EXPECT_FALSE(m.drops_upload(r, c));
      EXPECT_FALSE(m.corrupts(r, c));
    }
  }
  EXPECT_FALSE(m.times_out(1.0e12));
}

TEST(FaultModel, BackoffIsExponentialAndCapped) {
  FaultConfig cfg;
  cfg.retry_backoff_base = 1;
  cfg.retry_backoff_max = 8;
  const FaultModel m(cfg, 1);
  EXPECT_EQ(m.backoff_rounds(0), 0u);
  EXPECT_EQ(m.backoff_rounds(1), 1u);
  EXPECT_EQ(m.backoff_rounds(2), 2u);
  EXPECT_EQ(m.backoff_rounds(3), 4u);
  EXPECT_EQ(m.backoff_rounds(4), 8u);
  EXPECT_EQ(m.backoff_rounds(9), 8u);  // capped
}

TEST(FaultModel, CorruptionModesTamperAsAdvertised) {
  const auto one_hot = [](CorruptionMode mode) {
    FaultConfig cfg;
    cfg.corrupt_prob = 1.0;
    for (int i = 0; i < 4; ++i) cfg.corrupt_weights[i] = 0.0;
    cfg.corrupt_weights[static_cast<int>(mode)] = 1.0;
    return cfg;
  };
  const sparsify::SparseVector clean{{2, 0.5f}, {7, -1.5f}, {11, 0.25f}};

  {
    const FaultModel m(one_hot(CorruptionMode::kNaN), 3);
    sparsify::SparseVector sv = clean;
    m.corrupt_payload(1, 0, sv);
    bool nan = false;
    for (const auto& e : sv) nan |= std::isnan(e.value);
    EXPECT_TRUE(nan);
  }
  {
    const FaultModel m(one_hot(CorruptionMode::kInf), 3);
    sparsify::SparseVector sv = clean;
    m.corrupt_payload(1, 0, sv);
    bool inf = false;
    for (const auto& e : sv) inf |= std::isinf(e.value);
    EXPECT_TRUE(inf);
  }
  {
    const FaultModel m(one_hot(CorruptionMode::kMagnitudeBlowup), 3);
    sparsify::SparseVector sv = clean;
    m.corrupt_payload(1, 0, sv);
    bool blown = false;
    for (std::size_t i = 0; i < sv.size(); ++i) {
      blown |= std::fabs(sv[i].value) > 1.0e9f * std::fabs(clean[i].value);
    }
    EXPECT_TRUE(blown);
  }
  {
    const FaultModel m(one_hot(CorruptionMode::kBitFlip), 3);
    sparsify::SparseVector sv = clean;
    m.corrupt_payload(1, 0, sv);
    EXPECT_NE(sv, clean);  // exactly one bit of one (index, value) pair flipped
  }
  // apply() is the guarded seam: it tampers iff the corruption draw fires,
  // identically on every invocation (purity). Compare bit patterns — the
  // tampered entries are NaN, so operator== would report false mismatches.
  const auto same_bits = [](const sparsify::SparseVector& a, const sparsify::SparseVector& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i].index != b[i].index ||
          std::bit_cast<std::uint32_t>(a[i].value) != std::bit_cast<std::uint32_t>(b[i].value)) {
        return false;
      }
    }
    return true;
  };
  FaultConfig half = one_hot(CorruptionMode::kNaN);
  half.corrupt_prob = 0.5;
  const FaultModel m(half, 9);
  for (std::size_t c = 0; c < 8; ++c) {
    sparsify::SparseVector once = clean;
    sparsify::SparseVector twice = clean;
    m.apply(3, c, once);
    m.apply(3, c, twice);
    EXPECT_TRUE(same_bits(once, twice)) << "client " << c;
    EXPECT_EQ(!same_bits(once, clean), m.corrupts(3, c)) << "client " << c;
  }
}

// ---------------- screening: structural checks, clipping, quarantine --------

TEST(UploadValidator, DisabledOrCleanScreenIsPassthrough) {
  sparsify::UploadValidator v;
  std::vector<sparsify::SparseVector> uploads{{{0, 1.0f}, {3, 2.0f}}, {{1, -1.0f}}};
  const std::vector<double> weights{0.5, 0.5};
  sparsify::ValidationStats stats;

  // Disabled: same pointer out, uploads untouched.
  auto out = v.screen(uploads, {}, weights, 10, 1, stats);
  EXPECT_EQ(out.data(), weights.data());
  EXPECT_EQ(uploads[0].size(), 2u);

  // Enabled but clean: still the same pointer (bitwise passthrough).
  sparsify::ValidationConfig cfg;
  cfg.enabled = true;
  v.configure(cfg);
  out = v.screen(uploads, {}, weights, 10, 1, stats);
  EXPECT_EQ(out.data(), weights.data());
  EXPECT_EQ(stats.checked, 2u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.valid_fraction, 1.0);
  EXPECT_FALSE(stats.degraded);
  EXPECT_TRUE(v.pre_screen_uplink().empty());
}

TEST(UploadValidator, RejectsBrokenPayloadsAndRenormalizes) {
  sparsify::UploadValidator v;
  sparsify::ValidationConfig cfg;
  cfg.enabled = true;
  cfg.quarantine_after = 0;       // isolate the structural checks
  cfg.min_valid_fraction = 0.25;  // 2/5 valid must NOT degrade here
  v.configure(cfg);

  std::vector<sparsify::SparseVector> uploads{
      {{0, 1.0f}, {5, 2.0f}},                                      // valid
      {{1, std::numeric_limits<float>::quiet_NaN()}},              // NaN value
      {{2, 1.0f}, {12, 1.0f}},                                     // index >= dim
      {{4, 1.0f}, {4, 1.0f}},                                      // duplicate index
      {{3, std::numeric_limits<float>::infinity()}, {6, -1.0f}}};  // Inf value
  const std::vector<double> weights{0.2, 0.2, 0.2, 0.2, 0.2};
  sparsify::ValidationStats stats;
  const auto out = v.screen(uploads, {}, weights, 12, 1, stats);

  EXPECT_EQ(stats.rejected, 4u);
  EXPECT_EQ(stats.clipped, 0u);
  EXPECT_DOUBLE_EQ(stats.valid_fraction, 0.2);
  EXPECT_TRUE(stats.degraded);  // 0.2 < 0.25
  // Rejected payloads are emptied in place; the survivor is untouched.
  EXPECT_EQ(uploads[0].size(), 2u);
  for (std::size_t s = 1; s < uploads.size(); ++s) EXPECT_TRUE(uploads[s].empty()) << s;
  // Rejected slots carry zero weight.
  ASSERT_EQ(out.size(), 5u);
  for (std::size_t s = 1; s < out.size(); ++s) EXPECT_EQ(out[s], 0.0) << s;
  // Airtime is charged at transmitted (pre-screen) sizes: 2 values per entry.
  const auto pre = v.pre_screen_uplink();
  ASSERT_EQ(pre.size(), 5u);
  EXPECT_EQ(pre[0], 4.0);
  EXPECT_EQ(pre[1], 2.0);
  EXPECT_EQ(pre[4], 4.0);

  // Same uploads with a permissive fraction: weights renormalize to 1.
  cfg.min_valid_fraction = 0.1;
  v.configure(cfg);
  std::vector<sparsify::SparseVector> again{
      {{0, 1.0f}, {5, 2.0f}}, {{1, std::numeric_limits<float>::quiet_NaN()}}, {{2, 1.0f}}};
  const std::vector<double> w3{0.25, 0.5, 0.25};
  const auto out3 = v.screen(again, {}, w3, 12, 2, stats);
  EXPECT_FALSE(stats.degraded);
  double total = 0.0;
  for (const double w : out3) total += w;
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_EQ(out3[1], 0.0);
  EXPECT_DOUBLE_EQ(out3[0], 0.5);  // 0.25 / (0.25 + 0.25)
}

TEST(UploadValidator, ClipsNormOutliersWithoutTouchingWeights) {
  sparsify::UploadValidator v;
  sparsify::ValidationConfig cfg;
  cfg.enabled = true;
  cfg.norm_clip_mult = 4.0;
  v.configure(cfg);

  // Four unit-norm payloads and one magnitude-blowup: median 1, bound 4.
  std::vector<sparsify::SparseVector> uploads{
      {{0, 1.0f}}, {{1, 1.0f}}, {{2, 1.0f}}, {{3, 1.0f}}, {{4, 1.0e6f}}};
  const std::vector<double> weights{0.2, 0.2, 0.2, 0.2, 0.2};
  sparsify::ValidationStats stats;
  const auto out = v.screen(uploads, {}, weights, 10, 1, stats);

  EXPECT_EQ(stats.clipped, 1u);
  EXPECT_EQ(stats.rejected, 0u);
  // Clipping alone does not reweight: bitwise passthrough of the originals.
  EXPECT_EQ(out.data(), weights.data());
  EXPECT_NEAR(uploads[4][0].value, 4.0f, 1e-3f);
  EXPECT_EQ(uploads[0][0].value, 1.0f);
}

TEST(UploadValidator, QuarantinesRepeatOffendersIdempotently) {
  sparsify::UploadValidator v;
  sparsify::ValidationConfig cfg;
  cfg.enabled = true;
  cfg.quarantine_after = 3;
  cfg.quarantine_rounds = 2;
  cfg.min_valid_fraction = 0.0;
  v.configure(cfg);

  const std::vector<std::size_t> ids{4, 9};
  const std::vector<double> weights{0.5, 0.5};
  const auto poisoned = [] {
    return std::vector<sparsify::SparseVector>{
        {{0, 1.0f}}, {{1, std::numeric_limits<float>::quiet_NaN()}}};
  };
  sparsify::ValidationStats stats;

  // Rounds 1–3: client 9 rejected each round; the probe's re-screen of the
  // same round must not double-count strikes.
  for (std::size_t r = 1; r <= 3; ++r) {
    auto uploads = poisoned();
    v.screen(uploads, ids, weights, 10, r, stats);
    EXPECT_EQ(stats.rejected, 1u) << "round " << r;
    auto reprobe = poisoned();
    v.screen(reprobe, ids, weights, 10, r, stats);  // probe re-screen
  }
  // Strike 3 at round 3 => quarantined through round 5, even for CLEAN uploads.
  for (std::size_t r = 4; r <= 5; ++r) {
    std::vector<sparsify::SparseVector> clean{{{0, 1.0f}}, {{1, 1.0f}}};
    v.screen(clean, ids, weights, 10, r, stats);
    EXPECT_EQ(stats.quarantined, 1u) << "round " << r;
    EXPECT_EQ(stats.rejected, 0u) << "round " << r;
    EXPECT_TRUE(clean[1].empty()) << "round " << r;
    EXPECT_TRUE(v.quarantined(9, r));
  }
  // Round 6: the quarantine expired; a clean upload is accepted again.
  std::vector<sparsify::SparseVector> clean{{{0, 1.0f}}, {{1, 1.0f}}};
  const auto out = v.screen(clean, ids, weights, 10, 6, stats);
  EXPECT_EQ(stats.quarantined, 0u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(out.data(), weights.data());
  EXPECT_FALSE(v.quarantined(9, 6));

  // Non-consecutive rejections do not accumulate: a clean round in between
  // resets the strike counter, so two more strikes do not quarantine.
  for (std::size_t r = 7; r <= 8; ++r) {
    auto uploads = poisoned();
    v.screen(uploads, ids, weights, 10, r, stats);
  }
  std::vector<sparsify::SparseVector> clean2{{{0, 1.0f}}, {{1, 1.0f}}};
  v.screen(clean2, ids, weights, 10, 9, stats);
  auto uploads = poisoned();
  v.screen(uploads, ids, weights, 10, 10, stats);
  EXPECT_FALSE(v.quarantined(9, 11));
}

// ---------------- zero-fault byte-identity ----------------------------------

class ZeroFaultIdentity : public ::testing::TestWithParam<const char*> {};

TEST_P(ZeroFaultIdentity, TrivialFaultsAndScreeningMatchPlainRunBitwise) {
  const std::string method = GetParam();
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    const auto plain = run_fixed_k(method, 20.0, base_sim(threads));

    // Trivial fault model wired in (every hook short-circuits).
    SimulationConfig faults_off = base_sim(threads);
    faults_off.faults = FaultConfig{};
    const auto trivial = run_fixed_k(method, 20.0, faults_off);
    expect_identical(plain, trivial, method + "/trivial-faults/t" + std::to_string(threads));

    // Screening enabled on a clean run: nothing to reject, bitwise no-op.
    SimulationConfig screened = base_sim(threads);
    screened.validation.enabled = true;
    const auto defended = run_fixed_k(method, 20.0, screened);
    expect_identical(plain, defended, method + "/screen-on/t" + std::to_string(threads));
  }
}

INSTANTIATE_TEST_SUITE_P(AllUploadMethods, ZeroFaultIdentity,
                         ::testing::Values("fab_topk", "fub_topk", "unidirectional_topk"));

// ---------------- injected faults: mass, defense, determinism ---------------

TEST(FaultInjection, AllDropsHoldWeightsAndBackOffExponentially) {
  SimulationConfig cfg = base_sim();
  cfg.max_rounds = 20;
  cfg.eval_every = 0;
  cfg.faults.drop_prob = 1.0;  // no upload ever reaches the server
  cfg.faults.seed = 11;

  auto dataset = data::make_synthetic(tiny_dataset());
  auto factory = tiny_model();
  util::Rng probe(1);
  const std::size_t dim = factory(probe)->dim();
  Simulation sim(cfg, std::move(dataset), factory, sparsify::make_method("fab_topk", dim, 5),
                 std::make_unique<online::FixedK>(20.0));
  const std::vector<float> initial(sim.client_weights(0).begin(), sim.client_weights(0).end());
  const auto res = sim.run();

  // Mass conservation: nothing flushed, so the global weights never moved —
  // every gradient is still sitting in its client's accumulator.
  const auto final_w = sim.client_weights(0);
  ASSERT_EQ(final_w.size(), initial.size());
  for (std::size_t j = 0; j < initial.size(); ++j) {
    ASSERT_EQ(final_w[j], initial[j]) << "weight " << j;
  }
  for (const std::size_t c : res.contributed_totals) EXPECT_EQ(c, 0u);

  // Exponential backoff cadence: all 10 clients fail together, so upload
  // attempts land exactly at rounds 1, 3, 6, 11, 20 (backoff 1, 2, 4, 8, 8).
  ASSERT_EQ(res.records.size(), 20u);
  for (std::size_t r = 0; r < res.records.size(); ++r) {
    const bool attempt_round = r == 0 || r == 2 || r == 5 || r == 10 || r == 19;
    EXPECT_EQ(res.records[r].dropped, attempt_round ? 10u : 0u) << "round " << r + 1;
    EXPECT_EQ(res.records[r].participants, 0u) << "round " << r + 1;
    EXPECT_EQ(res.records[r].uplink_values, 0.0) << "round " << r + 1;
  }

  // The last round was an attempt round: its timeline records the losses.
  std::size_t lost = 0;
  for (const Event& e : sim.timeline().events()) {
    if (e.kind == EventKind::kUploadLost) ++lost;
  }
  EXPECT_EQ(lost, 10u);
}

TEST(FaultInjection, PoisonNeverReachesGlobalWeights) {
  // Every upload arrives tampered with NaN or Inf. The screen must reject
  // them all, degrade every round, and hold the weights — not one non-finite
  // value may reach the global store.
  SimulationConfig cfg = base_sim();
  cfg.max_rounds = 15;
  cfg.faults.corrupt_prob = 1.0;
  cfg.faults.corrupt_weights[0] = 1.0;  // NaN
  cfg.faults.corrupt_weights[1] = 1.0;  // Inf
  cfg.faults.corrupt_weights[2] = 0.0;
  cfg.faults.corrupt_weights[3] = 0.0;
  cfg.faults.seed = 13;
  cfg.validation.enabled = true;

  auto dataset = data::make_synthetic(tiny_dataset());
  auto factory = tiny_model();
  util::Rng probe(1);
  const std::size_t dim = factory(probe)->dim();
  Simulation sim(cfg, std::move(dataset), factory, sparsify::make_method("fab_topk", dim, 5),
                 std::make_unique<online::FixedK>(20.0));
  const std::vector<float> initial(sim.client_weights(0).begin(), sim.client_weights(0).end());
  const auto res = sim.run();

  for (const float w : sim.client_weights(0)) ASSERT_TRUE(std::isfinite(w));
  for (std::size_t j = 0; j < initial.size(); ++j) {
    ASSERT_EQ(sim.client_weights(0)[j], initial[j]) << "weight " << j;  // held
  }
  for (const auto& rec : res.records) {
    EXPECT_EQ(rec.corrupted, rec.participants) << "round " << rec.round;
    EXPECT_EQ(rec.rejected + rec.quarantined, rec.participants) << "round " << rec.round;
    EXPECT_TRUE(rec.degraded) << "round " << rec.round;
  }
}

TEST(FaultInjection, FaultedRunStaysFiniteWithAdaptiveController) {
  // The CI-gated graceful-degradation regime: 20% drops + 5% corruption.
  // FAB with Algorithm 3 must complete the run with finite weights, a finite
  // loss, and visible fault/defense counters.
  SimulationConfig cfg = base_sim();
  cfg.max_rounds = 50;
  cfg.faults.drop_prob = 0.2;
  cfg.faults.corrupt_prob = 0.05;
  cfg.faults.seed = 17;
  cfg.validation.enabled = true;

  auto dataset = data::make_synthetic(tiny_dataset(2));
  auto factory = tiny_model();
  util::Rng probe(1);
  const std::size_t dim = factory(probe)->dim();
  auto controller = std::make_unique<online::ExtendedSignOgd>(
      online::ExtendedSignOgd::Config{2.0, static_cast<double>(dim), 0.0, 1.5, 10});
  Simulation sim(cfg, std::move(dataset), factory, sparsify::make_method("fab_topk", dim, 5),
                 std::move(controller));
  const auto res = sim.run();

  EXPECT_EQ(res.rounds_run, 50u);
  EXPECT_TRUE(std::isfinite(res.final_loss));
  for (const float w : sim.client_weights(0)) ASSERT_TRUE(std::isfinite(w));
  for (const double k : res.k_sequence) EXPECT_TRUE(std::isfinite(k));
  std::size_t dropped = 0, corrupted = 0;
  for (const auto& rec : res.records) {
    dropped += rec.dropped;
    corrupted += rec.corrupted;
  }
  EXPECT_GT(dropped, 0u);
  EXPECT_GT(corrupted, 0u);
}

TEST(FaultInjection, FaultedTraceIsThreadCountInvariant) {
  // The fault schedule is stateless in (seed, round, client) and screening is
  // RNG-free, so a faulted run must be byte-identical at every thread count.
  SimulationConfig cfg = base_sim(1);
  cfg.max_rounds = 25;
  cfg.faults.drop_prob = 0.15;
  cfg.faults.corrupt_prob = 0.1;
  cfg.faults.crash_prob = 0.05;
  cfg.faults.seed = 23;
  cfg.validation.enabled = true;
  const auto t1 = run_fixed_k("fab_topk", 20.0, cfg);
  cfg.threads = 2;
  const auto t2 = run_fixed_k("fab_topk", 20.0, cfg);
  cfg.threads = 8;
  const auto t8 = run_fixed_k("fab_topk", 20.0, cfg);
  expect_identical(t1, t2, "faulted/threads=1vs2");
  expect_identical(t1, t8, "faulted/threads=1vs8");
}

// ---------------- record / replay -------------------------------------------

TEST(Replay, SyncFaultedRunReplaysAtEveryShardCount) {
  SimulationConfig cfg = base_sim();
  cfg.max_rounds = 25;
  cfg.faults.drop_prob = 0.1;
  cfg.faults.corrupt_prob = 0.1;
  cfg.faults.seed = 99;
  cfg.validation.enabled = true;

  auto dataset = data::make_synthetic(tiny_dataset());
  auto factory = tiny_model();
  util::Rng probe(1);
  const std::size_t dim = factory(probe)->dim();
  RoundRecorder recorder(dim, dataset.clients.size(), "fab_topk", 5, cfg.faults, cfg.validation);
  {
    Simulation sim(cfg, std::move(dataset), factory, sparsify::make_method("fab_topk", dim, 5),
                   std::make_unique<online::FixedK>(20.0));
    sim.set_recorder(&recorder);
    sim.run();
  }
  const ReplayLog& log = recorder.log();
  ASSERT_GT(log.rounds.size(), 10u);
  bool saw_fault = false;
  for (const auto& r : log.rounds) saw_fault |= !r.faults.empty();
  EXPECT_TRUE(saw_fault);

  // The log is engine-agnostic: any shard count reproduces every digest.
  for (const std::size_t shards : {std::size_t{1}, std::size_t{8}}) {
    const ReplayResult res = replay(log, shards);
    EXPECT_EQ(res.rounds, log.rounds.size()) << "shards " << shards;
    EXPECT_EQ(res.mismatches, 0u) << "shards " << shards;
  }

  // Binary round-trip preserves the log byte-for-byte.
  const std::string path = ::testing::TempDir() + "fault_replay_test.bin";
  log.save(path);
  const ReplayLog loaded = ReplayLog::load(path);
  std::remove(path.c_str());
  ASSERT_EQ(loaded.rounds.size(), log.rounds.size());
  for (std::size_t i = 0; i < log.rounds.size(); ++i) {
    EXPECT_EQ(loaded.rounds[i].digest, log.rounds[i].digest);
    EXPECT_EQ(loaded.rounds[i].vec_values, log.rounds[i].vec_values);
    EXPECT_EQ(loaded.rounds[i].faults, log.rounds[i].faults);
    EXPECT_EQ(loaded.rounds[i].timeline, log.rounds[i].timeline);
  }
  const ReplayResult from_disk = replay(loaded, 8);
  EXPECT_EQ(from_disk.mismatches, 0u);
}

TEST(Replay, AsyncFaultedRunReplays) {
  // Staleness-folded weights are recorded as the method saw them, so the
  // buffered-async engine's log replays without any engine at all.
  SimulationConfig cfg = base_sim();
  cfg.max_rounds = 25;
  cfg.aggregation = AggregationMode::kBufferedAsync;
  cfg.async.buffer_size = 4;
  cfg.async.staleness_lambda = 0.25;
  cfg.faults.drop_prob = 0.1;
  cfg.faults.seed = 99;
  cfg.validation.enabled = true;

  auto dataset = data::make_synthetic(tiny_dataset());
  auto factory = tiny_model();
  util::Rng probe(1);
  const std::size_t dim = factory(probe)->dim();
  RoundRecorder recorder(dim, dataset.clients.size(), "fab_topk", 5, cfg.faults, cfg.validation);
  Simulation sim(cfg, std::move(dataset), factory, sparsify::make_method("fab_topk", dim, 5),
                 std::make_unique<online::FixedK>(20.0));
  sim.set_recorder(&recorder);
  sim.run();

  const ReplayLog& log = recorder.log();
  ASSERT_GT(log.rounds.size(), 10u);
  bool saw_stale_fold = false;
  for (const auto& r : log.rounds) {
    for (const Event& e : r.timeline) saw_stale_fold |= e.kind == EventKind::kBufferFlush;
  }
  EXPECT_TRUE(saw_stale_fold);
  for (const std::size_t shards : {std::size_t{1}, std::size_t{8}}) {
    const ReplayResult res = replay(log, shards);
    EXPECT_EQ(res.mismatches, 0u) << "shards " << shards;
  }
}

// ---------------- untrusted replay logs --------------------------------------

// A hand-built two-round log: D = 16, three clients per round.
ReplayLog small_log() {
  ReplayLog log;
  log.dim = 16;
  log.fleet = 3;
  log.seed = 3;
  log.method = "fab_topk";
  for (std::uint32_t m = 1; m <= 2; ++m) {
    ReplayRound r;
    r.round = m;
    r.k = 4;
    r.client_ids = {0, 1, 2};
    r.data_weights = {0.25, 0.25, 0.5};
    r.vec_offsets = {0, 3, 3, 7};
    r.vec_indices = {1, 5, 9, 0, 2, 14, 15};
    r.vec_values = {0.5f, -1.0f, 2.0f, 0.25f, -0.75f, 1.5f, -3.0f};
    log.rounds.push_back(r);
  }
  return log;
}

std::string saved_bytes(const ReplayLog& log, const std::string& path) {
  log.save(path);
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

// True when `bytes` load as a replay log, false when load() throws
// std::runtime_error. Any other exception escapes and fails the test.
bool loads(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc).write(bytes.data(),
                                                                 static_cast<std::streamsize>(bytes.size()));
  try {
    (void)ReplayLog::load(path);
    return true;
  } catch (const std::runtime_error&) {
    return false;
  }
}

void put_u64(std::string& bytes, std::size_t at, std::uint64_t v) {
  std::memcpy(bytes.data() + at, &v, sizeof v);
}

TEST(ReplayLoad, TruncatedLogsThrow) {
  const std::string path = ::testing::TempDir() + "replay_truncated.bin";
  const std::string bytes = saved_bytes(small_log(), path);
  ASSERT_TRUE(loads(path, bytes));
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(loads(path, bytes.substr(0, len))) << "prefix of " << len << " bytes";
  }
  std::remove(path.c_str());
}

TEST(ReplayLoad, BitFlippedLogsThrowOrLoad) {
  // Every single-bit flip of a valid log must either load or throw
  // std::runtime_error — never crash, never over-allocate (the sanitizer
  // job runs this). Flips in length prefixes, offsets and indices must be
  // among the rejected ones.
  const std::string path = ::testing::TempDir() + "replay_bitflip.bin";
  const std::string bytes = saved_bytes(small_log(), path);
  std::size_t rejected = 0;
  for (std::size_t at = 0; at < bytes.size(); ++at) {
    for (const int bit : {0, 3, 7}) {
      std::string flipped = bytes;
      flipped[at] = static_cast<char>(flipped[at] ^ (1 << bit));
      if (!loads(path, flipped)) ++rejected;
    }
  }
  std::remove(path.c_str());
  EXPECT_GT(rejected, bytes.size() / 4);
}

TEST(ReplayLoad, OversizedLengthsThrowWithoutAllocating) {
  const std::string path = ::testing::TempDir() + "replay_oversized.bin";
  const std::string bytes = saved_bytes(small_log(), path);
  ReplayLog header_only = small_log();
  header_only.rounds.clear();
  const std::size_t header = saved_bytes(header_only, path).size();
  const std::size_t method_len_at = sizeof(std::uint32_t) + 3 * sizeof(std::uint64_t);
  const std::size_t rounds_at = header - sizeof(std::uint64_t);
  const std::size_t ids_len_at = header + 2 * sizeof(std::uint32_t);
  for (const std::size_t at : {method_len_at, rounds_at, ids_len_at}) {
    // 2^62 + 1 four-byte ids would overflow a 64-bit byte count to 4.
    for (const std::uint64_t n : {std::uint64_t{1} << 40, (std::uint64_t{1} << 62) + 1,
                                  std::numeric_limits<std::uint64_t>::max()}) {
      std::string big = bytes;
      put_u64(big, at, n);
      EXPECT_FALSE(loads(path, big)) << "length " << n << " at byte " << at;
    }
  }
  std::remove(path.c_str());
}

TEST(ReplayLoad, FlippedClientIdBitsThrowOnLoad) {
  // The selection sizes its per-client hint store by the largest client id,
  // so an id flipped to ~2^31 would ask replay() for gigabytes. load() must
  // reject it from the recorded fleet size alone (replay() is not called).
  const std::string path = ::testing::TempDir() + "replay_flipped_id.bin";
  const std::string bytes = saved_bytes(small_log(), path);
  ReplayLog header_only = small_log();
  header_only.rounds.clear();
  const std::size_t header = saved_bytes(header_only, path).size();
  const std::size_t ids_at = header + 2 * sizeof(std::uint32_t) + sizeof(std::uint64_t);
  for (std::size_t id = 0; id < 3; ++id) {
    for (int bit = 2; bit < 32; ++bit) {
      std::string flipped = bytes;
      const std::size_t at =
          ids_at + id * sizeof(std::uint32_t) + static_cast<std::size_t>(bit / 8);
      flipped[at] = static_cast<char>(flipped[at] ^ (1 << (bit % 8)));
      EXPECT_FALSE(loads(path, flipped)) << "client " << id << " bit " << bit;
    }
  }
  std::remove(path.c_str());
}

TEST(ReplayLoad, InconsistentRoundsThrowOnLoadAndReplay) {
  const std::string path = ::testing::TempDir() + "replay_inconsistent.bin";
  const auto broken = [](auto mutate) {
    ReplayLog log = small_log();
    mutate(log);
    return log;
  };
  const std::vector<std::pair<const char*, ReplayLog>> cases = {
      {"dim 0", broken([](ReplayLog& l) { l.dim = 0; })},
      {"fleet 0", broken([](ReplayLog& l) { l.fleet = 0; })},
      {"id == fleet", broken([](ReplayLog& l) { l.rounds[1].client_ids[2] = 3; })},
      {"ids descend", broken([](ReplayLog& l) { l.rounds[0].client_ids = {0, 2, 1}; })},
      {"ids repeat", broken([](ReplayLog& l) { l.rounds[1].client_ids = {0, 1, 1}; })},
      {"index == dim", broken([](ReplayLog& l) { l.rounds[1].vec_indices[6] = 16; })},
      {"negative index", broken([](ReplayLog& l) { l.rounds[0].vec_indices[0] = -1; })},
      {"weights/ids size", broken([](ReplayLog& l) { l.rounds[0].data_weights.pop_back(); })},
      {"offsets count", broken([](ReplayLog& l) { l.rounds[0].vec_offsets.pop_back(); })},
      {"offsets decrease", broken([](ReplayLog& l) { l.rounds[1].vec_offsets[2] = 2; })},
      {"offsets start", broken([](ReplayLog& l) { l.rounds[1].vec_offsets[0] = 1; })},
      {"offsets end", broken([](ReplayLog& l) { l.rounds[0].vec_offsets[3] = 6; })},
      {"values size", broken([](ReplayLog& l) { l.rounds[0].vec_values.push_back(1.0f); })},
  };
  for (const auto& [what, log] : cases) {
    log.save(path);
    EXPECT_THROW(ReplayLog::load(path), std::runtime_error) << what;
    EXPECT_THROW(replay(log, 1), std::runtime_error) << what;
  }
  std::remove(path.c_str());
}

// A crafted log whose rounds would need n · dim dense floats far above the
// cap (3 clients at dim 2^31, 24 GiB) is refused with a message naming n,
// dim and the cap, before the method or the vectors are allocated.
TEST(ReplayLoad, OversizedRoundsThrowBeforeAllocating) {
  const auto refusal = [](const ReplayLog& log) -> std::string {
    try {
      (void)replay(log, 1);
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "accepted";
  };
  ReplayLog log = small_log();
  log.dim = std::uint64_t{1} << 31;
  const std::string what = refusal(log);
  EXPECT_NE(what.find("3 clients"), std::string::npos) << what;
  EXPECT_NE(what.find("dim " + std::to_string(log.dim)), std::string::npos) << what;
  EXPECT_NE(what.find("cap of " + std::to_string(kReplayMaxDenseFloats)), std::string::npos)
      << what;
  // One client over the cap is refused too, and so is a round with no
  // clients: the method's own arenas are dim-sized.
  log.rounds.resize(1);
  log.rounds[0].client_ids = {0};
  log.rounds[0].data_weights = {1.0};
  log.rounds[0].vec_offsets = {0, 3};
  log.rounds[0].vec_indices.resize(3);
  log.rounds[0].vec_values.resize(3);
  EXPECT_NE(refusal(log).find("1 clients"), std::string::npos) << refusal(log);
  log.rounds[0] = ReplayRound{};
  log.rounds[0].vec_offsets = {0};
  EXPECT_NE(refusal(log).find("0 clients"), std::string::npos) << refusal(log);
}

// ---------------- buffered-async catch-up after >= 3 missed flushes ---------

TEST(AsyncCatchUp, TripleMissedFlushFoldsExactlyOnceWithFullStaleness) {
  // Churn keeps deferred clients offline for stretches; the catch-up flush
  // must fold a contribution that waited >= 3 flush windows, with staleness
  // equal to the full wait, and the buffer must keep draining (mass is never
  // dropped: every deferred upload eventually contributes, pending count
  // matches the records bit-for-bit).
  SimulationConfig cfg = base_sim();
  cfg.max_rounds = 60;
  cfg.eval_every = 0;
  cfg.aggregation = AggregationMode::kBufferedAsync;
  cfg.async.buffer_size = 3;
  cfg.async.staleness_lambda = 0.25;
  cfg.network.p_drop = 0.3;
  cfg.network.p_recover = 0.25;

  auto dataset = data::make_synthetic(tiny_dataset());
  auto factory = tiny_model();
  util::Rng probe(1);
  const std::size_t dim = factory(probe)->dim();
  Simulation sim(cfg, std::move(dataset), factory, sparsify::make_method("fab_topk", dim, 5),
                 std::make_unique<online::FixedK>(20.0));
  const auto res = sim.run();

  std::size_t deepest = 0;
  for (const auto& rec : res.records) {
    deepest = std::max(deepest, rec.max_staleness);
    EXPECT_TRUE(std::isfinite(rec.mean_staleness)) << "round " << rec.round;
    // max >= mean always; a flush's staleness never exceeds its round index.
    EXPECT_GE(static_cast<double>(rec.max_staleness) * static_cast<double>(rec.participants),
              rec.mean_staleness * static_cast<double>(rec.participants))
        << "round " << rec.round;
    EXPECT_LT(rec.max_staleness, rec.round) << "round " << rec.round;
  }
  EXPECT_GE(deepest, 3u) << "no catch-up after >= 3 missed flushes materialized";

  // Pending accounting is exact at the end of the run, and the folded mass
  // reached the model: every client contributed despite the churn.
  EXPECT_EQ(sim.pending_uploads(), res.records.back().buffered_stale);
  for (const float w : sim.client_weights(0)) ASSERT_TRUE(std::isfinite(w));
  std::size_t contributors = 0;
  for (const std::size_t c : res.contributed_totals) contributors += c > 0 ? 1 : 0;
  EXPECT_EQ(contributors, 10u);
}

}  // namespace
}  // namespace fedsparse::fl
