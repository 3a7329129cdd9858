// Deep correctness tests: a brute-force reference implementation of the
// paper's Algorithm 1 server selection checked against the optimized
// FabTopK; a hand-traced run of Algorithm 3's pseudocode; post-run weight
// synchronization; and behavioural checks of the sign-estimation loop under
// controlled cost regimes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "data/synthetic.h"
#include "fl/network.h"
#include "fl/simulation.h"
#include "nn/models.h"
#include "online/extended_sign_ogd.h"
#include "online/sign_ogd.h"
#include "fab_reference.h"
#include "sparsify/fab_topk.h"
#include "sparsify/topk.h"
#include "util/rng.h"

namespace fedsparse {
namespace {

// ------------- reference implementation of the paper's Algorithm 1 ---------
//
// reference::fab_topk (tests/fab_reference.h) is a direct, unoptimized
// transcription of Section III-B: heap top-k, a linear κ scan, std::set
// unions, std::map aggregation. Used as an oracle for the production FabTopK.

TEST(FabTopKReference, OptimizedMatchesBruteForceAcrossRandomInstances) {
  util::Rng rng(2024);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 1 + rng.uniform_u64(6);
    const std::size_t dim = 8 + rng.uniform_u64(96);
    const std::size_t k = 1 + rng.uniform_u64(std::min<std::size_t>(dim, 24));
    std::vector<std::vector<float>> a(n, std::vector<float>(dim));
    for (auto& v : a) {
      const double scale = std::exp(rng.normal(0.0, 1.5));  // heterogeneous magnitudes
      for (auto& x : v) x = static_cast<float>(rng.normal(0.0, scale));
    }
    std::vector<double> weights(n);
    double total = 0.0;
    for (auto& w : weights) {
      w = 0.1 + rng.uniform();
      total += w;
    }
    for (auto& w : weights) w /= total;

    const auto ref = reference::fab_topk(a, weights, k);

    sparsify::RoundInput in;
    in.dim = dim;
    in.round = 1;
    in.data_weights = {weights.data(), weights.size()};
    for (const auto& v : a) in.client_vectors.push_back({v.data(), v.size()});
    sparsify::FabTopK method(dim);
    const auto out = method.round(in, k);

    // Same downlink index set and (weighted) values.
    ASSERT_EQ(out.update.size(), ref.downlink.size()) << "trial " << trial;
    for (const auto& e : out.update) {
      const auto it = ref.downlink.find(e.index);
      ASSERT_NE(it, ref.downlink.end()) << "trial " << trial << " index " << e.index;
      EXPECT_NEAR(e.value, it->second, 1e-5) << "trial " << trial;
    }
    // Same per-client reset sets (the production side stores them CSR-flat).
    for (std::size_t i = 0; i < n; ++i) {
      const auto got_span = out.reset_for(i);
      std::set<std::int32_t> got(got_span.begin(), got_span.end());
      EXPECT_EQ(got, ref.reset[i]) << "trial " << trial << " client " << i;
    }
  }
}

// ----------------------- Algorithm 3 pseudocode trace -----------------------

TEST(Algorithm3Trace, FollowsPseudocodeStepByStep) {
  // kmin=10, kmax=110 => B0=100. Mu=3, alpha=1. Feed signs +1,+1,+1 ...
  online::ExtendedSignOgd::Config cfg;
  cfg.kmin = 10.0;
  cfg.kmax = 110.0;
  cfg.initial_k = 60.0;
  cfg.alpha = 1.0;
  cfg.update_window = 3;
  online::ExtendedSignOgd ogd(cfg);

  // m=1: δ = 100/√2 ≈ 70.71; k2 = P(60 − 70.71) = 10 (clipped at kmin).
  EXPECT_NEAR(ogd.delta(), 100.0 / std::sqrt(2.0), 1e-9);
  ogd.observe_sign(1);
  EXPECT_DOUBLE_EQ(ogd.current_k(), 10.0);

  // m=2: δ = 100/√4 = 50; k3 = P(10 − 50·(−1)) = 60.
  EXPECT_NEAR(ogd.delta(), 50.0, 1e-9);
  ogd.observe_sign(-1);
  EXPECT_DOUBLE_EQ(ogd.current_k(), 60.0);

  // m=3: δ = 100/√6 ≈ 40.82; k4 = P(60 − 40.82) ≈ 19.18. This is the 3rd
  // valid update => window check fires. Tracked k values {10, 60, 19.18}:
  // with α=1, candidate interval [10, 60], B' = 50. Restart requires
  // B' < (√2−1)·100 ≈ 41.42 — 50 is NOT smaller, so no restart.
  ogd.observe_sign(1);
  EXPECT_NEAR(ogd.current_k(), 60.0 - 100.0 / std::sqrt(6.0), 1e-9);
  EXPECT_EQ(ogd.instances_started(), 1u);
  EXPECT_DOUBLE_EQ(ogd.interval_lo(), 10.0);
  EXPECT_DOUBLE_EQ(ogd.interval_hi(), 110.0);

  // Next window: δ_4..δ_6 = 100/√8, 100/√10, 100/√12 ≈ 35.36, 31.62, 28.87.
  // Feed +1, −1, +1: k5 = P(19.18 − 35.36) = 10; k6 = 10 + 31.62 = 41.62;
  // k7 = 41.62 − 28.87 = 12.76. Tracked range [10, 41.62] => B' = 31.62,
  // which IS < (√2−1)·100 ≈ 41.42, and M'' = 6 ≥ M' = 0 => restart.
  ogd.observe_sign(1);
  EXPECT_DOUBLE_EQ(ogd.current_k(), 10.0);
  ogd.observe_sign(-1);
  EXPECT_NEAR(ogd.current_k(), 10.0 + 100.0 / std::sqrt(10.0), 1e-9);
  const double k6 = ogd.current_k();
  ogd.observe_sign(1);  // third valid update of the window -> fires + restarts
  EXPECT_NEAR(ogd.current_k(), k6 - 100.0 / std::sqrt(12.0), 1e-9);
  EXPECT_EQ(ogd.instances_started(), 2u);
  EXPECT_DOUBLE_EQ(ogd.interval_lo(), 10.0);
  EXPECT_NEAR(ogd.interval_hi(), 10.0 + 100.0 / std::sqrt(10.0), 1e-9);
  EXPECT_LT(ogd.interval_hi() - ogd.interval_lo(), (std::sqrt(2.0) - 1.0) * 100.0);

  // After the restart, δ resets: next δ = B_new/√2 (m − m0 = 1).
  const double b_new = ogd.interval_hi() - ogd.interval_lo();
  EXPECT_NEAR(ogd.delta(), b_new / std::sqrt(2.0), 1e-9);
}

TEST(Algorithm2Trace, DeltaAndProjectionSequence) {
  online::SignOgd ogd(online::SignOgd::Config{1.0, 101.0, 51.0});
  const double b = 100.0;
  std::vector<int> signs{1, -1, 1, 1, -1};
  double k = 51.0;
  for (std::size_t m = 1; m <= signs.size(); ++m) {
    EXPECT_NEAR(ogd.current_k(), k, 1e-9) << "m=" << m;
    const double delta = b / std::sqrt(2.0 * static_cast<double>(m));
    EXPECT_NEAR(ogd.delta(), delta, 1e-9);
    ogd.observe_sign(signs[m - 1]);
    k = std::clamp(k - delta * signs[m - 1], 1.0, 101.0);
  }
}

// ------------------------ simulation invariants -----------------------------

TEST(SimulationInvariants, AllClientsHoldIdenticalWeightsAfterGsRun) {
  data::SyntheticConfig dcfg;
  dcfg.num_classes = 4;
  dcfg.channels = 1;
  dcfg.height = 4;
  dcfg.width = 4;
  dcfg.num_clients = 6;
  dcfg.samples_per_client = 16;
  dcfg.test_samples = 32;
  dcfg.seed = 12;
  auto factory = nn::mlp(16, {8}, 4);
  util::Rng probe(1);
  const std::size_t dim = factory(probe)->dim();
  for (const char* method : {"fab_topk", "fub_topk", "unidirectional_topk", "periodic",
                             "send_all"}) {
    fl::SimulationConfig scfg;
    scfg.lr = 0.05f;
    scfg.batch = 8;
    scfg.max_rounds = 15;
    scfg.comm_time = 1.0;
    scfg.eval_every = 100;  // no mid-run eval
    scfg.threads = 2;
    fl::Simulation sim(scfg, data::make_synthetic(dcfg), factory,
                       sparsify::make_method(method, dim, 3),
                       std::make_unique<online::FixedK>(10.0));
    (void)sim.run();
    const auto w0 = sim.client_weights(0);
    for (std::size_t i = 1; i < sim.num_clients(); ++i) {
      const auto wi = sim.client_weights(i);
      for (std::size_t j = 0; j < dim; ++j) {
        ASSERT_EQ(w0[j], wi[j]) << method << ": client " << i << " coord " << j;
      }
    }
  }
}

TEST(SimulationInvariants, PartialParticipationKeepsWeightsSynchronized) {
  // Even with client sampling, the downlink is broadcast to everyone, so the
  // Algorithm 1 synchronization invariant must survive.
  data::SyntheticConfig dcfg;
  dcfg.num_classes = 3;
  dcfg.channels = 1;
  dcfg.height = 3;
  dcfg.width = 3;
  dcfg.num_clients = 7;
  dcfg.samples_per_client = 12;
  dcfg.test_samples = 16;
  dcfg.seed = 5;
  auto factory = nn::mlp(9, {6}, 3);
  util::Rng probe(1);
  const std::size_t dim = factory(probe)->dim();
  fl::SimulationConfig scfg;
  scfg.lr = 0.05f;
  scfg.batch = 4;
  scfg.max_rounds = 25;
  scfg.comm_time = 1.0;
  scfg.eval_every = 100;
  scfg.participation = 0.4;
  scfg.threads = 2;
  fl::Simulation sim(scfg, data::make_synthetic(dcfg), factory,
                     sparsify::make_method("fab_topk", dim, 3),
                     std::make_unique<online::FixedK>(8.0));
  (void)sim.run();
  const auto w0 = sim.client_weights(0);
  for (std::size_t i = 1; i < sim.num_clients(); ++i) {
    const auto wi = sim.client_weights(i);
    for (std::size_t j = 0; j < dim; ++j) {
      ASSERT_EQ(w0[j], wi[j]) << "client " << i;
    }
  }
}

// --------------- sign-estimation loop under controlled regimes --------------

TEST(SignLoopBehaviour, CommHeavyFeedbackWalksKDown) {
  // Synthesize feedback where smaller k is genuinely better: time dominated
  // by communication, loss decrease nearly independent of k. The controller
  // must ratchet k downward.
  online::SignOgd ogd(online::SignOgd::Config{2.0, 1002.0, 800.0});
  const fl::NetworkModel t(100.0, 1.0, 1000, fl::NetworkConfig{}, 1, 1);
  const std::size_t ids[] = {0};
  for (int m = 0; m < 60; ++m) {
    const double k = ogd.current_k();
    const double kp = ogd.probe_k();
    online::RoundFeedback fb;
    fb.loss_prev = 2.0;
    fb.loss_cur = 1.9;    // k-round decreases loss by 0.1
    fb.loss_probe = 1.905;  // k'-round nearly as good
    fb.probe_available = true;
    fb.round_time = t.theta(k, ids);
    fb.theta_probe = t.theta(kp, ids);
    ogd.observe(fb);
  }
  EXPECT_LT(ogd.current_k(), 100.0);
}

TEST(SignLoopBehaviour, ComputeHeavyFeedbackKeepsKHigh) {
  // Now the k'-probe barely decreases the loss (sparse gradients hurt) while
  // communication is almost free: k must stay high.
  online::SignOgd ogd(online::SignOgd::Config{2.0, 1002.0, 500.0});
  const fl::NetworkModel t(0.01, 1.0, 1000, fl::NetworkConfig{}, 1, 1);
  const std::size_t ids[] = {0};
  for (int m = 0; m < 60; ++m) {
    const double k = ogd.current_k();
    const double kp = ogd.probe_k();
    online::RoundFeedback fb;
    fb.loss_prev = 2.0;
    fb.loss_cur = 1.9;
    fb.loss_probe = 1.99;  // probe round achieves almost nothing
    fb.probe_available = true;
    fb.round_time = t.theta(k, ids);
    fb.theta_probe = t.theta(kp, ids);
    ogd.observe(fb);
  }
  EXPECT_GT(ogd.current_k(), 500.0);
}

TEST(SignLoopBehaviour, InvalidRoundsFreezeK) {
  online::ExtendedSignOgd ogd(online::ExtendedSignOgd::Config{2.0, 100.0, 50.0, 1.5, 5});
  const double k0 = ogd.current_k();
  for (int m = 0; m < 10; ++m) {
    online::RoundFeedback fb;  // loss increased => estimator invalid
    fb.loss_prev = 1.0;
    fb.loss_cur = 1.1;
    fb.loss_probe = 1.2;
    fb.probe_available = true;
    fb.round_time = 1.0;
    fb.theta_probe = 1.0;
    ogd.observe(fb);
  }
  EXPECT_DOUBLE_EQ(ogd.current_k(), k0);
  EXPECT_EQ(ogd.instances_started(), 1u);
}

}  // namespace
}  // namespace fedsparse
