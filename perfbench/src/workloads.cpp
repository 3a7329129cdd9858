#include "workloads.h"

#include <cstring>
#include <stdexcept>

#include "fl/network.h"
#include "nn/linear.h"
#include "nn/relu.h"
#include "online/factory.h"
#include "probes.h"
#include "util/rng.h"

namespace perfbench {

Seeds Seeds::derive(std::uint64_t workload_seed, std::size_t trajectory) {
  std::uint64_t state = (workload_seed ^ 0xBE7C4A11ULL) + 0x9E3779B97F4A7C15ULL * trajectory;
  Seeds s;
  s.data = fedsparse::util::splitmix64(state);
  s.sim = fedsparse::util::splitmix64(state);
  s.method = fedsparse::util::splitmix64(state);
  s.controller = fedsparse::util::splitmix64(state);
  s.scenario = fedsparse::util::splitmix64(state);
  s.check = fedsparse::util::splitmix64(state);
  return s;
}

namespace {

// ------------------------------------------------- timed model mirrors ---
// Same layer sequence as nn::mlp (nn/models.cpp), each layer wrapped in a
// TimedLayer. verify_timed_model() pins the equivalence.

nn::ModelFactory timed_mlp(std::size_t in, std::vector<std::size_t> hidden,
                           std::size_t classes) {
  return [=](fedsparse::util::Rng& rng) {
    auto model = std::make_unique<nn::Sequential>(in);
    bool first = true;
    const auto add = [&](std::unique_ptr<nn::Layer> layer, LayerKind kind) {
      model->add(std::make_unique<TimedLayer>(std::move(layer), kind, first));
      first = false;
    };
    std::size_t prev = in;
    for (std::size_t h : hidden) {
      add(std::make_unique<nn::Linear>(prev, h), LayerKind::kLinear);
      add(std::make_unique<nn::ReLU>(), LayerKind::kReLU);
      prev = h;
    }
    add(std::make_unique<nn::Linear>(prev, classes), LayerKind::kLinear);
    model->finalize(rng);
    return model;
  };
}

std::unique_ptr<sparsify::Method> fab_topk(std::size_t dim, const Seeds& s) {
  return sparsify::make_method("fab_topk", dim, s.method);
}

std::unique_ptr<online::KController> fixed_k(double k, const Seeds& s) {
  online::ControllerConfig c;
  c.name = "fixed";
  c.fixed_k = k;
  c.seed = s.controller;
  return online::make_controller(c);
}

fl::SimulationConfig base_config(const Workload& w, const Seeds& s) {
  fl::SimulationConfig cfg;
  cfg.threads = kThreads;
  cfg.max_rounds = w.rounds;
  cfg.seed = s.sim;
  return cfg;
}

// --------------------------------------------------------- workloads ---

// paper_adaptive: the paper's own setting — FEMNIST-like writers, MLP
// 784-64-62 (D = 54,270), Algorithm 3 over [0.002·D, D] with its k' probe
// every round, full participation, homogeneous β = 10.
constexpr double kPaperScale = 0.15;  // 23 of FEMNIST's 156 writers

Workload paper_adaptive() {
  Workload w;
  w.name = "paper_adaptive";
  w.why = "the paper's setting: Algorithm 3 moves k and probes k' every round, so sparsify "
          "dominates";
  w.rounds = 40;
  w.warmup = 10;
  // Algorithm 3's k trajectory is a large-step random walk on noisy loss
  // signs, so one trajectory's k level, and with it uplink, simulated time
  // and round cost, swings ~10% between seeds however long it runs. A sweep
  // of eight short trajectories averages that down by √8.
  w.trajectories = 8;
  w.data = [](const Seeds& s) { return data::femnist_like(kPaperScale, s.data); };
  w.sim = base_config;
  w.library_model = [] { return nn::mlp(784, {64}, 62); };
  w.timed_model = [] { return timed_mlp(784, {64}, 62); };
  w.method = fab_topk;
  w.controller = [](std::size_t dim, const Seeds& s) {
    online::ControllerConfig c;
    c.name = "extended_sign_ogd";
    c.kmin = 0.002 * static_cast<double>(dim);
    c.kmax = static_cast<double>(dim);
    c.seed = s.controller;
    return online::make_controller(c);
  };
  return w;
}

// fleet_churn_async: 5,000 clients with a tiny MLP 64-32-10 (D = 2,410), 20%
// participation under churn_heavy availability, buffered-async flushes of
// M = 100 with staleness, fixed k = 64. Thousands of tiny nn calls per round
// and the fl churn / event-timeline / async-buffer code.
constexpr std::size_t kFleetClients = 5000;

Workload fleet_churn_async() {
  Workload w;
  w.name = "fleet_churn_async";
  w.why = "5,000 churning clients, buffered async: per-call nn overhead and fl's churn, "
          "timeline and async-buffer code";
  w.rounds = 150;
  w.warmup = 30;
  w.synchronous = false;
  w.data = [](const Seeds& s) {
    data::SyntheticConfig d;
    d.num_classes = 10;
    d.channels = 1;
    d.height = 8;
    d.width = 8;
    d.num_clients = kFleetClients;
    d.samples_per_client = 16;
    d.test_samples = 512;
    d.classes_per_writer = 4;
    // Close class prototypes keep the task hard, so after 150 rounds the loss
    // is still falling steadily on every seed rather than racing toward
    // seed-specific floors (the final loss is then comparable across seeds).
    d.class_sep = 1.0;
    d.seed = s.data;
    return d;
  };
  w.sim = [](const Workload& self, const Seeds& s) {
    fl::SimulationConfig cfg = base_config(self, s);
    fl::apply_scenario(fl::make_scenario("churn_heavy", kFleetClients, s.scenario), cfg);
    cfg.participation = 0.2;
    cfg.aggregation = fl::AggregationMode::kBufferedAsync;
    cfg.async.buffer_size = 100;
    return cfg;
  };
  w.library_model = [] { return nn::mlp(64, {32}, 10); };
  w.timed_model = [] { return timed_mlp(64, {32}, 10); };
  w.method = fab_topk;
  w.controller = [](std::size_t, const Seeds& s) { return fixed_k(64.0, s); };
  return w;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {paper_adaptive(), fleet_churn_async()};
  return all;
}

void check_config(const Workload& w, const fl::SimulationConfig& cfg) {
  if (cfg.threads != kThreads) {
    throw std::invalid_argument("perfbench: threads must be " + std::to_string(kThreads) +
                                " (0 would size the pool to the machine)");
  }
  if (cfg.eval_every == 0 || w.warmup == 0 || w.warmup % cfg.eval_every != 0 ||
      w.rounds % cfg.eval_every != 0 || w.rounds <= w.warmup) {
    throw std::invalid_argument("perfbench: " + w.name +
                                " must time whole evaluation periods after its warm-up");
  }
}

void verify_timed_model(const Workload& w) {
  fedsparse::util::Rng lib_rng(0x5EEDULL), timed_rng(0x5EEDULL);
  const auto lib = w.library_model()(lib_rng);
  const auto timed = w.timed_model()(timed_rng);
  const auto lw = lib->weights();
  const auto tw = timed->weights();
  if (lib->describe() != timed->describe() || lib->dim() != timed->dim() ||
      std::memcmp(lw.data(), tw.data(), lw.size_bytes()) != 0) {
    throw std::runtime_error("perfbench: timed model for '" + w.name +
                             "' no longer matches the library factory (library: " +
                             lib->describe() + ", mirror: " + timed->describe() + ")");
  }
}

}  // namespace perfbench
