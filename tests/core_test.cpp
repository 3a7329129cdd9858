// Tests for the core trainer API: config resolution, validation, and a full
// end-to-end run through the public entry point.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/trainer.h"

namespace fedsparse::core {
namespace {

TrainerConfig tiny_config() {
  TrainerConfig cfg;
  cfg.dataset.name = "custom";
  cfg.dataset.custom.num_classes = 4;
  cfg.dataset.custom.channels = 1;
  cfg.dataset.custom.height = 4;
  cfg.dataset.custom.width = 4;
  cfg.dataset.custom.num_clients = 4;
  cfg.dataset.custom.samples_per_client = 16;
  cfg.dataset.custom.test_samples = 64;
  cfg.dataset.custom.classes_per_writer = 2;
  cfg.dataset.custom.seed = 5;
  cfg.model.name = "mlp";
  cfg.model.hidden = 8;
  cfg.method = "fab_topk";
  cfg.controller.name = "fixed";
  cfg.controller.fixed_k = 10.0;
  cfg.sim.max_rounds = 30;
  cfg.sim.batch = 8;
  cfg.sim.lr = 0.05f;
  cfg.sim.eval_every = 10;
  cfg.sim.eval_samples_per_client = 0;
  cfg.sim.eval_test_samples = 0;
  cfg.sim.threads = 2;
  return cfg;
}

TEST(ResolveDataset, KnownNamesAndErrors) {
  DatasetSpec spec;
  spec.name = "femnist";
  spec.scale = 0.1;
  EXPECT_EQ(resolve_dataset(spec).num_classes, 62u);
  spec.name = "cifar";
  EXPECT_EQ(resolve_dataset(spec).num_classes, 10u);
  spec.name = "imagenet";
  EXPECT_THROW(resolve_dataset(spec), std::invalid_argument);
}

TEST(ResolveModel, GeometryFlowsFromDataset) {
  DatasetSpec spec;
  spec.name = "femnist";
  spec.scale = 0.1;
  const auto data_cfg = resolve_dataset(spec);
  ModelSpec model;
  model.name = "mlp";
  model.hidden = 32;
  util::Rng rng(1);
  auto m = resolve_model(model, data_cfg)(rng);
  EXPECT_EQ(m->in_features(), 784u);
  EXPECT_EQ(m->num_classes(), 62u);
}

TEST(FederatedTrainer, AutoFillsControllerInterval) {
  auto cfg = tiny_config();
  cfg.controller.name = "extended_sign_ogd";
  cfg.controller.fixed_k = 0.0;
  FederatedTrainer trainer(cfg);
  EXPECT_GT(trainer.dim(), 0u);
  // kmin = max(2, 0.002 D), kmax = D were auto-filled; run must not throw.
  cfg.sim.max_rounds = 10;
  EXPECT_NO_THROW(FederatedTrainer(cfg).run());
}

TEST(FederatedTrainer, EndToEndLearns) {
  const auto cfg = tiny_config();
  FederatedTrainer trainer(cfg);
  const auto res = trainer.run();
  ASSERT_EQ(res.rounds_run, 30u);
  EXPECT_TRUE(std::isfinite(res.final_loss));
  EXPECT_LT(res.final_loss, res.records.front().train_loss);
  EXPECT_GT(res.final_accuracy, 0.25);
}

TEST(FederatedTrainer, RunsEveryMethodThroughPublicApi) {
  for (const char* method :
       {"fab_topk", "fub_topk", "unidirectional_topk", "periodic", "send_all", "fedavg"}) {
    auto cfg = tiny_config();
    cfg.method = method;
    cfg.sim.max_rounds = 10;
    const auto res = FederatedTrainer(cfg).run();
    EXPECT_EQ(res.rounds_run, 10u) << method;
    EXPECT_TRUE(std::isfinite(res.final_loss)) << method;
  }
}

TEST(FederatedTrainer, RejectsUnknownMethodAtConstruction) {
  auto cfg = tiny_config();
  cfg.method = "magic";
  EXPECT_THROW(FederatedTrainer{cfg}, std::invalid_argument);
}

TEST(FederatedTrainer, ValidatesEverySettingBeforeGeneratingData) {
  const auto broken = [](auto mutate) {
    TrainerConfig cfg = tiny_config();
    mutate(cfg);
    return cfg;
  };
  const std::vector<std::pair<const char*, TrainerConfig>> cases = {
      {"controller name", broken([](TrainerConfig& c) { c.controller.name = "sign_ogdd"; })},
      {"scenario name", broken([](TrainerConfig& c) { c.scenario = "metered_wna"; })},
      {"kmin > kmax", broken([](TrainerConfig& c) {
         c.controller.name = "extended_sign_ogd";
         c.controller.kmin = 1e9;  // kmax auto-fills to D
       })},
      {"prototype_sparsity > 1",
       broken([](TrainerConfig& c) { c.dataset.prototype_sparsity = 1.5; })},
      {"prototype_sparsity < 0",
       broken([](TrainerConfig& c) { c.dataset.prototype_sparsity = -0.1; })},
      {"prototype_sparsity NaN",
       broken([](TrainerConfig& c) { c.dataset.prototype_sparsity = std::nan(""); })},
      {"sim.lr", broken([](TrainerConfig& c) { c.sim.lr = -0.05f; })},
  };
  for (const auto& [what, cfg] : cases) {
    EXPECT_THROW(FederatedTrainer{cfg}, std::invalid_argument) << what;
    EXPECT_THROW(cfg.validate(), std::invalid_argument) << what;
  }
  EXPECT_NO_THROW(tiny_config().validate());
  auto named = tiny_config();
  named.scenario = fl::scenario_names().front();
  EXPECT_NO_THROW(FederatedTrainer{named});
}

TEST(FederatedTrainer, DeterministicAcrossRuns) {
  const auto cfg = tiny_config();
  const auto a = FederatedTrainer(cfg).run();
  const auto b = FederatedTrainer(cfg).run();
  ASSERT_EQ(a.records.size(), b.records.size());
  EXPECT_EQ(a.final_loss, b.final_loss);
  EXPECT_EQ(a.k_sequence, b.k_sequence);
}

TEST(FederatedTrainer, ReplaySequenceThroughController) {
  // The Fig. 7/8 mechanism: record an adaptive run's k sequence, then replay
  // it via the public API against another simulation.
  auto cfg = tiny_config();
  cfg.controller.name = "extended_sign_ogd";
  cfg.controller.fixed_k = 0.0;
  cfg.sim.max_rounds = 20;
  const auto adaptive = FederatedTrainer(cfg).run();
  ASSERT_EQ(adaptive.k_sequence.size(), 20u);

  // Replay by constructing a Simulation directly with ReplayK.
  auto data_cfg = resolve_dataset(cfg.dataset);
  auto factory = resolve_model(cfg.model, data_cfg);
  util::Rng probe(1);
  const std::size_t dim = factory(probe)->dim();
  fl::Simulation sim(cfg.sim, data::make_synthetic(data_cfg), factory,
                     sparsify::make_method("fab_topk", dim, 7),
                     std::make_unique<online::ReplayK>(adaptive.k_sequence));
  const auto replayed = sim.run();
  ASSERT_EQ(replayed.k_sequence.size(), 20u);
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(replayed.k_sequence[i], adaptive.k_sequence[i]);
  }
}

}  // namespace
}  // namespace fedsparse::core
