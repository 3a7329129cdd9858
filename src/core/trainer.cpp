#include "core/trainer.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "sparsify/method.h"
#include "util/logging.h"

namespace fedsparse::core {

data::SyntheticConfig resolve_dataset(const DatasetSpec& spec) {
  data::SyntheticConfig cfg;
  if (spec.name == "custom") {
    cfg = spec.custom;
  } else if (spec.name == "femnist") {
    cfg = data::femnist_like(spec.scale, spec.seed);
  } else if (spec.name == "cifar") {
    cfg = data::cifar_like(spec.scale, spec.seed);
  } else {
    throw std::invalid_argument("resolve_dataset: unknown dataset '" + spec.name +
                                "' (expected femnist|cifar|custom)");
  }
  if (spec.prototype_sparsity > 0.0) cfg.prototype_sparsity = spec.prototype_sparsity;
  return cfg;
}

nn::ModelFactory resolve_model(const ModelSpec& spec, const data::SyntheticConfig& data_cfg) {
  return nn::make_model(spec.name, data_cfg.channels, data_cfg.height, data_cfg.width,
                        data_cfg.num_classes, spec.hidden, spec.cnn_scale);
}

FederatedTrainer::FederatedTrainer(TrainerConfig cfg) : cfg_(std::move(cfg)) {
  data_cfg_ = resolve_dataset(cfg_.dataset);
  factory_ = resolve_model(cfg_.model, data_cfg_);
  util::Rng probe_rng(7);
  dim_ = factory_(probe_rng)->dim();

  // Auto-fill the controller search interval: kmin = max(2, 0.002·D),
  // kmax = D — the paper's Fig. 5 configuration.
  auto& kc = cfg_.controller;
  if (kc.kmin <= 0.0) kc.kmin = std::max(2.0, 0.002 * static_cast<double>(dim_));
  if (kc.kmax <= 0.0) kc.kmax = static_cast<double>(dim_);
  if (kc.seed == 1) kc.seed = cfg_.sim.seed ^ 0x5157ULL;
  cfg_.validate();
}

void TrainerConfig::validate() const {
  (void)sparsify::make_method(method, /*dim=*/1, /*seed=*/0);  // throws on an unknown name
  (void)online::make_controller(controller);
  if (!scenario.empty()) {
    const std::vector<std::string> names = fl::scenario_names();
    if (std::find(names.begin(), names.end(), scenario) == names.end()) {
      throw std::invalid_argument("TrainerConfig: unknown scenario '" + scenario + "'");
    }
  }
  if (!(controller.kmin <= controller.kmax)) {
    throw std::invalid_argument("TrainerConfig: controller kmin " +
                                std::to_string(controller.kmin) + " exceeds kmax " +
                                std::to_string(controller.kmax));
  }
  if (!(dataset.prototype_sparsity >= 0.0 && dataset.prototype_sparsity <= 1.0)) {
    throw std::invalid_argument("TrainerConfig: dataset.prototype_sparsity must be in [0, 1]");
  }
  sim.validate();
}

fl::SimulationResult FederatedTrainer::run() {
  data::FederatedDataset dataset = data::make_synthetic(data_cfg_);
  if (!cfg_.scenario.empty()) {
    fl::apply_scenario(fl::make_scenario(cfg_.scenario, dataset.clients.size(), cfg_.sim.seed),
                       cfg_.sim);
  }
  auto method = sparsify::make_method(cfg_.method, dim_, cfg_.sim.seed ^ 0x3E7ULL);
  auto controller = online::make_controller(cfg_.controller);
  fl::Simulation sim(cfg_.sim, std::move(dataset), factory_, std::move(method),
                     std::move(controller));
  return sim.run();
}

}  // namespace fedsparse::core
