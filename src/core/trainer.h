// FederatedTrainer: the library's top-level public API.
//
// Wires a dataset spec, a model spec, a sparsification method and a
// k-controller into a ready-to-run federated simulation. This is what the
// examples and every figure harness use:
//
//   core::TrainerConfig cfg;
//   cfg.dataset.name = "femnist";
//   cfg.method = "fab_topk";
//   cfg.controller.name = "fixed";  cfg.controller.fixed_k = 1000;
//   cfg.sim.comm_time = 10.0;
//   auto result = core::FederatedTrainer(cfg).run();
#pragma once

#include <cstdint>
#include <string>

#include "data/synthetic.h"
#include "fl/simulation.h"
#include "nn/models.h"
#include "online/factory.h"

namespace fedsparse::core {

struct DatasetSpec {
  /// "femnist" | "cifar" | "custom" (uses `custom` below).
  std::string name = "femnist";
  /// Shrinks clients/samples for CPU-budget runs; 1.0 = paper scale.
  double scale = 0.15;
  /// Overrides the generator's prototype sparsity when in (0, 1]; real image
  /// data is effectively sparse (see data::SyntheticConfig::prototype_sparsity).
  /// 0 keeps the default.
  double prototype_sparsity = 0.0;
  data::SyntheticConfig custom;
  std::uint64_t seed = 1;
};

struct ModelSpec {
  /// "mlp" | "logistic" | "cnn".
  std::string name = "mlp";
  std::size_t hidden = 64;  // mlp hidden width
  double cnn_scale = 0.25;  // channel/hidden multiplier for "cnn"
};

struct TrainerConfig {
  DatasetSpec dataset;
  ModelSpec model;
  /// Sparsification method (see sparsify::make_method).
  std::string method = "fab_topk";
  /// Named network/device scenario, one of fl::scenario_names() (the
  /// fl::make_scenario registry); empty keeps whatever `sim.network` already
  /// says (the homogeneous default).
  std::string scenario;
  /// k controller; kmin/kmax of 0 are auto-filled as
  /// kmin = max(2, 0.002·D) and kmax = D (the paper's Fig. 5 setting).
  online::ControllerConfig controller;
  fl::SimulationConfig sim;

  /// Throws std::invalid_argument naming the first bad setting: an unknown
  /// method, controller or scenario name, kmin > kmax, a prototype_sparsity
  /// outside [0, 1], or anything SimulationConfig::validate() rejects.
  /// FederatedTrainer's constructor calls it after the kmin/kmax auto-fill,
  /// before any data is generated.
  void validate() const;
};

class FederatedTrainer {
 public:
  explicit FederatedTrainer(TrainerConfig cfg);

  /// Builds dataset, clients and controller, runs the simulation.
  fl::SimulationResult run();

  /// Model dimension D for the configured dataset+model (cheap: builds one
  /// throwaway replica).
  std::size_t dim() const { return dim_; }
  const data::SyntheticConfig& dataset_config() const noexcept { return data_cfg_; }

 private:
  TrainerConfig cfg_;
  data::SyntheticConfig data_cfg_;
  nn::ModelFactory factory_;
  std::size_t dim_ = 0;
};

/// Resolves a DatasetSpec into a concrete synthetic configuration.
data::SyntheticConfig resolve_dataset(const DatasetSpec& spec);

/// Builds the model factory for a spec + dataset geometry.
nn::ModelFactory resolve_model(const ModelSpec& spec, const data::SyntheticConfig& data_cfg);

}  // namespace fedsparse::core
