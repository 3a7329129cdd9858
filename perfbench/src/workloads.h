// The benchmark's named workloads, built only through the library's public
// API (data::make_synthetic, fl::Simulation, sparsify::make_method,
// online::make_controller). Every seed a workload uses is derived from the one
// workload seed given on the command line.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "data/synthetic.h"
#include "fl/simulation.h"
#include "nn/models.h"
#include "online/controller.h"
#include "sparsify/method.h"

namespace perfbench {

namespace data = fedsparse::data;
namespace fl = fedsparse::fl;
namespace nn = fedsparse::nn;
namespace online = fedsparse::online;
namespace sparsify = fedsparse::sparsify;

/// Worker threads of every workload's pool (plus the calling thread). 0 would
/// mean hardware concurrency, tying the timings to the machine's core count.
inline constexpr std::size_t kThreads = 2;

struct Seeds {
  std::uint64_t data = 0;
  std::uint64_t sim = 0;
  std::uint64_t method = 0;
  std::uint64_t controller = 0;
  std::uint64_t scenario = 0;
  std::uint64_t check = 0;  // picks the clients whose weights are compared

  /// Seeds of one trajectory of a workload seed (see Workload::trajectories).
  static Seeds derive(std::uint64_t workload_seed, std::size_t trajectory);
};

struct Workload {
  std::string name;
  std::string why;
  std::size_t rounds = 0;  // rounds per repetition (the checked outputs depend on it)
  std::size_t warmup = 0;  // leading rounds excluded from timing
  /// Independent simulations per workload seed, each with its own derived
  /// seeds. The deterministic outputs are their mean (final loss) or sum
  /// (simulated time, uplink), so a workload whose outputs swing with a
  /// chaotic controller trajectory averages a few trajectories.
  std::size_t trajectories = 1;
  bool synchronous = true;

  data::SyntheticConfig (*data)(const Seeds&) = nullptr;
  fl::SimulationConfig (*sim)(const Workload&, const Seeds&) = nullptr;
  nn::ModelFactory (*library_model)() = nullptr;
  /// Mirror of library_model() with every layer wrapped in a TimedLayer.
  nn::ModelFactory (*timed_model)() = nullptr;
  std::unique_ptr<sparsify::Method> (*method)(std::size_t dim, const Seeds&) = nullptr;
  std::unique_ptr<online::KController> (*controller)(std::size_t dim, const Seeds&) = nullptr;
};

const std::vector<Workload>& workloads();

/// Throws std::invalid_argument unless the config runs on the pinned pool
/// size and the timed window starts and ends on evaluation rounds.
void check_config(const Workload& w, const fl::SimulationConfig& cfg);

/// Throws std::runtime_error unless the timed mirror builds a model with the
/// library factory's layer names, dimension and initial weights, byte for
/// byte — so a change to the library's model composition fails loudly instead
/// of silently timing a different model.
void verify_timed_model(const Workload& w);

}  // namespace perfbench
