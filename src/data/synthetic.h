// Synthetic federated datasets standing in for FEMNIST and CIFAR-10.
//
// The real datasets cannot be downloaded in an offline build, so we
// substitute Gaussian-prototype class distributions with per-client
// ("per-writer") style transforms. What the GS / adaptive-k code paths consume is gradients and
// losses whose heterogeneity across clients drives all the paper's effects —
// these generators reproduce that heterogeneity with controllable knobs:
//
//  * class separability (`class_sep`) and in-class noise (`noise_std`)
//    control how fast the global loss can fall;
//  * `writer_style_std` and the partition scheme control non-i.i.d.-ness;
//  * client sample counts vary (lognormal) so the C_i/C weights matter.
#pragma once

#include <cstdint>

#include "data/dataset.h"
#include "data/partition.h"

namespace fedsparse::data {

struct SyntheticConfig {
  std::size_t num_classes = 62;
  std::size_t channels = 1;
  std::size_t height = 28;
  std::size_t width = 28;
  std::size_t num_clients = 156;
  /// Mean training samples per client (FEMNIST: 34659/156 ≈ 222).
  std::size_t samples_per_client = 64;
  /// Lognormal sigma for per-client size variation (0 = equal sizes).
  double samples_spread = 0.4;
  std::size_t test_samples = 1024;

  // Signal geometry. The defaults keep the class signal (inter-prototype
  // distance ≈ class_sep·√2) comfortably above the per-client style shift
  // (norm ≈ writer_style_std·√dim) so the style-free test set stays
  // learnable while clients remain visibly heterogeneous.
  double class_sep = 4.0;       // prototype norm; larger = easier problem
  double noise_std = 0.8;       // within-class isotropic noise
  /// Fraction of feature dimensions carrying class signal (rest are pure
  /// noise). 1.0 = dense prototypes. Real image data is effectively sparse
  /// (background pixels are uninformative), which is what gives top-k
  /// selection its edge over random selection — lower this toward ~0.1 to
  /// reproduce that regime.
  double prototype_sparsity = 1.0;
  double writer_style_std = 0.08;  // per-client additive style shift
  double writer_gain_std = 0.08;   // per-client multiplicative gain jitter

  PartitionKind partition = PartitionKind::kByWriter;
  std::size_t classes_per_writer = 12;
  double dirichlet_alpha = 0.5;

  std::uint64_t seed = 1;

  std::size_t feature_dim() const noexcept { return channels * height * width; }
};

/// Builds per-client datasets plus a global i.i.d. test set.
FederatedDataset make_synthetic(const SyntheticConfig& cfg);

/// FEMNIST-shaped default (62 classes, 28x28x1, by-writer non-i.i.d.,
/// 156 clients). `scale` in (0,1] shrinks client count and samples for
/// CPU-budget runs while keeping the distributional structure.
SyntheticConfig femnist_like(double scale = 1.0, std::uint64_t seed = 1);

/// CIFAR-10-shaped default (10 classes, 32x32x3, 100 clients, one class per
/// client — the paper's strong non-i.i.d. setting).
SyntheticConfig cifar_like(double scale = 1.0, std::uint64_t seed = 1);

}  // namespace fedsparse::data
