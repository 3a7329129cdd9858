// Minibatch sampling.
#pragma once

#include <span>
#include <vector>

#include "data/dataset.h"
#include "util/rng.h"

namespace fedsparse::data {

struct Minibatch {
  Matrix x;
  std::vector<int> y;
  std::vector<std::size_t> indices;  // source rows (the probe-loss sample h is drawn from these)
};

/// Uniform sampling with replacement (standard SGD minibatching) into `out`,
/// whose storage is reused: a caller that keeps one Minibatch across steps
/// allocates nothing once it has grown. If the dataset has fewer samples than
/// `batch`, the whole dataset is used once.
void sample_minibatch(const Dataset& ds, std::size_t batch, util::Rng& rng, Minibatch& out);

/// Copies rows `indices` of `ds` into `out`, reusing its storage.
void gather(const Dataset& ds, std::span<const std::size_t> indices, Minibatch& out);

}  // namespace fedsparse::data
