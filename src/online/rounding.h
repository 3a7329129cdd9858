// Randomized k-element GS (Definition 2 of the paper): a continuous sparsity
// degree k is realized as ⌊k⌋ with probability ⌈k⌉−k and ⌈k⌉ with probability
// k−⌊k⌋ — stochastic rounding, unbiased in expectation.
#pragma once

#include <cstddef>

#include "util/rng.h"

namespace fedsparse::online {

/// One stochastic-rounding draw, clamped to [1, dim].
std::size_t stochastic_round_k(double k, std::size_t dim, util::Rng& rng);

}  // namespace fedsparse::online
