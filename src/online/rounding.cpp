#include "online/rounding.h"

#include <algorithm>
#include <cmath>

namespace fedsparse::online {

std::size_t stochastic_round_k(double k, std::size_t dim, util::Rng& rng) {
  const double lo = std::floor(k);
  const double frac = k - lo;
  double chosen = lo;
  if (frac > 0.0 && rng.uniform() < frac) chosen = lo + 1.0;
  chosen = std::clamp(chosen, 1.0, static_cast<double>(dim));
  return static_cast<std::size_t>(chosen);
}

}  // namespace fedsparse::online
