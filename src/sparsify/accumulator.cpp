#include "sparsify/accumulator.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "util/vec_ext.h"

namespace fedsparse::sparsify {

GradientAccumulator::GradientAccumulator(std::size_t dim)
    : a_(dim, 0.0f),
      chunk_max_(accumulator_chunks(dim), 0.0f),
      dirty_bits_((accumulator_chunks(dim) + 63) / 64, 0) {}

void GradientAccumulator::set_summary(std::size_t c, float bound) noexcept {
  chunk_max_[c] = bound;
  const std::uint64_t mask = std::uint64_t{1} << (c & 63);
  std::uint64_t& word = dirty_bits_[c >> 6];
  const bool was_dirty = (word & mask) != 0;
  const bool dirty = bound > 0.0f;
  if (dirty != was_dirty) {
    word ^= mask;
    dirty_count_ += dirty ? 1 : std::size_t(-1);
  }
}

// Adds chunk c of g into a_ and updates the chunk summary (left as it is
// when the chunk was untouched).
void GradientAccumulator::add_chunk(std::size_t c, const float* g_base) noexcept {
  float* __restrict__ a = a_.data();
  const float* __restrict__ g = g_base;
  const std::size_t n = a_.size();
  const std::size_t begin = c * kAccumulatorChunk;
  const std::size_t end = std::min(n, begin + kAccumulatorChunk);
  std::size_t i = begin;
  bool touched = false;  // any destination element written
  bool full = true;      // every element of the chunk written (bound exact)
  // The chunk max reduces over |a| BIT PATTERNS with integer compares:
  // IEEE bit order equals magnitude order for non-NaN values, and a NaN —
  // which a float max would silently drop, leaving a chunk that still
  // holds it marked clean and so skipped by reset_all and the dense
  // fallback — ranks strictly above +inf's bits and survives the
  // reduction.
  std::uint32_t bmax = 0;
#if FEDSPARSE_VEC_EXT
  namespace vec = util::vec;
  using vec::load8;
  using vec::v8sf;
  using vec::v8si;
  v8si vbmax{};
  for (; i + vec::kLanes <= end; i += vec::kLanes) {
    const v8sf gv = load8(g + i);
    if (!vec::any_lane(gv != v8sf{})) {  // all-zero source group: a unchanged
      full = false;
      continue;
    }
    v8sf av = load8(a + i);
    av += gv;
    vec::store8(a + i, av);
    vbmax = vec::max8i(vbmax, vec::abs_bits8(av));
    touched = true;
  }
  bmax = static_cast<std::uint32_t>(vec::reduce_max8i(vbmax));
#endif
  for (; i < end; ++i) {  // scalar tail (and the whole chunk without vec ext)
    a[i] += g[i];
    std::uint32_t b;
    std::memcpy(&b, a + i, sizeof b);
    bmax = std::max(bmax, b & 0x7fffffffu);
    touched = true;
  }
  if (!touched) return;  // summary still exact/valid
  // NaN bit patterns (above +inf's 0x7f800000) pin the bound to infinity:
  // always dirty, never pruned.
  constexpr std::uint32_t kInfBits = 0x7f800000u;
  float mx;
  if (bmax > kInfBits) {
    mx = std::numeric_limits<float>::infinity();
  } else {
    std::memcpy(&mx, &bmax, sizeof mx);
  }
  set_summary(c, full ? mx : std::max(mx, chunk_max_[c]));
}

// flatten: inline add_chunk into the chunk loop — the mostly-zero gradients
// of idle clients spend the whole sweep in add_chunk's skip path, where the
// call overhead itself is the cost.
__attribute__((flatten)) void GradientAccumulator::add(std::span<const float> grad) {
  if (grad.size() != a_.size()) {
    throw std::invalid_argument("GradientAccumulator::add: dimension mismatch");
  }
  for (std::size_t c = 0; c < chunk_max_.size(); ++c) add_chunk(c, grad.data());
}

void GradientAccumulator::reset_indices(std::span<const std::int32_t> indices) {
  for (const std::int32_t idx : indices) {
    if (idx < 0 || static_cast<std::size_t>(idx) >= a_.size()) {
      throw std::out_of_range("GradientAccumulator::reset_indices: index out of range");
    }
    a_[static_cast<std::size_t>(idx)] = 0.0f;
  }
}

void GradientAccumulator::reset_all() noexcept {
  for_each_dirty_range([this](std::size_t begin, std::size_t end) {
    std::memset(a_.data() + begin, 0, (end - begin) * sizeof(float));
  });
  std::fill(chunk_max_.begin(), chunk_max_.end(), 0.0f);
  std::fill(dirty_bits_.begin(), dirty_bits_.end(), 0);
  dirty_count_ = 0;
}

}  // namespace fedsparse::sparsify
