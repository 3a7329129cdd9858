// Per-client accumulated local gradient a_i (Algorithm 1 of the paper),
// stored as a chunk-tiered dense array.
//
// Elements not selected for a round's sparse gradient keep accumulating so
// that they eventually get large enough to be transmitted — the mechanism the
// paper credits for FAB-top-k's convergence. The accumulator conserves
// "gradient mass": every added value either is still in `value()` or was
// explicitly consumed by `reset_indices` after transmission.
//
// Tiered layout: the D-length value array is divided into fixed 64-float
// chunks, each carrying a summary `chunk_max()[c]` — an upper bound on
// max |a_j| over the chunk — and a dirty bit (set iff the bound is nonzero).
// `add` recomputes the bound of every chunk it writes in the same pass that
// performs the adds; `reset_indices` only lowers values, so the stored bound
// stays a valid (possibly stale-high) upper bound without rescanning; a zero
// bound guarantees the chunk holds only (±)zeros. The round path prunes on
// these summaries: the top-k threshold scans skip whole chunks whose bound
// cannot reach the running threshold (sparsify/topk.h), and `reset_all` only
// touches the dirty chunks — so mostly-idle clients (availability churn,
// SparsyFed-scale longtails) cost O(touched chunks), not O(D), per round.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace fedsparse::sparsify {

/// Chunk width of the tiered accumulator, in floats. Shared with the
/// chunk-aware top-k entry points, which interpret a summary span s over a
/// D-length vector as s[c] bounding |v[j]| for j in chunk c.
///
/// 64 floats balances summary overhead (1.6% of D, one cache line of values
/// per bound) against pruning resolution: for the k = D/100 round regime the
/// per-chunk skip probability on a dense Gaussian-ish accumulator is
/// 0.99^64 ~ 0.53, so even fully-dirty clients skip half their chunks, while
/// idle clients skip everything but the dirty tail. Measured on the
/// reference box (D=128k hinted scan): 512-float chunks prune nothing there
/// (34 us, max of 512 draws always clears the k-th-magnitude threshold);
/// 64 -> 21.6 us with 53% skipped; 16 flips to summary-read overhead.
inline constexpr std::size_t kAccumulatorChunk = 64;

/// Number of summary chunks covering a `dim`-length vector.
inline constexpr std::size_t accumulator_chunks(std::size_t dim) noexcept {
  return (dim + kAccumulatorChunk - 1) / kAccumulatorChunk;
}

class GradientAccumulator {
 public:
  explicit GradientAccumulator(std::size_t dim);

  std::size_t dim() const noexcept { return a_.size(); }
  std::size_t num_chunks() const noexcept { return chunk_max_.size(); }

  /// a_i += grad (dimension-checked). Vectorized in 8-lane stripes; 8-lane
  /// groups whose source values are all (±)zero are skipped without touching
  /// the destination (post-reset gradients are mostly zero), and every chunk
  /// the pass writes gets its max-|a| summary recomputed in the same sweep.
  /// (A skipped +0.0 add can preserve a stored -0.0 a dense add would have
  /// flushed to +0.0; the two compare equal and tie identically under |.|.)
  void add(std::span<const float> grad);

  /// Zeroes the transmitted indices (Line 17 of Algorithm 1). Chunk summaries
  /// are left as stale-high upper bounds — zeroing can only lower a chunk's
  /// max, and the next `add` touching the chunk tightens the bound again.
  void reset_indices(std::span<const std::int32_t> indices);

  /// Zeroes everything (used by send-all-style methods). Only dirty chunks
  /// are written.
  void reset_all() noexcept;

  std::span<const float> value() const noexcept { return {a_.data(), a_.size()}; }

  /// Per-chunk upper bound on max |a_j|: exact for chunks untouched since
  /// their last `add`, stale-high after `reset_indices`, and 0 only when the
  /// chunk is guaranteed all-zero. Size is accumulator_chunks(dim()).
  std::span<const float> chunk_max() const noexcept {
    return {chunk_max_.data(), chunk_max_.size()};
  }

  /// Number of dirty chunks (nonzero summary) — what a round actually pays
  /// for this client instead of D.
  std::size_t dirty_chunks() const noexcept { return dirty_count_; }

  /// Visits maximal [begin, end) index ranges covering every dirty chunk in
  /// ascending order (adjacent dirty chunks coalesce into one range) — the
  /// compaction iterator for consumers that would otherwise sweep all of
  /// value(). Clean chunks hold only zeros, so for sum/scan-style consumers
  /// the visited ranges are exhaustive.
  template <typename Fn>
  void for_each_dirty_range(Fn&& fn) const {
    const std::size_t chunks = chunk_max_.size();
    std::size_t c = 0;
    while (c < chunks) {
      if (!dirty_bit(c)) {
        ++c;
        continue;
      }
      std::size_t end = c + 1;
      while (end < chunks && dirty_bit(end)) ++end;
      fn(c * kAccumulatorChunk, std::min(a_.size(), end * kAccumulatorChunk));
      c = end;
    }
  }

 private:
  bool dirty_bit(std::size_t c) const noexcept {
    return (dirty_bits_[c >> 6] >> (c & 63)) & 1u;
  }
  void set_summary(std::size_t c, float bound) noexcept;
  void add_chunk(std::size_t c, const float* g) noexcept;

  std::vector<float> a_;
  std::vector<float> chunk_max_;           // per-chunk upper bound on |a|
  std::vector<std::uint64_t> dirty_bits_;  // bit c set iff chunk_max_[c] > 0
  std::size_t dirty_count_ = 0;
};

}  // namespace fedsparse::sparsify
