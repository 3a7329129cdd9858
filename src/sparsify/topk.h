// Top-k selection by absolute value.
//
// The per-round, per-client hot path of every top-k GS method. The production
// path is a threshold prefilter — seeded by the caller's previous k-th
// magnitude when a workspace persists across rounds, else by a strided
// sample — followed by top_keys_desc, one bucketed select-and-sort pass over
// the survivors' 64-bit keys: O(D) work versus the O(D log D) client sort the
// paper argues against (Section III-B) and the O(D log k) heap of the seed
// implementation. Ties are broken deterministically (larger |value| first,
// then smaller index), which keeps whole simulations bit-reproducible; the
// selected set is exact (identical to a full sort) regardless of sampling.
//
// Chunk-tiered entry points: every overload taking a `chunk_max` span
// composes with the tiered GradientAccumulator (sparsify/accumulator.h).
// chunk_max[c] upper-bounds |v[j]| over chunk c of kAccumulatorChunk floats,
// so the threshold scans skip whole chunks that cannot reach the running
// threshold — one float compare instead of 64 per skipped chunk — and the
// dense fallback visits only dirty chunks, padding with guaranteed zeros in
// index order when the selection must. The selected entries are bitwise
// identical to the dense path in every case: pruning only drops entries a
// positive threshold already excludes, and the zero padding reproduces the
// full sort's (|v| desc, index asc) tie order exactly.
//
// Callers on the round loop should hold a TopKWorkspace and use the
// scratch-buffer overloads: after the first call warms the buffers up, a
// round performs zero heap allocations in selection.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sparsify/sparse_vector.h"

namespace fedsparse::sparsify {

/// Is a persisted threshold hint produced for a depth-`hint_k` selection
/// still worth seeding a depth-`k` scan with? Within a 2× band either way the
/// hinted scan usually survives (the cap leaves 8× headroom and a too-deep
/// hint only over-collects); beyond it the threshold is from a different
/// regime — a client rejoining after a churn gap during which the controller
/// moved k far away — and scanning with it either bails at the cap or keeps
/// fewer than k survivors, costing a wasted pass before the fallback reseeds.
/// Callers treat an incompatible hint as "no hint" (reseed via prefilter).
constexpr bool hint_compatible(std::size_t hint_k, std::size_t k) {
  return hint_k != 0 && hint_k <= 2 * k && k <= 2 * hint_k;
}

/// Compact per-client selection hint: the k-th |value| of the client's last
/// selection and the k that produced it. This is the only part of a
/// TopKWorkspace whose content affects future selections, so fleets persist
/// one ClientHint per client (8 bytes) and share full workspaces per thread
/// slot instead of holding N of them.
struct ClientHint {
  float threshold = 0.0f;
  std::uint32_t k = 0;
};

/// Scratch and result of top_keys_desc. Both buffers keep their capacity,
/// so a caller that holds one allocates nothing after warm-up.
struct TopKeys {
  std::vector<std::uint64_t> out;    // the result: the k largest keys, descending
  std::vector<std::uint32_t> count;  // bucket histogram, then write cursors
};

/// Leaves the min(k, keys.size()) largest of `keys` in t.out, sorted
/// descending (keys.h: strongest entry first). Duplicate keys are kept and
/// come out adjacent. `keys` must not alias t.out. Below ~512 keys this is
/// std::sort; above, one histogram-and-scatter pass over the key range.
void top_keys_desc(std::span<const std::uint64_t> keys, std::size_t k, TopKeys& t);

/// Reusable scratch for the selection. One workspace per caller (not
/// thread-safe); capacity grows to the largest candidate set seen and is
/// then reused, so steady-state rounds allocate nothing.
struct TopKWorkspace {
  /// Surviving candidates under selection, packed as 64-bit keys:
  /// (|value| bits << 32) | ~index. IEEE magnitude order matches unsigned
  /// integer order on the high word and the complemented index makes plain
  /// descending uint64 order exactly the (|v| desc, index asc) total order —
  /// the selection runs on POD integers instead of branchy float compares.
  std::vector<std::uint64_t> keys;
  TopKeys top;  // the selected keys, strongest first

  /// The k-th |value| of a recent selection through this workspace, and the
  /// k that produced it. Persisted per client across rounds (a ClientHint in
  /// top_k_uploads, or a workspace the caller keeps), this seeds the next
  /// call's prefilter threshold directly — skipping the sampling pass of the
  /// dense O(D) scan. The hint is replaced by an at-least-as-deep selection
  /// (k >= hint_k) or after it failed to filter: a *successful* shallower
  /// pass keeps the deeper hint intact, while a failed hint always refreshes
  /// so a stale threshold costs at most one fallback pass before
  /// self-correcting. (A k'-probe commits no hint at all: see
  /// Method::probe_round.) The selection stays exact either way: a hinted
  /// filter that keeps fewer than k entries falls back to the sampled
  /// prefilter, then to the dense path. 0 = no hint yet (first call, or the
  /// last pass went dense).
  float threshold_hint = 0.0f;
  std::size_t hint_k = 0;

  /// Total capacity currently held, in entries — observable by tests that
  /// assert the steady state stops allocating.
  std::size_t capacity() const noexcept {
    return keys.capacity() + top.out.capacity() + top.count.capacity();
  }
};

/// Writes the k largest-|v| entries into `out` as (index, value) pairs in
/// |value|-descending order (ties: smaller index first). k is clamped to
/// v.size(). Zero allocations once `ws` and `out` have warmed capacity.
void top_k_entries(std::span<const float> v, std::size_t k, TopKWorkspace& ws, SparseVector& out);

/// Chunk-aware variant: `chunk_max` is the per-chunk |v| upper-bound summary
/// (GradientAccumulator::chunk_max; empty = no summaries, dense scans). Must
/// cover v exactly: chunk_max.size() == accumulator_chunks(v.size()).
void top_k_entries(std::span<const float> v, std::span<const float> chunk_max, std::size_t k,
                   TopKWorkspace& ws, SparseVector& out);

/// Same selection, indices only.
void top_k_indices(std::span<const float> v, std::size_t k, TopKWorkspace& ws,
                   std::vector<std::int32_t>& out);

/// Computes every client's top-k upload in one call: uploads[s] receives
/// top_k_entries(vecs[s], k). Selections run through per-thread-slot
/// workspaces (one per ThreadPool slot, shared across clients) plus a compact
/// per-client hint store — at N=100k that is a few workspaces + 8 bytes per
/// client instead of N multi-KB workspaces. A selection depends on workspace
/// state only through (threshold_hint, hint_k), which is loaded from
/// hints[ids[s]] before each select and stored back after, so the result is
/// the same as with a dedicated per-client workspace. Keying hints by stable
/// client id (`ids` empty = slot identity) keeps each threshold hint with its
/// own client's accumulator when partial participation or availability
/// churn reorders the slots; `hints` grows as needed and persists across
/// rounds. `chunk_maxes` is slot-aligned with vecs (empty vector = no
/// summaries anywhere; individual empty spans opt single clients out). When
/// a thread pool is registered via tensor::set_parallel_pool and the total
/// work is large enough, the N independent selections run across the pool —
/// each slot has its own output and each pool slot its own workspace, so the
/// result is byte-identical to the serial loop regardless of scheduling.
void top_k_uploads(const std::vector<std::span<const float>>& vecs,
                   const std::vector<std::span<const float>>& chunk_maxes, std::size_t k,
                   std::span<const std::size_t> ids, std::vector<TopKWorkspace>& slot_workspaces,
                   std::vector<ClientHint>& hints, std::vector<SparseVector>& uploads);

/// Allocating conveniences over the scratch API (cold paths and tests).
std::vector<std::int32_t> top_k_indices(std::span<const float> v, std::size_t k);
SparseVector top_k_entries(std::span<const float> v, std::size_t k);

}  // namespace fedsparse::sparsify
