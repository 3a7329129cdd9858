// Building blocks of the sharded server round.
//
// A sharded round partitions the participant slots into contiguous
// per-thread fleets ("shards"). Each shard works in its own arena — stamps,
// candidate key runs, scatter cursors — so the parallel phases never share a
// mutable cache line, and every cross-shard combine step is a fixed-order
// serial reduction (tree merge of sorted key runs, prefix sums of counts).
// That fixed order is what makes the engine deterministic: the outcome is
// bit-identical at every shard count, because each combining operator either
// is exactly the reference loop re-ordered over a partition it is invariant
// to (counting, membership) or reproduces the reference's float addition
// sequence verbatim (the bucket-major aggregation below).
//
// Two pieces live here, shared by the top-k methods' sharded paths:
//
//  * KeyMerger / merge_topk_sorted_runs — k-bounded multi-way merge of
//    descending-sorted 64-bit key runs (keys.h) via pairwise tree reduction.
//    Because the key order is total, merging per-shard top-k runs yields
//    exactly the global top-k of the union: no re-selection.
//
//  * BucketAggregator — the weighted union-aggregate b_j = Σ w_i · a_ij over
//    per-client sparse uploads, sharded along the INDEX axis: entries
//    scatter into disjoint contiguous index buckets (BucketMap), preserving
//    client-major order inside each bucket, then every bucket reduces
//    independently. Within one index the float additions run in exactly the
//    reference's client order, so the sums are bit-identical — no atomics,
//    no reassociation. The scatter's fill pass also emits the client-major
//    reset lists and contributed counts, so one count pass and one fill pass
//    over the uploads serve both.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "sparsify/method.h"
#include "sparsify/robust.h"
#include "sparsify/sparse_vector.h"
#include "sparsify/topk.h"

namespace fedsparse::util {
class ThreadPool;
}

namespace fedsparse::sparsify {

/// Contiguous balanced partition of n slots into at most `shards` shards
/// (never more than n; sizes differ by at most one). bounds has shards()+1
/// entries; shard s owns slots [begin(s), end(s)).
struct ShardPlan {
  std::vector<std::size_t> bounds;

  std::size_t shards() const noexcept { return bounds.empty() ? 0 : bounds.size() - 1; }
  std::size_t begin(std::size_t s) const noexcept { return bounds[s]; }
  std::size_t end(std::size_t s) const noexcept { return bounds[s + 1]; }
};

ShardPlan make_shard_plan(std::size_t n, std::size_t shards);

/// BucketAggregator's index-axis sharding: [0, dim) split into `buckets`
/// contiguous ascending ranges by a multiply-shift, so the per-entry map
/// costs no divide. With mul = ⌊2^32·B/dim⌋, bucket(idx) = ⌊idx·mul/2^32⌋
/// ≤ ⌊idx·B/dim⌋ < B, is monotone, and steps by at most 1 while dim ≥ B, so
/// every bucket is non-empty then (bucket(dim−1) = B−1 for dim ≤ 2^31).
/// begin(b) is the first index of bucket b (begin(B) = dim).
class BucketMap {
 public:
  BucketMap() = default;
  /// dim in [1, 2^31] (int32 indices), buckets ≥ 1.
  BucketMap(std::size_t buckets, std::size_t dim);

  std::size_t operator()(std::int32_t idx) const noexcept {
    return static_cast<std::size_t>((static_cast<std::uint64_t>(idx) * mul_) >> 32);
  }
  std::size_t buckets() const noexcept { return buckets_; }
  std::size_t begin(std::size_t b) const noexcept;

 private:
  std::uint64_t mul_ = 0;
  std::size_t buckets_ = 0;
  std::size_t dim_ = 0;
};

/// Runs fn(s) for every shard in [0, shards) — across the pool (grain 1)
/// when one is available, serially otherwise. Shard bodies must only write
/// shard-owned state; the serial fallback is then trivially equivalent.
void for_each_shard(util::ThreadPool* pool, std::size_t shards,
                    const std::function<void(std::size_t)>& fn);

/// Per-shard scratch arena. `stamp` + `token` implement O(1)-reset
/// membership over [0, dim) (an index is marked iff stamp[i] == token);
/// `aux` rides along for per-index payloads (prefix depth, slot). All
/// buffers keep their capacity across rounds.
struct ShardArena {
  std::vector<std::uint32_t> stamp;
  std::vector<std::uint32_t> aux;
  std::uint32_t token = 0;
  std::vector<std::int32_t> touched;  // stamped indices, first-touch order
  std::vector<std::uint64_t> keys;    // per-shard candidate keys, unordered
  TopKeys top;                        // top.out: the shard's sorted candidate run

  /// Grows the arenas to `dim` and returns a fresh token (wrap-safe: a wrap
  /// rezeroes the stamp array, once per 2^32 uses).
  std::uint32_t begin_pass(std::size_t dim);
};

/// k-bounded merge of descending-sorted key runs: out receives the first
/// min(k, total) keys of the merged descending sequence. Pairwise fixed-order
/// tree reduction — the tree shape is a function of runs.size() alone, and
/// since the key order is total (equal keys are bit-identical), the result is
/// independent of the tree shape and equals what one global sort would
/// produce. Duplicated keys across runs are kept (callers dedup by index
/// where needed).
class KeyMerger {
 public:
  void merge(std::span<const std::span<const std::uint64_t>> runs, std::size_t k,
             std::vector<std::uint64_t>& out);

 private:
  // One buffer set per reduction level (≤ log2(runs) levels), so a run
  // carried across levels can never alias a later level's output.
  std::vector<std::vector<std::vector<std::uint64_t>>> levels_;
};

/// Allocating convenience for tests and cold paths.
std::vector<std::uint64_t> merge_topk_sorted_runs(
    const std::vector<std::vector<std::uint64_t>>& runs, std::size_t k);

/// Sharded weighted union-aggregation of per-client sparse uploads into a
/// caller-owned dense arena. See the file comment for the scheme. Exactness:
/// for each index j, agg[j] accumulates w_i · v_ij over the clients in
/// ascending slot order — the reference methods' client-major loop — because
/// the scatter writes each bucket's entries in (shard asc, client asc,
/// upload order) and the bucket walk adds them left to right.
///
/// Two passes over the uploads, both branch-free in the entry filter:
///  * count — per-(shard, bucket) entry counts and per-client passing counts
///    (the contributed counts). Each shard counts into its own cache lines;
///    a serial prefix then lays the buffer out bucket-major, the shards of
///    one bucket adjacent in shard order.
///  * fill — every entry is written, a passing one at its bucket cursor and
///    at its client's reset-list cursor, a failing one into a sink local to
///    the shard, so no write ever lands in another shard's region.
class BucketAggregator {
 public:
  /// Optional entry filter: accept only indices with stamp[idx] == token
  /// (FAB aggregates only the union-of-prefixes set J). stamp == nullptr
  /// accepts everything.
  struct Filter {
    const std::uint32_t* stamp = nullptr;
    std::uint32_t token = 0;

    bool pass(std::int32_t idx) const noexcept {
      return stamp == nullptr || stamp[static_cast<std::size_t>(idx)] == token;
    }
  };

  /// Aggregates `uploads[s]` (s < n, weight weights[s]) into agg (size dim,
  /// only touched entries written). touch_stamp/touch_token provide the
  /// first-touch dedup (caller-owned so methods can reuse their stamp
  /// arena); after the call, touched(b) lists bucket b's aggregated indices
  /// in ascending index order and stamp[idx] == touch_token for exactly
  /// those indices. The filter is read before any stamp is written, so it
  /// may live on the same stamp array under an older token. When `resets`
  /// is given, its contributed counts and client-major kPerClient reset
  /// lists (each client's passing indices in upload order) are filled too.
  void run(const std::vector<SparseVector>& uploads, std::span<const double> weights,
           std::size_t dim, std::size_t shards, util::ThreadPool* pool, const Filter& filter,
           float* agg, std::uint32_t* touch_stamp, std::uint32_t touch_token,
           RoundOutcome* resets = nullptr);

  /// Robust-reduce mode: same scatter (and resets) as run(), but each
  /// bucket's entries are regrouped by index — materializing every
  /// coordinate's per-client contributions in client-major order — and
  /// reduced with the robust statistic from `cfg` (robust.h) instead of the
  /// weighted sum. touched()/stamps end up exactly as run() leaves them, so
  /// downstream emit stages work unchanged. Because each index group's
  /// content and order are independent of the bucket partition, the result
  /// is byte-identical across shard counts.
  void run_robust(const std::vector<SparseVector>& uploads, std::span<const double> weights,
                  std::size_t dim, std::size_t shards, util::ThreadPool* pool,
                  const Filter& filter, const RobustConfig& cfg, float* agg,
                  std::uint32_t* touch_stamp, std::uint32_t touch_token, RobustStats& stats,
                  RoundOutcome* resets = nullptr);

  /// Derived-probe re-walk of bucket b of the last run(): adds w·v into agg
  /// for every scattered entry whose index passes `member` and whose key
  /// (keys.h) is at least its client's cut, cuts[s] for slot s. A client's
  /// upload is strongest-first, so a cut at the key of its (k′−1)-th entry
  /// keeps exactly its top-k′ prefix. The walk keeps the scatter's
  /// client-major order and skips whole entries, so each kept index sums
  /// the same products in the same order as a run() over the k′-prefixes:
  /// bitwise-equal when the caller zeroed agg at the kept indices first.
  /// Buckets own disjoint index ranges, so buckets may run in parallel.
  void accumulate_prefixes(std::size_t b, std::span<const std::uint64_t> cuts,
                           const Filter& member, float* agg) const;

  std::size_t buckets() const noexcept { return map_.buckets(); }
  /// The last run()'s index-to-bucket map.
  const BucketMap& bucket_map() const noexcept { return map_; }
  std::span<const std::int32_t> touched(std::size_t b) const noexcept {
    return {touched_[b].indices.data(), touched_[b].size};
  }

 private:
  struct Entry {
    std::int32_t index;
    float w;
    float v;
  };
  // Bucket b's aggregated indices: the first `size` of `indices`, which only
  // grows, so no round pays to re-zero it.
  struct Touched {
    std::vector<std::int32_t> indices;
    std::size_t size = 0;
  };

  /// The count and fill passes; sets map_ and bucket_bounds_ (bucket b
  /// spans [bucket_bounds_[b], bucket_bounds_[b + 1]) of entries_).
  void scatter(const std::vector<SparseVector>& uploads, std::span<const double> weights,
               std::size_t dim, std::size_t shards, util::ThreadPool* pool,
               const Filter& filter, RoundOutcome* resets);

  BucketMap map_;
  std::vector<Entry> entries_;                 // bucket-major scatter buffer
  std::vector<std::size_t> cursors_;           // shard s's B cursors at s × stride
  std::vector<std::size_t> bucket_bounds_;     // B + 1 entry offsets
  std::vector<std::size_t> client_ends_;       // clients × buckets segment ends
  std::vector<Touched> touched_;
  std::vector<float> abs_scratch_;             // robust mode: round |v| median
  std::vector<RobustStats> bucket_stats_;      // robust mode: per-bucket partials
};

/// Client-major kPerClient reset lists + contributed counts of the uploads'
/// entries that pass `filter`, for a method whose filter exists only after
/// aggregation (FUB's selected set). A count pass and a fill pass per shard
/// on the same branch-free compaction as the aggregator's fill; each list
/// keeps its client's upload order.
void build_reset_lists(const std::vector<SparseVector>& uploads, std::size_t shards,
                       util::ThreadPool* pool, const BucketAggregator::Filter& filter,
                       RoundOutcome& out);

}  // namespace fedsparse::sparsify
