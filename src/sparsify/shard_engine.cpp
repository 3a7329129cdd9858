#include "sparsify/shard_engine.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "sparsify/keys.h"
#include "util/contracts.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace fedsparse::sparsify {

namespace {

// Static track names so per-shard spans need no allocation on the hot path;
// shards are capped at 16 by the simulation's auto policy, so the overflow
// name only appears under hand-rolled configs.
const char* shard_track(std::size_t s) {
  static const char* const kNames[] = {"shard0",  "shard1",  "shard2",  "shard3",
                                       "shard4",  "shard5",  "shard6",  "shard7",
                                       "shard8",  "shard9",  "shard10", "shard11",
                                       "shard12", "shard13", "shard14", "shard15"};
  return s < 16 ? kNames[s] : "shard16+";
}

}  // namespace

ShardPlan make_shard_plan(std::size_t n, std::size_t shards) {
  shards = std::max<std::size_t>(1, std::min(shards, std::max<std::size_t>(1, n)));
  ShardPlan plan;
  plan.bounds.resize(shards + 1);
  for (std::size_t s = 0; s <= shards; ++s) {
    plan.bounds[s] = n * s / shards;
  }
  return plan;
}

void for_each_shard(util::ThreadPool* pool, std::size_t shards,
                    const std::function<void(std::size_t)>& fn) {
  if (util::telemetry_enabled()) {
    // One span per shard task on its own "shardN" track — the Chrome trace
    // then shows the fan-out/imbalance of every sharded pass.
    const auto timed = [&fn](std::size_t s) {
      util::SpanScope span(shard_track(s));
      fn(s);
    };
    if (pool != nullptr && pool->size() > 1 && shards > 1) {
      pool->parallel_for(shards, timed, /*grain=*/1);
    } else {
      for (std::size_t s = 0; s < shards; ++s) timed(s);
    }
    return;
  }
  if (pool != nullptr && pool->size() > 1 && shards > 1) {
    pool->parallel_for(shards, fn, /*grain=*/1);
  } else {
    for (std::size_t s = 0; s < shards; ++s) fn(s);
  }
}

std::uint32_t ShardArena::begin_pass(std::size_t dim) {
  if (stamp.size() < dim) {
    stamp.resize(dim, 0);
    aux.resize(dim, 0);
  }
  if (++token == 0) {  // wrap: every stored stamp value is stale, rezero
    std::fill(stamp.begin(), stamp.end(), 0);
    token = 1;
  }
  return token;
}

namespace {

// Two-pointer descending merge of a and b into dst, stopping after k keys.
void merge2_desc(std::span<const std::uint64_t> a, std::span<const std::uint64_t> b,
                 std::size_t k, std::vector<std::uint64_t>& dst) {
  dst.clear();
  std::size_t i = 0, j = 0;
  while (dst.size() < k && i < a.size() && j < b.size()) {
    dst.push_back(a[i] >= b[j] ? a[i++] : b[j++]);
  }
  while (dst.size() < k && i < a.size()) dst.push_back(a[i++]);
  while (dst.size() < k && j < b.size()) dst.push_back(b[j++]);
}

}  // namespace

void KeyMerger::merge(std::span<const std::span<const std::uint64_t>> runs, std::size_t k,
                      std::vector<std::uint64_t>& out) {
  // Telemetry: how wide (runs) and deep (tree levels) the per-shard merges
  // run — the shard engine's load-balance signal.
  static const util::Histogram h_runs("sparsify.merge_runs", {1.0, 2.0, 4.0, 8.0, 16.0});
  static const util::Histogram h_depth("sparsify.merge_depth", {0.0, 1.0, 2.0, 3.0, 4.0});
  out.clear();
  if (runs.empty() || k == 0) return;
  h_runs.observe(static_cast<double>(runs.size()));
  if (runs.size() == 1) {
    const std::size_t take = std::min(k, runs[0].size());
    out.assign(runs[0].begin(), runs[0].begin() + static_cast<std::ptrdiff_t>(take));
    h_depth.observe(0.0);
    return;
  }
  // Each level merges the surviving runs pairwise into its own buffer set;
  // an odd run passes through to the next level by reference.
  std::vector<std::span<const std::uint64_t>> cur(runs.begin(), runs.end());
  std::vector<std::span<const std::uint64_t>> next;
  std::size_t level = 0;
  while (cur.size() > 1) {
    if (levels_.size() <= level) levels_.resize(level + 1);
    auto& bufs = levels_[level];
    const std::size_t pairs = cur.size() / 2;
    if (bufs.size() < pairs) bufs.resize(pairs);
    next.clear();
    for (std::size_t p = 0; p < pairs; ++p) {
      merge2_desc(cur[2 * p], cur[2 * p + 1], k, bufs[p]);
      next.push_back({bufs[p].data(), bufs[p].size()});
    }
    if (cur.size() % 2 != 0) next.push_back(cur.back());
    cur.swap(next);
    ++level;
  }
  const std::size_t take = std::min(k, cur[0].size());
  out.assign(cur[0].begin(), cur[0].begin() + static_cast<std::ptrdiff_t>(take));
  h_depth.observe(static_cast<double>(level));
}

std::vector<std::uint64_t> merge_topk_sorted_runs(
    const std::vector<std::vector<std::uint64_t>>& runs, std::size_t k) {
  std::vector<std::span<const std::uint64_t>> views;
  views.reserve(runs.size());
  for (const auto& r : runs) views.push_back({r.data(), r.size()});
  KeyMerger merger;
  std::vector<std::uint64_t> out;
  merger.merge({views.data(), views.size()}, k, out);
  return out;
}

namespace {

// Branch-free filters: 1 when the entry at idx passes, 0 otherwise.
struct PassAll {
  std::size_t operator()(std::int32_t) const noexcept { return 1; }
};
struct PassStamped {
  const std::uint32_t* stamp;
  std::uint32_t token;
  std::size_t operator()(std::int32_t idx) const noexcept {
    return stamp[static_cast<std::size_t>(idx)] == token;
  }
};

// Runs body(pass) with the filter as one of the two callables above, so
// each pass's inner loop is compiled once per filter kind.
template <class Body>
void with_pass(const BucketAggregator::Filter& filter, Body&& body) {
  if (filter.stamp == nullptr) {
    body(PassAll{});
  } else {
    body(PassStamped{filter.stamp, filter.token});
  }
}

// One branch-free compaction step: `value` lands at dst[pos] when keep is 1
// and in `sink` when it is 0, and pos advances by keep. A dropped value never
// writes into dst, so dst's region may end where another shard's begins.
// The slot is chosen by mask: a pointer select lets the compiler prove the
// sink store dead and turn the step back into a branch, which mispredicts
// on every other entry of a filter that passes about half of them.
template <class T>
inline void compact_into(T* dst, std::size_t& pos, T& sink, const T& value, std::size_t keep) {
  const auto hit = reinterpret_cast<std::uintptr_t>(dst + pos);
  const auto miss = reinterpret_cast<std::uintptr_t>(&sink);
  const std::uintptr_t mask = 0 - static_cast<std::uintptr_t>(keep);
  *reinterpret_cast<T*>(miss ^ ((hit ^ miss) & mask)) = value;
  pos += keep;
}

// Per-shard cursor blocks lie this many size_t apart beyond their B cells:
// one cache line, so two shards' hot counters never share a line whatever
// the base alignment.
constexpr std::size_t kLinePad = 64 / sizeof(std::size_t);

// kPerClient offsets from out.contributed, and the lists sized to match.
void size_reset_lists(RoundOutcome& out) {
  const std::size_t n = out.contributed.size();
  out.reset_offsets.resize(n + 1);
  out.reset_offsets[0] = 0;
  for (std::size_t i = 0; i < n; ++i) {
    out.reset_offsets[i + 1] = out.reset_offsets[i] + out.contributed[i];
  }
  out.reset_indices.resize(out.reset_offsets[n]);
  out.reset_kind = RoundOutcome::ResetKind::kPerClient;
}

}  // namespace

BucketMap::BucketMap(std::size_t buckets, std::size_t dim)
    : mul_(((std::uint64_t{1} << 32) * buckets) / dim), buckets_(buckets), dim_(dim) {
  FEDSPARSE_CONTRACT(buckets >= 1 && dim >= 1 && dim <= (std::size_t{1} << 31),
                     "bucket map needs buckets >= 1 and dim in [1, 2^31]");
}

std::size_t BucketMap::begin(std::size_t b) const noexcept {
  // The least idx with idx·mul ≥ b·2^32.
  const std::uint64_t first = ((std::uint64_t{b} << 32) + mul_ - 1) / mul_;
  return static_cast<std::size_t>(std::min<std::uint64_t>(first, dim_));
}

void BucketAggregator::scatter(const std::vector<SparseVector>& uploads,
                               std::span<const double> weights, std::size_t dim,
                               std::size_t shards, util::ThreadPool* pool,
                               const Filter& filter, RoundOutcome* resets) {
  const std::size_t n = uploads.size();
  const ShardPlan plan = make_shard_plan(n, shards);
  const std::size_t S = plan.shards();
  // One bucket per shard keeps both parallel phases at the same width; the
  // map is monotone in the index, so buckets are contiguous disjoint index
  // ranges (the bucket walks then never share an agg entry).
  const std::size_t B = S;
  map_ = BucketMap(B, dim);
  const std::size_t stride = B + kLinePad;
  cursors_.assign(S * stride, 0);
  if (resets != nullptr) resets->contributed.resize(n);

  with_pass(filter, [&](const auto pass) {
    // Count pass: per-(shard, bucket) entry counts into the shard's own
    // cursor block, per-client passing counts. The shard bodies copy the map
    // and the filter: the stores below could alias them, and copies keep
    // them in registers.
    for_each_shard(pool, S, [&](std::size_t s) {
      const BucketMap map = map_;
      const auto keep_of = pass;
      std::size_t* counts = cursors_.data() + s * stride;
      for (std::size_t i = plan.begin(s); i < plan.end(s); ++i) {
        std::size_t passed = 0;
        for (const auto& e : uploads[i]) {
          const std::size_t keep = keep_of(e.index);
          counts[map(e.index)] += keep;
          passed += keep;
        }
        if (resets != nullptr) resets->contributed[i] = passed;
      }
    });

    // Exclusive prefix in (bucket, shard) order — bucket-major layout with
    // shards of the same bucket adjacent in ascending shard (= ascending
    // client) order. Serial over S·B cells.
    bucket_bounds_.resize(B + 1);
    std::size_t pos = 0;
    for (std::size_t b = 0; b < B; ++b) {
      bucket_bounds_[b] = pos;
      for (std::size_t s = 0; s < S; ++s) {
        std::size_t& cell = cursors_[s * stride + b];
        const std::size_t c = cell;
        cell = pos;
        pos += c;
      }
    }
    bucket_bounds_[B] = pos;
    entries_.resize(pos);
    if (resets != nullptr) size_reset_lists(*resets);

    // Fill pass. Each shard walks its clients in ascending slot order and
    // bumps its own cursors, so inside a bucket the entry order is (client
    // asc, upload order) — the reference aggregation sequence — and each
    // reset list keeps its client's upload order. Without resets every index
    // goes to the sink. Each client's segment end per bucket is kept for
    // accumulate_prefixes: shards of one bucket are adjacent, so client i's
    // segment in bucket b starts where client i−1's ended.
    client_ends_.resize(n * B);
    const std::size_t listed = resets != nullptr ? 1 : 0;
    for_each_shard(pool, S, [&](std::size_t s) {
      const BucketMap map = map_;
      const auto keep_of = pass;
      std::size_t* cursors = cursors_.data() + s * stride;
      Entry entry_sink{};
      std::int32_t index_sink = 0;
      for (std::size_t i = plan.begin(s); i < plan.end(s); ++i) {
        const float w = static_cast<float>(weights[i]);
        std::int32_t* list = listed != 0 ? resets->reset_indices.data() : &index_sink;
        std::size_t r = listed != 0 ? resets->reset_offsets[i] : 0;
        for (const auto& e : uploads[i]) {
          const std::size_t keep = keep_of(e.index);
          compact_into(entries_.data(), cursors[map(e.index)], entry_sink,
                       Entry{e.index, w, e.value}, keep);
          compact_into(list, r, index_sink, e.index, keep & listed);
        }
        std::copy(cursors, cursors + B,
                  client_ends_.begin() + static_cast<std::ptrdiff_t>(i * B));
      }
    });
  });
}

void BucketAggregator::accumulate_prefixes(std::size_t b, std::span<const std::uint64_t> cuts,
                                           const Filter& member, float* agg) const {
  const std::size_t B = buckets();
  std::size_t p = bucket_bounds_[b];
  for (std::size_t i = 0; i < cuts.size(); ++i) {
    const std::size_t end = client_ends_[i * B + b];
    const std::uint64_t cut = cuts[i];
    for (; p < end; ++p) {
      const Entry& e = entries_[p];
      if (!member.pass(e.index) || make_key(e.v, static_cast<std::size_t>(e.index)) < cut) {
        continue;
      }
      agg[static_cast<std::size_t>(e.index)] += e.w * e.v;
    }
  }
}

void BucketAggregator::run(const std::vector<SparseVector>& uploads,
                           std::span<const double> weights, std::size_t dim,
                           std::size_t shards, util::ThreadPool* pool, const Filter& filter,
                           float* agg, std::uint32_t* touch_stamp, std::uint32_t touch_token,
                           RoundOutcome* resets) {
  scatter(uploads, weights, dim, shards, pool, filter, resets);
  const std::size_t B = buckets();

  // Per-bucket reduce, branch-free: an index's first entry adds to +0.0f
  // (its stale agg value masked off), the rest to the running sum — the
  // same additions as zeroing agg at first touch. Then the bucket's index
  // range is scanned for the touch token, which lists its aggregated
  // indices in ascending order.
  touched_.resize(B);
  for_each_shard(pool, B, [&](std::size_t b) {
    const std::uint32_t token = touch_token;
    for (std::size_t p = bucket_bounds_[b]; p < bucket_bounds_[b + 1]; ++p) {
      const Entry& e = entries_[p];
      const auto idx = static_cast<std::size_t>(e.index);
      const std::uint32_t seen = 0u - static_cast<std::uint32_t>(touch_stamp[idx] == token);
      const float sum = std::bit_cast<float>(std::bit_cast<std::uint32_t>(agg[idx]) & seen);
      agg[idx] = sum + e.w * e.v;
      touch_stamp[idx] = token;
    }
    const std::size_t lo = map_.begin(b);
    const std::size_t hi = map_.begin(b + 1);
    Touched& t = touched_[b];
    // A stamped index's slot is below the count so far, and the count never
    // exceeds the bucket's entries or its range.
    const std::size_t room = std::min(hi - lo, bucket_bounds_[b + 1] - bucket_bounds_[b] + 1);
    if (t.indices.size() < room) t.indices.resize(room);
    std::int32_t* out = t.indices.data();
    std::size_t count = 0;
    for (std::size_t idx = lo; idx < hi; ++idx) {
      out[count] = static_cast<std::int32_t>(idx);
      count += touch_stamp[idx] == token;
    }
    t.size = count;
  });
}

void BucketAggregator::run_robust(const std::vector<SparseVector>& uploads,
                                  std::span<const double> weights, std::size_t dim,
                                  std::size_t shards, util::ThreadPool* pool,
                                  const Filter& filter, const RobustConfig& cfg, float* agg,
                                  std::uint32_t* touch_stamp, std::uint32_t touch_token,
                                  RobustStats& stats, RoundOutcome* resets) {
  scatter(uploads, weights, dim, shards, pool, filter, resets);
  const std::size_t B = buckets();
  stats = RobustStats{};

  // Round-global thin-support clamp: clip_mult × the median |value| over ALL
  // transmitted (filter-passing) entries. The median VALUE of a multiset is
  // partition-invariant, so the bound is identical at every shard count.
  double clip_bound = 0.0;
  if (cfg.clip_mult > 0.0 && !entries_.empty()) {
    abs_scratch_.resize(entries_.size());
    for (std::size_t p = 0; p < entries_.size(); ++p) {
      abs_scratch_[p] = std::abs(entries_[p].v);
    }
    auto mid = abs_scratch_.begin() + static_cast<std::ptrdiff_t>(abs_scratch_.size() / 2);
    std::nth_element(abs_scratch_.begin(), mid, abs_scratch_.end());
    clip_bound = cfg.clip_mult * static_cast<double>(*mid);
  }

  // Phase 4 (robust): regroup each bucket by index — stable, so a group
  // keeps the scatter's client-major order — then reduce every group with
  // the robust statistic. All group arithmetic runs in double in a
  // partition-invariant order, so agg is byte-identical across shard counts.
  // Groups come out in ascending index order, and so does touched(b). The
  // per-group counters are local and stored once per bucket: the buckets'
  // Touched and RobustStats cells share cache lines.
  touched_.resize(B);
  bucket_stats_.assign(B, RobustStats{});
  for_each_shard(pool, B, [&](std::size_t b) {
    const std::size_t begin = bucket_bounds_[b];
    const std::size_t end = bucket_bounds_[b + 1];
    Touched& touched = touched_[b];
    RobustStats bs;
    if (touched.indices.size() < end - begin) touched.indices.resize(end - begin);
    std::int32_t* listed = touched.indices.data();
    std::size_t count = 0;
    std::stable_sort(entries_.begin() + static_cast<std::ptrdiff_t>(begin),
                     entries_.begin() + static_cast<std::ptrdiff_t>(end),
                     [](const Entry& a, const Entry& c) { return a.index < c.index; });
    std::size_t g0 = begin;
    while (g0 < end) {
      std::size_t g1 = g0 + 1;
      while (g1 < end && entries_[g1].index == entries_[g0].index) ++g1;
      const std::size_t m = g1 - g0;
      const auto idx = static_cast<std::size_t>(entries_[g0].index);
      // Total transmitted weight of the group, in client order: the robust
      // statistics rescale by it so an attack-free coordinate keeps the
      // plain aggregate's magnitude.
      double total_w = 0.0;
      for (std::size_t p = g0; p < g1; ++p) total_w += static_cast<double>(entries_[p].w);
      double value = 0.0;
      if (m < cfg.min_support) {
        // Thin support: clipped weighted sum in client order.
        ++bs.coords_thin;
        for (std::size_t p = g0; p < g1; ++p) {
          double v = static_cast<double>(entries_[p].v);
          if (clip_bound > 0.0) v = std::clamp(v, -clip_bound, clip_bound);
          value += static_cast<double>(entries_[p].w) * v;
        }
      } else if (cfg.kind == RobustKind::kMedian) {
        ++bs.coords_robust;
        std::stable_sort(entries_.begin() + static_cast<std::ptrdiff_t>(g0),
                         entries_.begin() + static_cast<std::ptrdiff_t>(g1),
                         [](const Entry& a, const Entry& c) { return a.v < c.v; });
        const std::size_t mid = g0 + m / 2;
        const double med = (m % 2 != 0)
                               ? static_cast<double>(entries_[mid].v)
                               : 0.5 * (static_cast<double>(entries_[mid - 1].v) +
                                        static_cast<double>(entries_[mid].v));
        value = total_w * med;
      } else {
        std::size_t t = static_cast<std::size_t>(cfg.trim_fraction * static_cast<double>(m));
        if (2 * t >= m) t = (m - 1) / 2;
        if (t == 0) {
          // Nothing to trim at this support: plain weighted sum.
          for (std::size_t p = g0; p < g1; ++p) {
            value += static_cast<double>(entries_[p].w) * static_cast<double>(entries_[p].v);
          }
        } else {
          ++bs.coords_robust;
          bs.values_trimmed += 2 * t;
          std::stable_sort(entries_.begin() + static_cast<std::ptrdiff_t>(g0),
                           entries_.begin() + static_cast<std::ptrdiff_t>(g1),
                           [](const Entry& a, const Entry& c) { return a.v < c.v; });
          double num = 0.0;
          double den = 0.0;
          for (std::size_t p = g0 + t; p < g1 - t; ++p) {
            num += static_cast<double>(entries_[p].w) * static_cast<double>(entries_[p].v);
            den += static_cast<double>(entries_[p].w);
          }
          if (den > 0.0) {
            value = total_w * (num / den);
          } else {
            for (std::size_t p = g0; p < g1; ++p) {
              value +=
                  static_cast<double>(entries_[p].w) * static_cast<double>(entries_[p].v);
            }
          }
        }
      }
      touch_stamp[idx] = touch_token;
      agg[idx] = static_cast<float>(value);
      listed[count++] = entries_[g0].index;
      g0 = g1;
    }
    touched.size = count;
    bucket_stats_[b] = bs;
  });
  for (const RobustStats& bs : bucket_stats_) {
    stats.coords_robust += bs.coords_robust;
    stats.coords_thin += bs.coords_thin;
    stats.values_trimmed += bs.values_trimmed;
  }
}

void build_reset_lists(const std::vector<SparseVector>& uploads, std::size_t shards,
                       util::ThreadPool* pool, const BucketAggregator::Filter& filter,
                       RoundOutcome& out) {
  const std::size_t n = uploads.size();
  const ShardPlan plan = make_shard_plan(n, shards);
  out.contributed.resize(n);
  with_pass(filter, [&](const auto pass) {
    for_each_shard(pool, plan.shards(), [&](std::size_t s) {
      for (std::size_t i = plan.begin(s); i < plan.end(s); ++i) {
        std::size_t passed = 0;
        for (const auto& e : uploads[i]) passed += pass(e.index);
        out.contributed[i] = passed;
      }
    });
    size_reset_lists(out);
    for_each_shard(pool, plan.shards(), [&](std::size_t s) {
      const auto keep_of = pass;
      std::int32_t sink = 0;
      for (std::size_t i = plan.begin(s); i < plan.end(s); ++i) {
        std::size_t r = out.reset_offsets[i];
        for (const auto& e : uploads[i]) {
          compact_into(out.reset_indices.data(), r, sink, e.index, keep_of(e.index));
        }
      }
    });
  });
}

}  // namespace fedsparse::sparsify
