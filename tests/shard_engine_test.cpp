// Property tests for the sharded round engine's building blocks: the
// k-bounded keyed tree merge must reproduce the global top-k of the union of
// per-shard top-k runs (including ties and index order), the shard plan
// must stay a balanced contiguous partition, the
// bucket map must cut [0, dim) into contiguous ascending ranges, and the
// aggregator's fused count/fill passes must reproduce the serial
// client-major aggregation and the two-pass reset build bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sparsify/fab_topk.h"
#include "sparsify/fub_topk.h"
#include "sparsify/keys.h"
#include "sparsify/shard_engine.h"
#include "sparsify/topk.h"
#include "sparsify/unidirectional_topk.h"
#include "tensor/matrix.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace fedsparse::sparsify {
namespace {

std::vector<float> random_values(std::size_t n, util::Rng& rng, double zero_prob = 0.3) {
  std::vector<float> v(n);
  for (auto& x : v) {
    x = rng.bernoulli(zero_prob) ? 0.0f : static_cast<float>(rng.normal(0.0, 1.0));
  }
  return v;
}

// Global reference: all keys of v, sorted by the total (|v| desc, idx asc)
// order, truncated to k.
std::vector<std::uint64_t> global_topk_keys(const std::vector<float>& v, std::size_t k) {
  std::vector<std::uint64_t> keys;
  keys.reserve(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) keys.push_back(make_key(v[i], i));
  std::sort(keys.begin(), keys.end(), std::greater<std::uint64_t>());
  if (keys.size() > k) keys.resize(k);
  return keys;
}

// ---------------- keyed tree merge ------------------------------------------

TEST(KeyMergeTest, MergedShardTopKEqualsGlobalTopK) {
  // Any global-top-k element is inside its own shard's top-k, so merging the
  // per-shard top-k runs and keeping k must equal the global top-k — for any
  // partition, any shard count, any k.
  util::Rng rng(42);
  for (const std::size_t n : {1u, 7u, 64u, 1000u}) {
    for (const std::size_t shards : {1u, 2u, 3u, 8u, 16u}) {
      for (const std::size_t k : {1u, 5u, 32u, 2000u}) {
        const auto v = random_values(n, rng);
        const ShardPlan plan = make_shard_plan(n, shards);
        std::vector<std::vector<std::uint64_t>> runs(plan.shards());
        for (std::size_t s = 0; s < plan.shards(); ++s) {
          for (std::size_t i = plan.begin(s); i < plan.end(s); ++i) {
            runs[s].push_back(make_key(v[i], i));
          }
          std::sort(runs[s].begin(), runs[s].end(), std::greater<std::uint64_t>());
          if (runs[s].size() > k) runs[s].resize(k);
        }
        const auto merged = merge_topk_sorted_runs(runs, k);
        const auto ref = global_topk_keys(v, k);
        ASSERT_EQ(merged, ref) << "n=" << n << " shards=" << shards << " k=" << k;
      }
    }
  }
}

TEST(KeyMergeTest, TiedMagnitudesMergeInIndexOrder) {
  // Equal |value| across indices must come out ascending by index — the key
  // encoding's complemented low word — regardless of which shard holds which.
  std::vector<float> v(40, 0.0f);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = (i % 2 == 0) ? 0.5f : -0.5f;
  std::vector<std::vector<std::uint64_t>> runs(4);
  for (std::size_t i = 0; i < v.size(); ++i) runs[i % 4].push_back(make_key(v[i], i));
  for (auto& r : runs) std::sort(r.begin(), r.end(), std::greater<std::uint64_t>());
  const auto merged = merge_topk_sorted_runs(runs, 10);
  ASSERT_EQ(merged.size(), 10u);
  for (std::size_t p = 0; p < merged.size(); ++p) {
    EXPECT_EQ(key_index(merged[p]), p) << "tie order broken at position " << p;
  }
}

TEST(KeyMergeTest, EmptyAndAllZeroRunsAreHarmless) {
  const auto none = merge_topk_sorted_runs({}, 5);
  EXPECT_TRUE(none.empty());
  const auto empties = merge_topk_sorted_runs({{}, {}, {}}, 5);
  EXPECT_TRUE(empties.empty());
  // One real run among empties — any k cap, including k > total.
  std::vector<std::uint64_t> run = {make_key(2.0f, 3), make_key(1.0f, 1)};
  const auto merged = merge_topk_sorted_runs({{}, run, {}}, 99);
  EXPECT_EQ(merged, run);
}

TEST(KeyMergeTest, MergerReuseAcrossDifferentRunCounts) {
  // The KeyMerger's per-level buffers are reused across calls with varying
  // run counts (odd counts carry a run across levels — the aliasing trap).
  util::Rng rng(7);
  KeyMerger merger;
  for (const std::size_t shards : {5u, 2u, 9u, 16u, 3u, 1u}) {
    const std::size_t n = 200;
    const auto v = random_values(n, rng);
    const ShardPlan plan = make_shard_plan(n, shards);
    std::vector<std::vector<std::uint64_t>> owned(plan.shards());
    std::vector<std::span<const std::uint64_t>> runs;
    for (std::size_t s = 0; s < plan.shards(); ++s) {
      for (std::size_t i = plan.begin(s); i < plan.end(s); ++i) {
        owned[s].push_back(make_key(v[i], i));
      }
      std::sort(owned[s].begin(), owned[s].end(), std::greater<std::uint64_t>());
      runs.push_back({owned[s].data(), owned[s].size()});
    }
    std::vector<std::uint64_t> out;
    merger.merge({runs.data(), runs.size()}, 25, out);
    EXPECT_EQ(out, global_topk_keys(v, 25)) << "shards=" << shards;
  }
}

// ---------------- shard plan -------------------------------------------------

TEST(ShardPlanTest, BalancedContiguousPartition) {
  for (const std::size_t n : {0u, 1u, 2u, 7u, 100u, 1001u}) {
    for (const std::size_t shards : {1u, 2u, 3u, 8u, 200u}) {
      const ShardPlan plan = make_shard_plan(n, shards);
      ASSERT_GE(plan.shards(), 1u);
      EXPECT_LE(plan.shards(), std::max<std::size_t>(1, std::min(shards, std::max<std::size_t>(1, n))));
      EXPECT_EQ(plan.begin(0), 0u);
      EXPECT_EQ(plan.end(plan.shards() - 1), n);
      std::size_t lo = n, hi = 0;
      for (std::size_t s = 0; s < plan.shards(); ++s) {
        ASSERT_LE(plan.begin(s), plan.end(s));
        const std::size_t size = plan.end(s) - plan.begin(s);
        lo = std::min(lo, size);
        hi = std::max(hi, size);
        if (s + 1 < plan.shards()) ASSERT_EQ(plan.end(s), plan.begin(s + 1));
      }
      if (n > 0) EXPECT_LE(hi - lo, 1u) << "n=" << n << " shards=" << shards;
    }
  }
}

// ---------------- bucket map -------------------------------------------------

// Monotone, contiguous (steps of at most one bucket while dim ≥ B), always
// below B, begin(b) the first index of bucket b, and every bucket non-empty
// when dim ≥ B. The two largest dims are checked at every bucket edge and on
// samples; at 2^31 − 1 a multiplier rounded up would map the last indices
// to bucket B.
TEST(ShardBucketMapTest, MonotoneContiguousAndCovering) {
  util::Rng rng(17);
  for (const std::size_t B : {1u, 2u, 3u, 16u}) {
    for (const std::size_t dim :
         {std::size_t{1}, B - 1, std::size_t{2410}, std::size_t{54270}, (std::size_t{1} << 31) - 1,
          std::size_t{1} << 31}) {
      if (dim == 0) continue;
      const std::string label = "B=" + std::to_string(B) + " dim=" + std::to_string(dim);
      const BucketMap map(B, dim);
      const auto at = [&](std::size_t idx) { return map(static_cast<std::int32_t>(idx)); };
      ASSERT_EQ(map.buckets(), B) << label;
      EXPECT_EQ(map.begin(0), 0u) << label;
      EXPECT_EQ(map.begin(B), dim) << label;
      for (std::size_t b = 0; b < B; ++b) {
        const std::size_t lo = map.begin(b), hi = map.begin(b + 1);
        ASSERT_LE(lo, hi) << label << " b=" << b;
        if (dim >= B) ASSERT_LT(lo, hi) << label << ": bucket " << b << " is empty";
        if (lo == hi) continue;
        EXPECT_EQ(at(lo), b) << label;
        EXPECT_EQ(at(hi - 1), b) << label;
        if (lo > 0) EXPECT_LT(at(lo - 1), b) << label;
      }
      if (dim <= 54270) {
        for (std::size_t idx = 0; idx < dim; ++idx) {
          const std::size_t b = at(idx);
          ASSERT_LT(b, B) << label << " idx=" << idx;
          ASSERT_TRUE(map.begin(b) <= idx && idx < map.begin(b + 1)) << label << " idx=" << idx;
          if (idx > 0) {
            const std::size_t prev = at(idx - 1);
            ASSERT_LE(prev, b) << label << " idx=" << idx;
            if (dim >= B) ASSERT_LE(b - prev, 1u) << label << " idx=" << idx;
          }
        }
      } else {
        std::vector<std::size_t> samples{0, 1, dim - 2, dim - 1};
        for (int t = 0; t < 20000; ++t) {
          samples.push_back(static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(dim) - 1)));
        }
        std::sort(samples.begin(), samples.end());
        for (std::size_t p = 0; p < samples.size(); ++p) {
          const std::size_t b = at(samples[p]);
          ASSERT_LT(b, B) << label;
          ASSERT_TRUE(map.begin(b) <= samples[p] && samples[p] < map.begin(b + 1)) << label;
          if (p > 0) ASSERT_LE(at(samples[p - 1]), b) << label;
        }
      }
    }
  }
}

// ---------------- fused aggregation + resets vs oracles ---------------------

// The two-pass reset build the fused fill replaced: each client's passing
// count, a prefix, then each client's passing indices in upload order.
struct ResetLists {
  std::vector<std::size_t> contributed;
  std::vector<std::size_t> offsets;
  std::vector<std::int32_t> indices;
};

ResetLists reference_resets(const std::vector<SparseVector>& uploads,
                            const BucketAggregator::Filter& filter) {
  ResetLists r;
  for (const auto& up : uploads) {
    std::size_t cnt = 0;
    for (const auto& e : up) cnt += filter.pass(e.index) ? 1 : 0;
    r.contributed.push_back(cnt);
  }
  r.offsets.assign(uploads.size() + 1, 0);
  for (std::size_t i = 0; i < uploads.size(); ++i) {
    r.offsets[i + 1] = r.offsets[i] + r.contributed[i];
  }
  r.indices.resize(r.offsets.back());
  for (std::size_t i = 0; i < uploads.size(); ++i) {
    std::size_t pos = r.offsets[i];
    for (const auto& e : uploads[i]) {
      if (filter.pass(e.index)) r.indices[pos++] = e.index;
    }
  }
  return r;
}

// The serial client-major aggregation: agg[j] starts at 0 at j's first
// passing entry and adds w·v in client order; touched lists the aggregated
// indices in ascending order.
struct Aggregate {
  std::vector<float> agg;
  std::vector<std::int32_t> touched;
};

Aggregate reference_aggregate(const std::vector<SparseVector>& uploads,
                              const std::vector<double>& weights, std::size_t dim,
                              const BucketAggregator::Filter& filter) {
  Aggregate a;
  a.agg.assign(dim, 0.0f);
  std::vector<bool> seen(dim, false);
  for (std::size_t i = 0; i < uploads.size(); ++i) {
    const float w = static_cast<float>(weights[i]);
    for (const auto& e : uploads[i]) {
      if (!filter.pass(e.index)) continue;
      const auto idx = static_cast<std::size_t>(e.index);
      if (!seen[idx]) {
        seen[idx] = true;
        a.touched.push_back(e.index);
      }
      a.agg[idx] += w * e.value;
    }
  }
  std::sort(a.touched.begin(), a.touched.end());
  return a;
}

void expect_resets(const RoundOutcome& out, const ResetLists& want, const std::string& label) {
  EXPECT_EQ(out.reset_kind, RoundOutcome::ResetKind::kPerClient) << label;
  EXPECT_EQ(out.contributed, want.contributed) << label;
  EXPECT_EQ(out.reset_offsets, want.offsets) << label;
  EXPECT_EQ(out.reset_indices, want.indices) << label;
}

std::vector<std::int32_t> concat_touched(const BucketAggregator& agg) {
  std::vector<std::int32_t> all;
  for (std::size_t b = 0; b < agg.buckets(); ++b) {
    const auto t = agg.touched(b);
    for (const std::int32_t j : t) {
      EXPECT_EQ(agg.bucket_map()(j), b) << "index " << j << " listed in the wrong bucket";
    }
    all.insert(all.end(), t.begin(), t.end());
  }
  return all;
}

// n clients, each uploading `len` distinct random indices of [0, dim) in
// random order; client 1 (when present) uploads nothing.
std::vector<SparseVector> random_uploads(std::size_t n, std::size_t len, std::size_t dim,
                                         util::Rng& rng) {
  std::vector<SparseVector> uploads(n);
  std::vector<std::int32_t> perm(dim);
  for (std::size_t j = 0; j < dim; ++j) perm[j] = static_cast<std::int32_t>(j);
  for (std::size_t i = 0; i < n; ++i) {
    if (i == 1) continue;
    for (std::size_t p = 0; p < std::min(len, dim); ++p) {
      const auto q =
          rng.uniform_int(static_cast<std::int64_t>(p), static_cast<std::int64_t>(dim) - 1);
      std::swap(perm[p], perm[static_cast<std::size_t>(q)]);
      uploads[i].push_back({perm[p], static_cast<float>(rng.normal(0.0, 1.0))});
    }
  }
  return uploads;
}

// BucketAggregator::run / run_robust / build_reset_lists against the
// oracles: every shard count, no filter, a partial filter, all-pass and
// none-pass filters, no clients and empty uploads. One aggregator serves
// every case, so its buffers are reused across shapes.
TEST(ShardScatterTest, FusedPassesMatchTheTwoPassOracles) {
  util::ThreadPool pool(3);
  util::Rng rng(5);
  BucketAggregator aggregator;
  RobustConfig robust;
  robust.enabled = true;
  struct Scene {
    std::size_t n, len, dim;
  };
  for (const Scene scene : {Scene{0, 0, 50}, Scene{4, 0, 50}, Scene{1, 7, 9},
                            Scene{7, 40, 97}, Scene{23, 300, 2410}}) {
    const auto uploads = random_uploads(scene.n, scene.len, scene.dim, rng);
    std::vector<double> weights(scene.n);
    for (auto& w : weights) w = rng.uniform(0.1, 1.0);
    std::vector<std::uint32_t> member(scene.dim, 0);
    for (auto& m : member) m = rng.bernoulli(0.4) ? 7u : 3u;
    const std::vector<std::uint32_t> all_in(scene.dim, 7u);
    const std::vector<BucketAggregator::Filter> filters{
        {}, {member.data(), 7}, {all_in.data(), 7}, {all_in.data(), 8}};
    for (std::size_t f = 0; f < filters.size(); ++f) {
      const BucketAggregator::Filter& filter = filters[f];
      const ResetLists want_resets = reference_resets(uploads, filter);
      const Aggregate want = reference_aggregate(uploads, weights, scene.dim, filter);
      for (const std::size_t shards : {1u, 2u, 3u, 8u}) {
        const std::string label = "n=" + std::to_string(scene.n) + " dim=" +
                                  std::to_string(scene.dim) + " filter " + std::to_string(f) +
                                  " shards " + std::to_string(shards);
        std::vector<float> agg(scene.dim, -1.0f);
        std::vector<std::uint32_t> stamp(scene.dim, 1);
        RoundOutcome out;
        aggregator.run(uploads, weights, scene.dim, shards, &pool, filter, agg.data(),
                       stamp.data(), 2, &out);
        expect_resets(out, want_resets, label);
        EXPECT_EQ(concat_touched(aggregator), want.touched) << label;
        for (std::size_t j = 0; j < scene.dim; ++j) {
          const bool touched = std::binary_search(want.touched.begin(), want.touched.end(),
                                                  static_cast<std::int32_t>(j));
          ASSERT_EQ(stamp[j] == 2u, touched) << label << " j=" << j;
          if (touched) {
            ASSERT_EQ(std::bit_cast<std::uint32_t>(agg[j]),
                      std::bit_cast<std::uint32_t>(want.agg[j]))
                << label << " j=" << j;
          }
        }

        RoundOutcome robust_out;
        RobustStats stats;
        std::fill(stamp.begin(), stamp.end(), 1u);
        aggregator.run_robust(uploads, weights, scene.dim, shards, &pool, filter, robust,
                              agg.data(), stamp.data(), 2, stats, &robust_out);
        expect_resets(robust_out, want_resets, label + " robust");
        EXPECT_EQ(concat_touched(aggregator), want.touched) << label << " robust";

        RoundOutcome later;
        build_reset_lists(uploads, shards, &pool, filter, later);
        expect_resets(later, want_resets, label + " build_reset_lists");
      }
    }
  }
}

// The top-k methods end to end at shards 1, 2, 3 and 8: each outcome's
// resets and contributions against the two-pass oracle over the method's J
// (the update's index set; everything for unidirectional), and its update
// against the serial aggregation. FAB also runs with robust sums, whose
// resets and J must not change.
TEST(ShardScatterTest, MethodsMatchTheOracles) {
  constexpr std::size_t kDim = 3000, kN = 9, kK = 120;
  util::Rng rng(11);
  std::vector<std::vector<float>> vecs(kN, std::vector<float>(kDim, 0.0f));
  for (std::size_t i = 0; i < kN; ++i) {
    for (std::size_t j = 0; j < kDim; ++j) {
      // Shared heavy coordinates make the uploads overlap.
      const double scale = j % 7 == 0 ? 3.0 : 1.0;
      vecs[i][j] = static_cast<float>(scale * rng.normal(0.0, 1.0));
    }
  }
  // One client with only a few non-zeros uploads fewer than k entries.
  std::fill(vecs[4].begin() + 5, vecs[4].end(), 0.0f);
  std::vector<double> weights(kN);
  double total = 0.0;
  for (auto& w : weights) total += (w = rng.uniform(0.5, 1.5));
  for (auto& w : weights) w /= total;
  RoundInput in;
  in.dim = kDim;
  in.round = 1;
  in.data_weights = {weights.data(), weights.size()};
  for (const auto& v : vecs) in.client_vectors.push_back({v.data(), v.size()});
  std::vector<SparseVector> uploads;
  for (const auto& v : vecs) uploads.push_back(top_k_entries({v.data(), v.size()}, kK));
  const Aggregate full = reference_aggregate(uploads, weights, kDim, {});

  util::ThreadPool pool(3);
  tensor::set_parallel_pool(&pool);
  for (const std::string kind : {"fab", "fab_robust", "fub", "unidirectional"}) {
    for (const std::size_t shards : {1u, 2u, 3u, 8u}) {
      const std::string label = kind + " shards " + std::to_string(shards);
      std::unique_ptr<Method> method;
      if (kind == "fub") {
        method = std::make_unique<FubTopK>(kDim);
      } else if (kind == "unidirectional") {
        method = std::make_unique<UnidirectionalTopK>(kDim);
      } else {
        method = std::make_unique<FabTopK>(kDim);
      }
      if (kind == "fab_robust") {
        RobustConfig cfg;
        cfg.enabled = true;
        method->set_robust(cfg);
      }
      method->set_sharding(shards);
      const RoundOutcome out = method->round(in, kK);
      std::vector<std::uint32_t> in_j(kDim, 0);
      for (const auto& e : out.update) in_j[static_cast<std::size_t>(e.index)] = 1;
      const BucketAggregator::Filter j_filter = kind == "unidirectional"
                                                    ? BucketAggregator::Filter{}
                                                    : BucketAggregator::Filter{in_j.data(), 1};
      expect_resets(out, reference_resets(uploads, j_filter), label);

      const Aggregate want =
          kind == "fab" ? reference_aggregate(uploads, weights, kDim, j_filter) : full;
      if (kind == "unidirectional") {
        ASSERT_EQ(out.update.size(), want.touched.size()) << label;
      }
      for (std::size_t p = 0; p < out.update.size(); ++p) {
        const auto idx = static_cast<std::size_t>(out.update[p].index);
        if (p > 0) ASSERT_LT(out.update[p - 1].index, out.update[p].index) << label;
        if (kind == "unidirectional") ASSERT_EQ(out.update[p].index, want.touched[p]) << label;
        if (kind != "fab_robust") {
          ASSERT_EQ(std::bit_cast<std::uint32_t>(out.update[p].value),
                    std::bit_cast<std::uint32_t>(want.agg[idx]))
              << label << " j=" << idx;
        }
      }
      if (kind != "unidirectional") EXPECT_EQ(out.update.size(), kK) << label;
    }
  }
  tensor::set_parallel_pool(nullptr);
}

}  // namespace
}  // namespace fedsparse::sparsify
