#include "sparsify/fub_topk.h"

#include <algorithm>

#include "sparsify/keys.h"
#include "sparsify/topk.h"
#include "tensor/matrix.h"
#include "util/thread_pool.h"

namespace fedsparse::sparsify {

FubTopK::FubTopK(std::size_t dim) : pipe_(dim) {}

// The server keeps the k entries of the aggregated union that are largest
// by (|value| desc, index asc) — exactly the 64-bit key order on (agg value,
// index), and the per-index keys are unique. So: bucketed aggregation
// (shard-count-independent sums, see shard_engine.h), per-bucket sorted
// top-k runs (top_keys_desc), k-bounded tree merge of the runs. The
// merged run is the global top-k set; the update is then index-sorted.
RoundOutcome FubTopK::round(const RoundInput& in, std::size_t k) {
  validate_round_input(in);
  k = std::clamp<std::size_t>(k, 1, pipe_.dim());
  util::ThreadPool* pool = tensor::parallel_pool();
  const ShardPlan plan = pipe_.make_plan(in.client_vectors.size());
  const std::size_t S = plan.shards();

  pipe_.select_uploads(in, k);

  RoundOutcome out;
  const std::span<const double> weights = pipe_.validate_uploads(in, out);
  if (out.validation.degraded) return out;

  const BucketAggregator& aggregator =
      pipe_.aggregate(in, weights, S, pool, /*f=*/{}, out, /*with_resets=*/false);
  float* agg = pipe_.agg();

  const std::size_t B = aggregator.buckets();
  std::vector<ShardArena>& arenas = pipe_.arenas(B);
  for_each_shard(pool, B, [&](std::size_t b) {
    ShardArena& ar = arenas[b];
    ar.keys.clear();
    for (const std::int32_t j : aggregator.touched(b)) {
      const auto idx = static_cast<std::size_t>(j);
      ar.keys.push_back(make_key(agg[idx], idx));
    }
    top_keys_desc(ar.keys, k, ar.top);
  });
  const auto merged = pipe_.merge_arena_keys(B, k);

  std::uint32_t* stamp = pipe_.stamp();
  const std::uint32_t in_j = pipe_.next_token();
  out.update.resize(merged.size());
  for (std::size_t p = 0; p < merged.size(); ++p) {
    const std::size_t idx = key_index(merged[p]);
    stamp[idx] = in_j;
    out.update[p] = SparseEntry{static_cast<std::int32_t>(idx), agg[idx]};
  }
  sort_by_index(out.update);

  pipe_.build_resets(S, pool, {stamp, in_j}, out);
  pipe_.finish_payload(out);
  return out;
}

}  // namespace fedsparse::sparsify
