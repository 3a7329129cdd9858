#include "sparsify/unidirectional_topk.h"

#include <algorithm>

#include "sparsify/topk.h"
#include "tensor/matrix.h"
#include "util/thread_pool.h"

namespace fedsparse::sparsify {

UnidirectionalTopK::UnidirectionalTopK(std::size_t dim) : pipe_(dim) {}

// Bucketed aggregation of the whole union (shard-count-independent sums),
// per-bucket index-sorted touched lists concatenated into the globally
// index-sorted update, and full-upload CSR resets from the aggregation's own
// fill pass. Nothing here is selective, so the only ordering obligations are
// the aggregation order (see shard_engine.h) and the update's index order
// (buckets are ascending disjoint index ranges). The downlink is the whole
// union, up to 2kN values.
RoundOutcome UnidirectionalTopK::round(const RoundInput& in, std::size_t k) {
  validate_round_input(in);
  k = std::clamp<std::size_t>(k, 1, pipe_.dim());
  util::ThreadPool* pool = tensor::parallel_pool();
  const ShardPlan plan = pipe_.make_plan(in.client_vectors.size());
  const std::size_t S = plan.shards();

  pipe_.select_uploads(in, k);

  RoundOutcome out;
  const std::span<const double> weights = pipe_.validate_uploads(in, out);
  if (out.validation.degraded) return out;

  pipe_.aggregate(in, weights, S, pool, /*f=*/{}, out, /*with_resets=*/true);
  pipe_.emit_update_from_buckets(pool, out);
  pipe_.finish_payload(out);
  return out;
}

}  // namespace fedsparse::sparsify
