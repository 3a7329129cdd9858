#include "sparsify/fab_topk.h"

#include <algorithm>

#include "sparsify/keys.h"
#include "sparsify/topk.h"
#include "tensor/matrix.h"
#include "util/contracts.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace fedsparse::sparsify {

FabTopK::FabTopK(std::size_t dim) : pipe_(dim) {}

// One round. Why each phase gives the same outcome at every shard count:
//
//  * κ — |∪_i J_i^κ| counts each uploaded index once, at its MIN prefix
//    depth over all clients. One serial depth-major walk (depth 0 of every
//    upload, then depth 1, ...) meets every index first at that min depth,
//    so the union after depth j is |∪_i J_i^{j+1}| and its growth per depth
//    is the histogram the derived probe reads. The walk stops after the
//    first depth whose union exceeds k: nothing deeper can change κ or the
//    fill. It reads at most (κ+1)·N entries, not N·k, and depends on no
//    shard plan.
//  * J — the κ-prefix union is the walk's first-sight list before the exit
//    depth. Its order is never observable: the update is index-sorted at the
//    end and resets/contributions test only membership.
//  * Fill — the (κ+1)-th candidates, strongest (|v| desc, index asc) first,
//    walked with first-occurrence index dedup until |J| = k. Per shard:
//    sort the shard's candidates as 64-bit keys (the identical total
//    order), dedup within the shard (a dropped duplicate is weaker than an
//    earlier same-index key, so the global walk would skip it too) and
//    truncate to the fill quota f = k − |J| (an entry below f distinct
//    stronger in-shard candidates has ≥ f distinct stronger candidates
//    globally — it can never be chosen). Tree-merging the runs restores the
//    global candidate order; the final walk is serial.
//  * Aggregation / resets — BucketAggregator reproduces the client-major
//    float addition sequence per index (see shard_engine.h), and its fill
//    pass writes the client-major CSR reset lists over a contiguous
//    partition in the same sweep. Both read the in_j membership before the
//    reduce re-stamps J's entries with its touch token.
RoundOutcome FabTopK::round(const RoundInput& in, std::size_t k) {
  validate_round_input(in);
  const std::size_t n = in.client_vectors.size();
  const std::size_t dim = pipe_.dim();
  k = std::clamp<std::size_t>(k, 1, dim);
  util::ThreadPool* pool = tensor::parallel_pool();
  const ShardPlan plan = pipe_.make_plan(n);
  const std::size_t S = plan.shards();

  // Stage: client-side top-k of the accumulated gradient, strongest first.
  const std::vector<SparseVector>& uploads = pipe_.select_uploads(in, k);

  // Stage: screen the uploads before anything server-side reads them — a
  // poisoned payload must not reach the κ search, let alone the aggregation.
  RoundOutcome out;
  const std::span<const double> weights = pipe_.validate_uploads(in, out);
  if (out.validation.degraded) return out;

  // The κ walk in shard arena 0: aux = an index's min prefix depth, touched
  // = the union in first-sight order, union_growth_[j] = the indices first
  // seen at depth j. κ is the largest depth count whose union fits in k
  // (never below ⌊k/N⌋, the fairness guarantee); J starts as that union.
  std::vector<ShardArena>& arenas = pipe_.arenas(S);
  ShardArena& all = arenas[0];
  std::uint32_t* stamp = pipe_.stamp();
  const std::uint32_t in_j = pipe_.next_token();
  std::size_t selected = 0, kappa = 0;
  {
    FEDSPARSE_SPAN("pipeline_kappa");
    std::size_t depth_end = 0;
    for (const SparseVector& up : uploads) depth_end = std::max(depth_end, up.size());
    depth_end = std::min(depth_end, k);
    const std::uint32_t tok = all.begin_pass(dim);
    all.touched.clear();
    union_growth_.assign(k, 0);
    for (std::size_t j = 0; j < depth_end; ++j) {
      for (const SparseVector& up : uploads) {
        if (up.size() <= j) continue;
        const auto idx = static_cast<std::size_t>(up[j].index);
        if (all.stamp[idx] != tok) {
          all.stamp[idx] = tok;
          all.aux[idx] = static_cast<std::uint32_t>(j);
          all.touched.push_back(up[j].index);
        }
      }
      union_growth_[j] = all.touched.size() - selected;
      if (all.touched.size() > k) break;
      selected = all.touched.size();
      kappa = j + 1;
    }
    for (std::size_t p = 0; p < selected; ++p) {
      stamp[static_cast<std::size_t>(all.touched[p])] = in_j;
    }
  }

  {
    FEDSPARSE_SPAN("pipeline_fill");
    if (selected < k) {
      const std::size_t need = k - selected;
      for_each_shard(pool, S, [&](std::size_t s) {
        ShardArena& ar = arenas[s];
        ar.keys.clear();
        for (std::size_t i = plan.begin(s); i < plan.end(s); ++i) {
          const auto& up = uploads[i];
          if (up.size() > kappa) {
            const auto& e = up[kappa];
            if (stamp[static_cast<std::size_t>(e.index)] != in_j) {
              ar.keys.push_back(make_key(e.value, static_cast<std::size_t>(e.index)));
            }
          }
        }
        top_keys_desc(ar.keys, ar.keys.size(), ar.top);
        std::vector<std::uint64_t>& run = ar.top.out;
        const std::uint32_t tok = ar.begin_pass(dim);
        std::size_t kept = 0;
        for (const std::uint64_t key : run) {
          const std::size_t idx = key_index(key);
          if (ar.stamp[idx] == tok) continue;
          ar.stamp[idx] = tok;
          run[kept++] = key;
          if (kept == need) break;
        }
        run.resize(kept);
      });
      std::size_t total_fill = 0;
      for (std::size_t s = 0; s < S; ++s) total_fill += arenas[s].top.out.size();
      const auto merged = pipe_.merge_arena_keys(S, total_fill);
      for (const std::uint64_t key : merged) {
        if (selected >= k) break;
        const std::size_t idx = key_index(key);
        if (stamp[idx] != in_j) {
          stamp[idx] = in_j;
          ++selected;
        }
      }
    }
  }

  pipe_.aggregate(in, weights, S, pool, {stamp, in_j}, out, /*with_resets=*/true);

  // Buckets are ascending disjoint index ranges with index-sorted touched
  // lists, which concatenate into the globally index-sorted update.
  // Every j ∈ J has at least one uploader (prefix members and fill
  // candidates both come from uploads), so the aggregated set IS J.
  pipe_.emit_update_from_buckets(pool, out);

  pipe_.finish_payload(out);
  pipe_.keep_probe_basis(in, k);
  return out;
}

// A derived probe at depth k′ < k, phase by phase, each equal to what
// round(in, k′) computes:
//
//  * κ′ — round(in, k′) sees only prefix depths < k′, and an index's min
//    depth below k′ is the same in both rounds, so its growth histogram is
//    this round's truncated to k′. The round recorded growth through its
//    exit depth, where the union first exceeded k > k′, so this walk stops
//    at or before that depth (κ′ ≤ κ) and never reads past what was
//    recorded. The walk is O(κ′).
//  * J′ — the depth-<κ′ prefix union (inside J), then the fill from each
//    client's entry at depth κ′, strongest first, first-occurrence dedup.
//    Every J member sits at depth ≤ κ of some upload, all of which the
//    round's walk visited, so arena 0's aux still holds its min depth. The
//    fill is N keys, so it runs serially.
//  * Sums and order — see RoundPipeline::emit_probe_update.
RoundOutcome FabTopK::probe_round(const RoundInput& in, std::size_t k) {
  k = std::clamp<std::size_t>(k, 1, pipe_.dim());
  if (!pipe_.derives_probe(in, k)) return pipe_.keeping_hints([&] { return round(in, k); });
  FEDSPARSE_SPAN("pipeline_probe");
  util::ThreadPool* pool = tensor::parallel_pool();

  std::size_t prefix = 0, kappa = 0;
  for (std::size_t j = 0; j < k && prefix + union_growth_[j] <= k; ++j) {
    prefix += union_growth_[j];
    kappa = j + 1;
  }

  const std::uint32_t in_j = pipe_.next_token();
  const std::uint32_t* depth = pipe_.arenas(1)[0].aux.data();
  std::size_t selected = pipe_.admit_probe_prefix(depth, kappa, in_j, pool);
  FEDSPARSE_CONTRACT(selected == prefix, "derived probe prefix disagrees with the histogram");

  if (selected < k) {
    const std::uint32_t* stamp = pipe_.stamp();
    probe_keys_.clear();
    for (const SparseVector& up : pipe_.uploads()) {
      if (std::min(up.size(), k) <= kappa) continue;
      const SparseEntry& e = up[kappa];
      if (stamp[static_cast<std::size_t>(e.index)] != in_j) {
        probe_keys_.push_back(make_key(e.value, static_cast<std::size_t>(e.index)));
      }
    }
    top_keys_desc(probe_keys_, probe_keys_.size(), probe_top_);
    for (const std::uint64_t key : probe_top_.out) {
      if (selected >= k) break;
      if (pipe_.admit_probe_index(static_cast<std::int32_t>(key_index(key)), in_j)) ++selected;
    }
  }

  RoundOutcome out;
  pipe_.emit_probe_update(k, in_j, pool, out);
  return out;
}

}  // namespace fedsparse::sparsify
