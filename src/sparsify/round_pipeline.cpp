#include "sparsify/round_pipeline.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "sparsify/accumulator.h"
#include "sparsify/keys.h"
#include "util/contracts.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace fedsparse::sparsify {

#ifdef FEDSPARSE_CONTRACTS
namespace {

// Selection-layer invariants, checked on every emitted upload before the
// tamper seam can legitimately break them: indices in [0, D) with no
// duplicates, and — when the caller provided accumulator chunk summaries —
// every uploaded |value| within its chunk's max-|a| bound (the bound the
// chunk-pruned scans rely on for exactness).
void check_selected_uploads(const RoundInput& in, const std::vector<SparseVector>& uploads,
                            std::size_t dim) {
  std::vector<std::int32_t> sorted;
  for (std::size_t s = 0; s < uploads.size(); ++s) {
    sorted.clear();
    const std::span<const float> chunk_max =
        in.client_chunk_max.empty() ? std::span<const float>{} : in.client_chunk_max[s];
    for (const auto& e : uploads[s]) {
      FEDSPARSE_CONTRACT(e.index >= 0 && static_cast<std::size_t>(e.index) < dim,
                         "selection emitted an out-of-bounds index");
      if (!chunk_max.empty()) {
        const std::size_t c = static_cast<std::size_t>(e.index) / kAccumulatorChunk;
        FEDSPARSE_CONTRACT(c < chunk_max.size() && std::abs(e.value) <= chunk_max[c],
                           "chunk max-|a| summary does not bound an uploaded value");
      }
      sorted.push_back(e.index);
    }
    std::sort(sorted.begin(), sorted.end());
    FEDSPARSE_CONTRACT(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end(),
                       "selection emitted a duplicate index");
  }
}

}  // namespace
#endif

RoundPipeline::RoundPipeline(std::size_t dim) : dim_(dim), agg_(dim, 0.0f), stamp_(dim, 0) {}

void RoundPipeline::set_sharding(std::size_t shards) noexcept {
  shards_ = std::max<std::size_t>(1, shards);
}

const std::vector<SparseVector>& RoundPipeline::select_uploads(const RoundInput& in,
                                                               std::size_t k) {
  FEDSPARSE_SPAN("pipeline_select");
  basis_valid_ = false;
  top_k_uploads(in.client_vectors, in.client_chunk_max, k, in.client_ids, slot_ws_, hints_,
                uploads_);
#ifdef FEDSPARSE_CONTRACTS
  check_selected_uploads(in, uploads_, dim_);
#endif
  if (in.tamper != nullptr) {
    for (std::size_t s = 0; s < uploads_.size(); ++s) {
      const std::size_t cid = in.client_ids.empty() ? s : in.client_ids[s];
      in.tamper->apply(in.round, cid, uploads_[s]);
    }
  }
  return uploads_;
}

std::span<const double> RoundPipeline::validate_uploads(const RoundInput& in,
                                                        RoundOutcome& out) {
  FEDSPARSE_SPAN("pipeline_screen");
  ValidationStats& stats = out.validation;
  const std::span<const double> eff =
      validator_.screen(uploads_, in.client_ids, in.data_weights, dim_, in.round, stats);
#ifdef FEDSPARSE_CONTRACTS
  // Mass conservation across the screen: outside degraded rounds the
  // effective weights must remain a convex combination (sum 1), whether they
  // are the passthrough span or the renormalized internal buffer.
  if (!stats.degraded && !eff.empty()) {
    double total = 0.0;
    for (const double w : eff) total += w;
    FEDSPARSE_CONTRACT(std::abs(total - 1.0) < 1e-6,
                       "screening broke weight mass conservation");
  }
#endif
  if (stats.degraded) {
    out.update.clear();
    out.reset_kind = RoundOutcome::ResetKind::kNone;
    out.contributed.assign(in.client_vectors.size(), 0);
    finish_payload(out);
  }
  return eff;
}

float RoundPipeline::threshold_hint(std::size_t client_id, std::size_t k) const {
  if (client_id >= hints_.size()) return 0.0f;
  const ClientHint& h = hints_[client_id];
  return hint_compatible(h.k, k) ? h.threshold : 0.0f;
}

std::vector<ShardArena>& RoundPipeline::arenas(std::size_t count) {
  if (arenas_.size() < count) arenas_.resize(count);
  return arenas_;
}

std::span<const std::uint64_t> RoundPipeline::merge_arena_keys(std::size_t count,
                                                               std::size_t bound) {
  runs_.clear();
  for (std::size_t s = 0; s < count; ++s) {
    runs_.push_back(arenas_[s].top.out);
  }
  merger_.merge({runs_.data(), runs_.size()}, bound, merged_keys_);
#ifdef FEDSPARSE_CONTRACTS
  // The 64-bit selection keys are a total order; a merge of descending runs
  // must itself be descending or the top-k cut is wrong.
  for (std::size_t p = 1; p < merged_keys_.size(); ++p) {
    FEDSPARSE_CONTRACT(merged_keys_[p - 1] >= merged_keys_[p],
                       "key merge produced a non-descending run");
  }
#endif
  return {merged_keys_.data(), merged_keys_.size()};
}

const BucketAggregator& RoundPipeline::aggregate(const RoundInput& in,
                                                 std::span<const double> weights,
                                                 std::size_t shards, util::ThreadPool* pool,
                                                 const BucketAggregator::Filter& f,
                                                 RoundOutcome& out, bool with_resets) {
  RoundOutcome* resets = with_resets ? &out : nullptr;
  if (robust_cfg_.trivial()) {
    FEDSPARSE_SPAN("pipeline_aggregate");
    ++stamp_token_;
    aggregator_.run(uploads_, weights, dim_, shards, pool, f, agg_.data(), stamp_.data(),
                    stamp_token_, resets);
    return aggregator_;
  }
  FEDSPARSE_SPAN("pipeline_robust_aggregate");
  ++stamp_token_;
  aggregator_.run_robust(uploads_, weights, dim_, shards, pool, f, robust_cfg_, agg_.data(),
                         stamp_.data(), stamp_token_, out.robust, resets);

  // Reputation pass: every contributing client scored by the cosine between
  // its upload and the robust aggregate restricted to the client's own
  // coordinates (membership = the indices the reduce just stamped, which is
  // exactly the filter the scatter applied). Serial in slot order — pure and
  // shard-count invariant. Trust is the weighted fraction of contributors
  // that are NOT anti-aligned. An honest client with a divergent gradient can
  // dip below the threshold on a noisy round, so clean-run trust is high but
  // not pinned at 1.0; the strike/clear pair below keeps such false positives
  // from ever reaching quarantine (that takes consecutive suspect rounds).
  double contributing_w = 0.0;
  double aligned_w = 0.0;
  for (std::size_t s = 0; s < uploads_.size(); ++s) {
    double dot = 0.0;
    double norm_up = 0.0;
    double norm_agg = 0.0;
    bool contributed = false;
    for (const auto& e : uploads_[s]) {
      const auto idx = static_cast<std::size_t>(e.index);
      if (stamp_[idx] != stamp_token_) continue;
      contributed = true;
      const double v = static_cast<double>(e.value);
      const double a = static_cast<double>(agg_[idx]);
      dot += v * a;
      norm_up += v * v;
      norm_agg += a * a;
    }
    if (!contributed) continue;
    const double w = weights[s];
    contributing_w += w;
    const bool anti_aligned =
        norm_up > 0.0 && norm_agg > 0.0 &&
        dot < robust_cfg_.suspect_cosine * std::sqrt(norm_up) * std::sqrt(norm_agg);
    const std::size_t cid = in.client_ids.empty() ? s : in.client_ids[s];
    if (anti_aligned) {
      ++out.robust.suspects;
      validator_.note_suspect(cid, in.round);
    } else {
      aligned_w += w;
      validator_.note_aligned(cid, in.round);
    }
  }
  out.robust.mean_trust = contributing_w > 0.0 ? aligned_w / contributing_w : 1.0;
  return aggregator_;
}

void RoundPipeline::build_resets(std::size_t shards, util::ThreadPool* pool,
                                 const BucketAggregator::Filter& f, RoundOutcome& out) {
  FEDSPARSE_SPAN("pipeline_resets");
  build_reset_lists(uploads_, shards, pool, f, out);
}

void RoundPipeline::emit_update_from_buckets(util::ThreadPool* pool, RoundOutcome& out) {
  FEDSPARSE_SPAN("pipeline_emit");
  const std::size_t B = aggregator_.buckets();
  bucket_offsets_.resize(B + 1);
  bucket_offsets_[0] = 0;
  for (std::size_t b = 0; b < B; ++b) {
    bucket_offsets_[b + 1] = bucket_offsets_[b] + aggregator_.touched(b).size();
  }
  out.update.resize(bucket_offsets_[B]);
  for_each_shard(pool, B, [&](std::size_t b) {
    std::size_t pos = bucket_offsets_[b];
    for (const std::int32_t j : aggregator_.touched(b)) {
      out.update[pos++] = SparseEntry{j, agg_[static_cast<std::size_t>(j)]};
    }
  });
}

void RoundPipeline::keep_probe_basis(const RoundInput& in, std::size_t k) {
  basis_valid_ = in.tamper == nullptr && !validator_.enabled() && robust_cfg_.trivial();
  if (!basis_valid_) return;
  basis_round_ = in.round;
  basis_k_ = k;
  basis_ids_.assign(in.client_ids.begin(), in.client_ids.end());
  basis_vectors_.assign(in.client_vectors.begin(), in.client_vectors.end());
  basis_weights_.assign(in.data_weights.begin(), in.data_weights.end());
}

bool RoundPipeline::derives_probe(const RoundInput& in, std::size_t k_probe) const {
  const auto same_bits = [](double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
  };
  const auto same_span = [](std::span<const float> a, std::span<const float> b) {
    return a.data() == b.data() && a.size() == b.size();
  };
  if (!basis_valid_ || k_probe == 0 || k_probe >= basis_k_ || in.tamper != nullptr ||
      validator_.enabled() || !robust_cfg_.trivial() || in.round != basis_round_ ||
      !std::equal(in.client_ids.begin(), in.client_ids.end(), basis_ids_.begin(),
                  basis_ids_.end()) ||
      !std::equal(in.data_weights.begin(), in.data_weights.end(), basis_weights_.begin(),
                  basis_weights_.end(), same_bits) ||
      !std::equal(in.client_vectors.begin(), in.client_vectors.end(), basis_vectors_.begin(),
                  basis_vectors_.end(), same_span)) {
    return false;
  }
#ifdef FEDSPARSE_CONTRACTS
  // The caller must not have written the vectors since the round: every
  // entry of every k′-prefix still reads what the selection saw.
  for (std::size_t s = 0; s < uploads_.size(); ++s) {
    const std::size_t depth = std::min(k_probe, uploads_[s].size());
    for (std::size_t j = 0; j < depth; ++j) {
      const SparseEntry& e = uploads_[s][j];
      const float v = in.client_vectors[s][static_cast<std::size_t>(e.index)];
      FEDSPARSE_CONTRACT(std::memcmp(&v, &e.value, sizeof v) == 0,
                         "client vector changed between a round and its derived probe");
    }
  }
#endif
  return true;
}

std::size_t RoundPipeline::admit_probe_prefix(const std::uint32_t* depth, std::size_t cut,
                                              std::uint32_t token, util::ThreadPool* pool) {
  // The round's aggregation left bucket b's J, index-sorted, in touched(b).
  const std::size_t B = aggregator_.buckets();
  probe_counts_.assign(B, 0);
  for_each_shard(pool, B, [&](std::size_t b) {
    std::size_t count = 0;
    for (const std::int32_t j : aggregator_.touched(b)) {
      const auto idx = static_cast<std::size_t>(j);
      if (depth[idx] < cut) {
        stamp_[idx] = token;
        agg_[idx] = 0.0f;
        ++count;
      }
    }
    probe_counts_[b] = count;
  });
  std::size_t total = 0;
  for (const std::size_t c : probe_counts_) total += c;
  return total;
}

bool RoundPipeline::admit_probe_index(std::int32_t j, std::uint32_t token) {
  const auto idx = static_cast<std::size_t>(j);
  if (stamp_[idx] == token) return false;
  stamp_[idx] = token;
  agg_[idx] = 0.0f;
  ++probe_counts_[aggregator_.bucket_map()(j)];
  return true;
}

void RoundPipeline::emit_probe_update(std::size_t k_probe, std::uint32_t token,
                                      util::ThreadPool* pool, RoundOutcome& out) {
  // A client's top-k′ prefix is every entry at least as strong as its
  // (k′−1)-th; a shorter upload keeps everything (cut 0).
  probe_cuts_.resize(uploads_.size());
  for (std::size_t s = 0; s < uploads_.size(); ++s) {
    const SparseVector& up = uploads_[s];
    probe_cuts_[s] = up.size() < k_probe
                         ? 0
                         : make_key(up[k_probe - 1].value,
                                    static_cast<std::size_t>(up[k_probe - 1].index));
  }
  const std::size_t B = probe_counts_.size();
  bucket_offsets_.resize(B + 1);
  bucket_offsets_[0] = 0;
  for (std::size_t b = 0; b < B; ++b) {
    bucket_offsets_[b + 1] = bucket_offsets_[b] + probe_counts_[b];
  }
  out.update.resize(bucket_offsets_[B]);
  const BucketAggregator::Filter member{stamp_.data(), token};
  for_each_shard(pool, B, [&](std::size_t b) {
    aggregator_.accumulate_prefixes(b, probe_cuts_, member, agg_.data());
    // J′ ⊆ J, so the round's index-sorted J filtered by membership is the
    // probe's index-sorted update.
    std::size_t pos = bucket_offsets_[b];
    for (const std::int32_t j : aggregator_.touched(b)) {
      const auto idx = static_cast<std::size_t>(j);
      if (stamp_[idx] == token) out.update[pos++] = SparseEntry{j, agg_[idx]};
    }
  });
}

void RoundPipeline::finish_payload(RoundOutcome& out) const {
#ifdef FEDSPARSE_CONTRACTS
  // Every emitting path (index sort, bucket concatenation) must deliver
  // the update strictly index-ascending and in-bounds — appliers and the
  // probe's sparse_subtract rely on it.
  for (std::size_t p = 0; p < out.update.size(); ++p) {
    FEDSPARSE_CONTRACT(out.update[p].index >= 0 &&
                           static_cast<std::size_t>(out.update[p].index) < dim_,
                       "emitted update index out of bounds");
    if (p > 0) {
      FEDSPARSE_CONTRACT(out.update[p - 1].index < out.update[p].index,
                         "emitted update not strictly index-sorted");
    }
  }
#endif
  // Uplink: the slot-aligned payload list (2 values per (index, value) pair)
  // and the parallel-uplink max. Screening may have emptied rejected
  // payloads after they crossed the wire; the timing model charges the
  // transmitted sizes, not the surviving ones.
  const auto pre = validator_.pre_screen_uplink();
  out.client_uplink_values.resize(uploads_.size());
  out.uplink_values = 0.0;
  for (std::size_t s = 0; s < uploads_.size(); ++s) {
    out.client_uplink_values[s] =
        pre.empty() ? 2.0 * static_cast<double>(uploads_[s].size()) : pre[s];
    out.uplink_values = std::max(out.uplink_values, out.client_uplink_values[s]);
  }
  out.downlink_values = 2.0 * static_cast<double>(out.update.size());
}

}  // namespace fedsparse::sparsify
