// FAB-top-k: fairness-aware bidirectional top-k gradient sparsification.
//
// The paper's first contribution (Section III-B, Algorithm 1). Each client
// uploads the top-k entries of its accumulated gradient; the server selects
// exactly k downlink elements such that every client contributes at least
// ⌊k/N⌋ of them:
//
//   1. find the largest per-client prefix length κ with |∪_i J_i^κ| ≤ k
//      (J_i^κ = client i's κ strongest uploaded indices) by walking the
//      uploads depth by depth, stopping at the first depth that overflows;
//   2. J ← ∪_i J_i^κ, then fill up to k with the strongest entries of
//      (∪_i J_i^{κ+1}) \ J;
//   3. aggregate b_j = Σ_i (C_i/C)·a_ij·1[j ∈ J_i] for j ∈ J;
//   4. clients reset accumulated entries j ∈ J ∩ J_i.
//
// Fairness guarantee: κ never drops below ⌊k/N⌋ because N·⌊k/N⌋ ≤ k.
//
// The shared stages (selection, shard arenas, aggregation, reset builder,
// payload accounting) live in RoundPipeline; this class owns only the
// FAB-specific middle: the κ search and the fill, and their k′-probe
// counterparts derived from the round's own state.
#pragma once

#include "sparsify/method.h"
#include "sparsify/round_pipeline.h"

namespace fedsparse::sparsify {

class FabTopK final : public Method {
 public:
  explicit FabTopK(std::size_t dim);

  std::string name() const override { return "fab_topk"; }
  RoundOutcome round(const RoundInput& in, std::size_t k) override;

  /// The k′ probe. Right after round(in, k) with k′ < k — and with no tamper
  /// hook, screening or robust aggregation — it derives update(k′) from that
  /// round's state: κ′ from the union-growth histogram, J′ from the round's
  /// depth map and fill candidates, the sums from its scatter buffer, the
  /// order from its sorted J. Anything else runs round(in, k′) with the hint
  /// store saved and restored. Either way the update is bitwise round(in,
  /// k′)'s, and no selection state changes.
  RoundOutcome probe_round(const RoundInput& in, std::size_t k) override;

  /// Client shards for the round engine (see Method::set_sharding). Outcomes
  /// are byte-identical at every shard count.
  void set_sharding(std::size_t shards) override { pipe_.set_sharding(shards); }
  void set_validation(const ValidationConfig& cfg) override { pipe_.set_validation(cfg); }
  void set_robust(const RobustConfig& cfg) override { pipe_.set_robust(cfg); }

  float upload_threshold_hint(std::size_t client_id, std::size_t k) const override {
    return pipe_.threshold_hint(client_id, k);
  }

 private:
  RoundPipeline pipe_;
  // The κ walk's union-growth histogram: the indices first seen at each
  // depth, recorded through the walk's exit depth and zero beyond (reused;
  // steady-state rounds allocate nothing). A derived probe reads the last
  // round's.
  std::vector<std::size_t> union_growth_;
  // A derived probe's fill candidates, and the same sorted strongest first.
  std::vector<std::uint64_t> probe_keys_;
  TopKeys probe_top_;
};

}  // namespace fedsparse::sparsify
