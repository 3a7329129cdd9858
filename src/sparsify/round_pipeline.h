// RoundPipeline: the staged server-round machinery shared by the top-k
// methods.
//
// A synchronized round is one composition of stages —
//
//   select uploads → screen → (method-specific index selection)
//     → aggregate + resets → emit update → payload accounting
//
// — and only the middle step differs between methods (FAB's κ-search + fill,
// FUB's top-k over the aggregate, unidirectional's keep-everything; FUB's
// resets follow its selection in a stage of their own). The pipeline owns
// every shared stage plus the scratch it runs on: the upload workspaces (one
// per thread slot) and the 8-byte per-client hint store, the dense
// aggregation arena with its stamp discipline, and the shard arenas / key
// merger / bucket aggregator (which also builds the reset lists). Methods
// hold one pipeline and compose. The buffered-async engine (fl/simulation.h) drives
// the exact same stages — a flush is a round over the arrival buffer — which
// is what makes async ≡ sync at zero staleness testable method by method.
//
// Determinism contract: each stage is bit-identical across shard counts and
// thread counts (see shard_engine.h for the per-stage arguments); the
// pipeline adds no ordering decisions of its own.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sparsify/method.h"
#include "sparsify/shard_engine.h"
#include "sparsify/topk.h"

namespace fedsparse::util {
class ThreadPool;
}

namespace fedsparse::sparsify {

class RoundPipeline {
 public:
  explicit RoundPipeline(std::size_t dim);

  std::size_t dim() const noexcept { return dim_; }

  /// Client shard count for the sharded stages (at least 1). Outcomes do
  /// not depend on it, so it may change between rounds.
  void set_sharding(std::size_t shards) noexcept;

  // --- stage: select (per-client top-k uploads) -----------------------------

  /// Computes every participant's top-k upload (the list every later stage
  /// reads) via the per-slot workspaces + compact per-client hint store.
  /// Byte-identical at every thread count.
  const std::vector<SparseVector>& select_uploads(const RoundInput& in, std::size_t k);

  /// The last select_uploads() result (after any tamper and screening).
  const std::vector<SparseVector>& uploads() const noexcept { return uploads_; }

  /// Runs `run_round` (the method's own round()) with the per-client hint
  /// store saved and put back afterwards: a probe that runs a whole round
  /// commits no selection state.
  template <class RunRound>
  RoundOutcome keeping_hints(RunRound&& run_round) {
    saved_hints_ = hints_;
    RoundOutcome out = run_round();
    hints_.swap(saved_hints_);
    return out;
  }

  // --- stage: screen uploads (sparsify/validate.h) --------------------------

  void set_validation(const ValidationConfig& cfg) { validator_.configure(cfg); }
  /// Robust aggregation for the aggregate() stage (disabled by default).
  void set_robust(const RobustConfig& cfg) noexcept { robust_cfg_ = cfg; }

  /// Screens the selected uploads in place into out.validation and returns
  /// the effective data weights — in.data_weights itself (same pointer) when
  /// screening is disabled or nothing was rejected, a renormalized internal
  /// span otherwise. Methods must aggregate with the RETURNED span. On a
  /// degraded round `out` comes back finished — empty update, kNone resets,
  /// all-zero contributed, honest uplink accounting (rejected payloads still
  /// spent airtime), zero downlink — and the method returns it as is: the
  /// engine holds weights and every client keeps its accumulated mass. Runs
  /// after select_uploads (and after any tamper hook it applied), before
  /// method-specific selection, so poisoned entries never reach a κ search
  /// or the aggregation arena.
  std::span<const double> validate_uploads(const RoundInput& in, RoundOutcome& out);

  /// The |value| threshold the next depth-k selection for `client_id` would
  /// scan with, or 0 when unknown OR when the persisted hint was produced for
  /// an incompatible k (see hint_compatible in topk.h): after a churn gap the
  /// controller may have moved k far from where the client last uploaded, and
  /// a threshold from that regime would misfire an event trigger — the hint
  /// reseeds through the normal prefilter instead.
  float threshold_hint(std::size_t client_id, std::size_t k) const;

  // --- dense aggregation arena + stamp discipline ---------------------------

  /// Dim-sized dense aggregation buffer; valid only for indices stamped by
  /// the current pass (stamp()[j] == the token that wrote them).
  float* agg() noexcept { return agg_.data(); }
  std::uint32_t* stamp() noexcept { return stamp_.data(); }
  /// A fresh stamp token (monotonic; shared by every stage of a round).
  std::uint32_t next_token() noexcept { return ++stamp_token_; }

  // --- shard stages ---------------------------------------------------------

  ShardPlan make_plan(std::size_t n) const { return make_shard_plan(n, shards_); }

  /// Per-shard arenas, grown to at least `count` (capacity persists).
  std::vector<ShardArena>& arenas(std::size_t count);

  /// k-bounded fixed-order tree merge of arenas [0, count)'s key runs.
  std::span<const std::uint64_t> merge_arena_keys(std::size_t count, std::size_t bound);

  /// Stage: sharded weighted aggregation of the selected uploads into agg()
  /// under an optional membership filter, stamping touched indices with a
  /// fresh token. Returns the aggregator for bucket iteration (touched
  /// lists, each index-sorted). With `with_resets` the same passes fill
  /// out.contributed and the kPerClient reset lists over the same filter —
  /// for every method whose filter is known before aggregation (FAB's J,
  /// unidirectional's everything).
  ///
  /// With robust aggregation configured (sparsify/robust.h) each touched
  /// coordinate is reduced with the configured robust statistic instead of
  /// the weighted sum, and every contributing client is scored by cosine
  /// alignment against the robust aggregate restricted to its own
  /// coordinates — anti-aligned clients take a reputation strike through the
  /// validator's quarantine bookkeeping, and out.robust.mean_trust carries
  /// the round's trust for RoundFeedback damping. agg()/stamp()/touched
  /// buckets end up exactly as the plain reduce leaves them, so the emit
  /// stage composes unchanged; the disabled stage never reaches the robust
  /// code. The scatter reads the filter before the reduce writes stamps, so
  /// a filter over an older token of stamp() is safe; the filter's
  /// membership is gone once this stage returns.
  const BucketAggregator& aggregate(const RoundInput& in, std::span<const double> weights,
                                    std::size_t shards, util::ThreadPool* pool,
                                    const BucketAggregator::Filter& f, RoundOutcome& out,
                                    bool with_resets);

  /// Stage: client-major CSR reset lists + contributed counts from the
  /// selected uploads under a filter that exists only after aggregation
  /// (FUB's selected set).
  void build_resets(std::size_t shards, util::ThreadPool* pool,
                    const BucketAggregator::Filter& f, RoundOutcome& out);

  /// Stage: emit the aggregated update from the last aggregate() call's
  /// buckets, index-sorted (buckets are ascending disjoint index ranges and
  /// each touched list is index-sorted, so they concatenate into the global
  /// index order).
  void emit_update_from_buckets(util::ThreadPool* pool, RoundOutcome& out);

  // --- derived k′ probe (FabTopK::probe_round) ------------------------------
  //
  // A probe at depth k′ < k over the round just run reuses that round's
  // state instead of running a second round: uploads are strongest-first,
  // so client i's top-k′ is the first k′ entries of its top-k upload, the
  // probe's set J′ is a subset of the round's J, and the scatter buffer
  // already holds every (client, entry) pair a J′ sum needs.

  /// Marks the round just run over `in` at depth k as a probe basis when its
  /// uploads reached aggregation as selected: no tamper hook, no screening,
  /// plain (non-robust) sums. select_uploads() clears the mark.
  void keep_probe_basis(const RoundInput& in, std::size_t k);

  /// Whether a depth-`k_probe` probe over `in` may be derived from the
  /// basis: `in` is that round's input (same round, client ids, data
  /// weights and vector spans, whose contents the caller left unchanged),
  /// 1 ≤ k_probe < k, and the tamper, screening and robust stages are still
  /// off.
  bool derives_probe(const RoundInput& in, std::size_t k_probe) const;

  /// Derived probe, stage 1: admits every member j of the basis round's J
  /// with depth[j] < cut into J′ — stamp()[j] = token, agg()[j] = 0 — and
  /// returns how many it admitted. `depth` is indexed by coordinate.
  std::size_t admit_probe_prefix(const std::uint32_t* depth, std::size_t cut,
                                 std::uint32_t token, util::ThreadPool* pool);

  /// Derived probe, stage 2: admits one more index of J into J′; false when
  /// it already was a member.
  bool admit_probe_index(std::int32_t j, std::uint32_t token);

  /// Derived probe, stage 3: sums every client's top-`k_probe` entries over
  /// J′ (the indices stamped `token`) and emits the index-sorted update into
  /// out.update — bitwise what the depth-k_probe round would emit for the
  /// same J′.
  void emit_probe_update(std::size_t k_probe, std::uint32_t token, util::ThreadPool* pool,
                         RoundOutcome& out);

  // --- stage: payload accounting (uplink/downlink values) -------------------

  /// Fills uplink accounting from the selected uploads and the broadcast
  /// downlink from the update payload (2 values per (index, value) pair).
  void finish_payload(RoundOutcome& out) const;

 private:
  std::size_t dim_;
  std::size_t shards_ = 1;

  // Dense aggregation arena (sized D) + membership stamps.
  std::vector<float> agg_;
  std::vector<std::uint32_t> stamp_;
  std::uint32_t stamp_token_ = 0;

  // Selection state: per-thread-slot workspaces + 8-byte per-client hints.
  std::vector<TopKWorkspace> slot_ws_;
  std::vector<ClientHint> hints_;
  std::vector<ClientHint> saved_hints_;
  std::vector<SparseVector> uploads_;
  UploadValidator validator_;
  RobustConfig robust_cfg_;

  // Shard-stage scratch.
  std::vector<ShardArena> arenas_;
  std::vector<std::span<const std::uint64_t>> runs_;
  std::vector<std::uint64_t> merged_keys_;
  std::vector<std::size_t> bucket_offsets_;
  KeyMerger merger_;
  BucketAggregator aggregator_;

  // Derived-probe basis: the identity of the last round's input, and the
  // probe's per-bucket J′ counts and per-client prefix cuts.
  bool basis_valid_ = false;
  std::size_t basis_round_ = 0;
  std::size_t basis_k_ = 0;
  std::vector<std::size_t> basis_ids_;
  std::vector<std::span<const float>> basis_vectors_;
  std::vector<double> basis_weights_;
  std::vector<std::size_t> probe_counts_;
  std::vector<std::uint64_t> probe_cuts_;
};

}  // namespace fedsparse::sparsify
