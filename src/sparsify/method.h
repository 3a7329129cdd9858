// Strategy interface for one server-side aggregation round.
//
// Every gradient-sparsification scheme the paper evaluates — FAB-top-k (the
// contribution), FUB-top-k, unidirectional top-k, periodic-k, send-all, and
// FedAvg — implements this interface so the federated simulation treats them
// uniformly. A method sees the per-client *accumulated gradients* (or, for
// FedAvg, the per-client local weights) and produces:
//
//  * the downlink payload (sparse or dense update, or averaged weights),
//  * which accumulator indices each client must reset (it transmitted them) —
//    encoded flat (CSR / uniform / all) so a round never allocates one vector
//    per client,
//  * per-client "contributed element" counts feeding the fairness CDF of
//    Fig. 4 (right),
//  * uplink/downlink payload sizes in "values" for the timing model
//    (an index/value pair counts as 2 values — footnote 5 of the paper).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "sparsify/robust.h"
#include "sparsify/sparse_vector.h"
#include "sparsify/topk.h"
#include "sparsify/validate.h"
#include "util/rng.h"

namespace fedsparse::sparsify {

struct RoundInput {
  /// Per-client accumulated gradient a_i; for FedAvg-style methods, the
  /// per-client local weight vector instead.
  std::vector<std::span<const float>> client_vectors;
  /// C_i / C (sums to 1).
  ///
  /// Staleness semantics (buffered-async engine, fl/simulation.h): under
  /// AggregationMode::kBufferedAsync a "round" is a buffer flush, and a slot
  /// may carry an upload deferred from an earlier round. The engine folds the
  /// staleness discount into these weights BEFORE the method sees them —
  /// slot s's weight is (C_s/C)·1/(1 + λ·staleness_s), renormalized over the
  /// flush so the sum stays exactly 1 — so methods remain staleness-oblivious
  /// and every aggregate b_j stays a convex combination of client values
  /// (mass conservation). At zero staleness the discount is a multiplication
  /// by 1.0, bitwise invisible: the synchronized engine's weights come out
  /// identical, which is what pins async ≡ sync traces.
  std::span<const double> data_weights;
  /// Stable client ids, slot-aligned with client_vectors; empty means "slot
  /// s is client s". Methods use them to key per-client state that must
  /// survive across rounds — e.g. the top-k threshold hints — so partial
  /// participation or availability churn reordering the slots does not hand
  /// one client's state to another.
  std::span<const std::size_t> client_ids;
  /// Per-client chunk summaries of the accumulated gradients
  /// (GradientAccumulator::chunk_max, slot-aligned with client_vectors):
  /// chunk_max[c] upper-bounds |a_j| over chunk c of kAccumulatorChunk
  /// floats. Top-k methods prune their selection scans on them — whole
  /// chunks below the running threshold are skipped, so mostly-idle clients
  /// cost O(dirty chunks) instead of O(D) — with bitwise-identical outcomes.
  /// Empty vector = no summaries (dense scans); individual empty spans opt
  /// single clients out. FedAvg-style inputs (client weights) leave it empty.
  std::vector<std::span<const float>> client_chunk_max;
  /// Optional wire-tamper hook (fl::FaultModel): applied to each slot's
  /// upload after selection, before screening. nullptr = intact wire. Must be
  /// pure in (round, client, payload) so probe rounds and replays see the
  /// same corruption.
  const UploadTamper* tamper = nullptr;
  std::size_t dim = 0;   // D
  std::size_t round = 1; // m, 1-based
};

struct RoundOutcome {
  enum class Kind {
    kSparseUpdate,    // apply w -= eta * update to the global weights
    kDenseUpdate,     // same but dense payload (send-all)
    kWeightAverage,   // replace every client's weights (FedAvg aggregation)
    kLocalOnly,       // no communication this round (FedAvg between syncs)
  };
  Kind kind = Kind::kSparseUpdate;

  SparseVector update;                 // kSparseUpdate: the (j, b_j) pairs
  std::vector<float> dense;            // kDenseUpdate / kWeightAverage payloads

  /// Which accumulated entries each participant consumed (Line 17, Alg. 1).
  /// Three encodings, none a per-client vector-of-vectors — two flat arrays
  /// cost two allocations per round instead of n, and the uniform encodings
  /// avoid materializing n identical lists at all:
  ///  * kPerClient — CSR: client slot s resets
  ///    reset_indices[reset_offsets[s] .. reset_offsets[s+1]) (top-k methods);
  ///  * kUniform   — every participant resets `uniform_reset` (periodic-k);
  ///  * kAll       — every participant zeroes its whole accumulator
  ///    (send-all), with no index list at all;
  ///  * kNone      — nothing to reset (FedAvg-style local-update methods).
  enum class ResetKind { kNone, kPerClient, kUniform, kAll };
  ResetKind reset_kind = ResetKind::kNone;
  std::vector<std::int32_t> reset_indices;  // kPerClient payload, client-major
  std::vector<std::size_t> reset_offsets;   // kPerClient: n+1 CSR offsets
  std::vector<std::int32_t> uniform_reset;  // kUniform payload

  /// Client slot s's reset list under kPerClient / kUniform (kNone: empty).
  /// kAll has no list — callers must check reset_kind first and use
  /// GradientAccumulator::reset_all (throws std::logic_error here).
  std::span<const std::int32_t> reset_for(std::size_t s) const;

  /// Per-client number of elements that made it into the downlink gradient.
  std::vector<std::size_t> contributed;

  /// Payload sizes in "values" for the timing model. Uplink is per client:
  /// clients transmit in parallel, so on identical links a synchronous round
  /// waits on the largest per-client payload, and the top-k methods charge
  /// 2 · max_i |J_i| — the *actual* biggest upload (an
  /// index/value pair counts as 2 values), which can be below 2k when a
  /// client had fewer than k entries to send. Downlink is the broadcast
  /// payload. Keeping these honest matters: the online controller optimizes
  /// round time directly against them.
  double uplink_values = 0.0;
  double downlink_values = 0.0;

  /// Per-participant uplink payloads in values, slot-aligned with the
  /// RoundInput. fl::NetworkModel needs the full distribution
  /// (τ_m maxes compute_i + uplink_i(2·|J_i|) over clients, so
  /// a small payload on a slow link can still bind the round) and the
  /// per-client traffic metrics account realized bytes from it. Empty means
  /// "uniform": every participant transmitted `uplink_values`.
  std::vector<double> client_uplink_values;

  /// Participant slot s's uplink payload in values.
  double client_uplink(std::size_t s) const {
    return client_uplink_values.empty() ? uplink_values : client_uplink_values[s];
  }

  /// Upload-screening outcome (sparsify/validate.h). Default-initialized —
  /// valid_fraction 1, degraded false — when screening is disabled or the
  /// method has no screening stage (FedAvg-style). On a degraded round the
  /// update is empty, reset_kind is kNone, and contributed is all-zero: the
  /// engine holds the global weights and every client keeps its mass.
  ValidationStats validation;

  /// Robust-aggregation outcome (sparsify/robust.h). Default-initialized —
  /// mean_trust 1, zero counters — when the robust stage is disabled or the
  /// method has none.
  RobustStats robust;
};

class Method {
 public:
  virtual ~Method() = default;

  virtual std::string name() const = 0;

  /// FedAvg-style methods let clients run local SGD between aggregations and
  /// receive client *weights* rather than accumulated gradients.
  virtual bool local_update_style() const { return false; }

  /// Executes the server side of round `in.round` with sparsity degree k
  /// (already integer via stochastic rounding; clamped to [1, D] by callers).
  virtual RoundOutcome round(const RoundInput& in, std::size_t k) = 0;

  /// The k'_m probe of the derivative-sign estimator (Section IV-E): the
  /// update `round(in, k)` *would* broadcast, without committing any
  /// internal state (permutation cursors, selection hints).
  ///
  /// Contract: the returned outcome carries only `kind` and `update` —
  /// bitwise round(in, k)'s. Reset lists, contributions, payload sizes and
  /// screening/robust statistics may be left empty, and callers read
  /// nothing else. A probe may derive its update from the round the method
  /// just ran (FabTopK does, for k below that round's k): callers probe with
  /// the same RoundInput and leave the client vectors unchanged in between.
  /// Stateless methods inherit this default; stateful ones (periodic-k, the
  /// top-k methods' hint store) override it to snapshot/restore.
  virtual RoundOutcome probe_round(const RoundInput& in, std::size_t k) { return round(in, k); }

  /// Splits the top-k round engine's server passes across `shards` client
  /// shards (others ignore it; 0 is treated as 1). Outcomes are
  /// byte-identical at every shard count — sharding is a scheduling
  /// decision, not a semantic one. fl::Simulation picks one shard per pool
  /// slot (capped at 16) when the pool has workers, else one.
  virtual void set_sharding(std::size_t shards) { (void)shards; }

  /// Configures the upload-screening stage (sparsify/validate.h). Methods
  /// without a screening stage ignore it; top-k methods forward to their
  /// RoundPipeline. Disabled-by-default, and a disabled screen is a bitwise
  /// no-op on the round.
  virtual void set_validation(const ValidationConfig& cfg) { (void)cfg; }

  /// Configures the robust-aggregation stage (sparsify/robust.h). Methods
  /// without an aggregation stage ignore it; top-k methods forward to their
  /// RoundPipeline. Disabled-by-default, and the disabled stage is a bitwise
  /// no-op: the defense-off round never reaches the robust code path.
  virtual void set_robust(const RobustConfig& cfg) { (void)cfg; }

  /// The |value| threshold the next depth-`k` selection for `client_id`
  /// would scan with (its persisted hint), or 0 when unknown. The
  /// buffered-async engine compares accumulator mass against it for
  /// event-triggered uploads.
  /// Implementations must return 0 when the persisted hint was produced for a
  /// k incompatible with the requested one (hint_compatible in topk.h) — a
  /// client rejoining after a churn gap during which the controller moved k
  /// far away must reseed through the prefilter, not scan with a threshold
  /// from a different regime. Methods without per-client selection state
  /// return 0 (no event triggering).
  virtual float upload_threshold_hint(std::size_t client_id, std::size_t k) const {
    (void)client_id;
    (void)k;
    return 0.0f;
  }
};

/// Factory: "fab_topk" | "fub_topk" | "unidirectional_topk" | "periodic" |
/// "send_all" | "fedavg". `dim` is D; `seed` feeds methods that randomize
/// (periodic-k). Throws std::invalid_argument for unknown names.
std::unique_ptr<Method> make_method(const std::string& name, std::size_t dim,
                                    std::uint64_t seed = 1);

/// Validates a RoundInput against a method call (dimension/shape checks
/// shared by all implementations). Throws std::invalid_argument.
void validate_round_input(const RoundInput& in);

}  // namespace fedsparse::sparsify
