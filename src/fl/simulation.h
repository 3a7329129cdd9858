// The federated-learning simulation loop (Algorithm 1 + Fig. 3 of the paper).
//
// One Simulation wires together: N clients (local non-i.i.d. data and an
// accumulated gradient each), a sparsification Method (FAB-top-k or a
// baseline), a KController (fixed k, Algorithm 2/3, or a baseline), the
// paper's normalized timing model (fl::NetworkModel, which also carries
// per-client links and availability), and the derivative-sign probe protocol
// of Section IV-E. It records everything the paper's figures plot.
//
// Round engine: Algorithm 1 (Lines 13–15) keeps every client at the same
// global weights w(m), so the engine stores ONE shared weight vector — the
// model itself — plus a pool of per-thread model workspaces (activations +
// gradient scratch; see nn::Sequential::bind_weights) that round tasks
// borrow by thread slot, for local steps and evaluation alike. The broadcast
// update is applied once in O(k), the k'-probe shifts and restores the store
// once, and resident memory is O(D + n·D_accum) — no per-client model
// replicas. Only FedAvg-style methods, whose local weights genuinely diverge
// between aggregations, give each client its own weight vector, consumed
// through the same workspace API.
#pragma once

#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "data/synthetic.h"
#include "fl/client.h"
#include "fl/event_timeline.h"
#include "fl/faults.h"
#include "fl/metrics.h"
#include "fl/network.h"
#include "fl/trace.h"
#include "nn/models.h"
#include "online/controller.h"
#include "sparsify/method.h"
#include "util/thread_pool.h"

namespace fedsparse::fl {

class RoundRecorder;

/// How the server folds client uploads into global updates.
enum class AggregationMode {
  /// Algorithm 1's barrier: every sampled participant's upload is awaited and
  /// folded together; τ_m pays the slowest participant. The default, and the
  /// degenerate schedule of the event timeline (flush after the last arrival).
  kSynchronized,
  /// Buffered asynchrony (FedBuff-style): the server folds the first M
  /// arrivals of the round into the flush; later arrivals are buffered and
  /// join the NEXT flush with a staleness discount on their data weight.
  /// τ_m pays only the arrivals it waited for, which is where the wall-clock
  /// win over the barrier comes from under long-tail stragglers. With
  /// M = 0 (take everything) and no event triggering the flush IS the
  /// barrier: traces are byte-identical to kSynchronized (pinned by
  /// tests/async_engine_test.cpp).
  kBufferedAsync,
};

/// Knobs of AggregationMode::kBufferedAsync (ignored under kSynchronized).
struct AsyncConfig {
  /// Flush after this many arrivals per round; later arrivals defer to the
  /// next flush. 0 = accept every arrival (the degenerate barrier).
  std::size_t buffer_size = 0;

  /// λ of the staleness discount 1/(1 + λ·s): a contribution that waited s
  /// flushes in the buffer enters the aggregation with its data weight scaled
  /// down by that factor (then renormalized over the flush — see
  /// staleness_weighting). 0 weights stale and fresh uploads equally.
  double staleness_lambda = 0.25;

  /// Event-triggered uploads: an online client that was NOT sampled this
  /// round volunteers an upload when its accumulator mass clears the
  /// method's selection threshold — max_c chunk_max[c] >= trigger_scale ×
  /// upload_threshold_hint(i, k) — i.e. it is already holding entries the
  /// server would have selected. Triggered clients compute and upload
  /// exactly like sampled ones (fresh, staleness 0). 0 disables.
  double trigger_scale = 0.0;
};

/// Folds the staleness discount 1/(1 + λ·staleness[s]) into flush data
/// weights and renormalizes so they sum to 1 again (mass conservation: the
/// aggregate stays a convex combination of client values). An all-zero
/// staleness vector returns the weights bitwise unchanged — the ×1.0 path is
/// skipped entirely — which is what pins async ≡ sync at zero staleness.
/// Exposed for the async invariant tests.
void staleness_weighting(std::vector<double>& weights, std::span<const std::size_t> staleness,
                         double lambda);

struct SimulationConfig {
  float lr = 0.01f;          // η (paper's setting)
  std::size_t batch = 32;    // minibatch size (paper's setting)
  std::size_t max_rounds = 1000;
  double max_time = std::numeric_limits<double>::infinity();  // normalized
  double target_loss = 0.0;  // stop when global loss <= target (0 = never)

  double comm_time = 10.0;   // β
  double compute_time = 1.0;

  std::size_t eval_every = 10;           // global loss/accuracy cadence
  std::size_t eval_samples_per_client = 64;  // 0 = full local datasets
  std::size_t eval_test_samples = 512;       // 0 = full test set

  /// Fig. 1 support: once the global loss reaches `switch_at_loss`, the
  /// controller is replaced by FixedK(switch_to_k).
  double switch_at_loss = 0.0;
  double switch_to_k = 0.0;

  // --- extensions beyond the paper's evaluation (defaults disable them) ---

  /// Money term of the round cost (paper Sections I/VI: the controller can
  /// minimise any additive resource, not only time). Each transmitted value
  /// costs money_per_value, in units of simulated time; the default 0 leaves
  /// the paper's pure training-time objective. See round_cost().
  double money_per_value = 0.0;

  /// Network & device model (fl/network.h): per-client uplink/downlink/
  /// compute profiles, per-round rate jitter, and Markov on/off
  /// availability. Round time is the straggler formula
  /// τ_m = max_i compute_i + β·(v_i/up_i + d/down_min)/(2D), which the
  /// default config (every client on the nominal link, always on) reduces
  /// to the paper's compute + β·(v + d)/(2D). Offline clients skip server
  /// rounds while they keep accumulating local gradients. Use
  /// apply_scenario() for the named presets.
  NetworkConfig network;

  /// Partial participation (paper future work): fraction of clients sampled
  /// uniformly each round. Non-participants still receive the broadcast
  /// update so weights remain synchronized.
  double participation = 1.0;

  /// Synchronized barrier (default) or buffered-async flushes. FedAvg-style
  /// methods reject kBufferedAsync (diverging local weights make a buffered
  /// flush of weight vectors meaningless — the constructor throws).
  AggregationMode aggregation = AggregationMode::kSynchronized;
  AsyncConfig async;

  /// Fault injection (fl/faults.h): upload drops, payload corruption,
  /// mid-round crashes, flush timeouts, retry-with-backoff. The default
  /// (trivial) config short-circuits every hook — traces stay byte-identical
  /// to a fault-free build, pinned by tests/fault_test.cpp.
  FaultConfig faults;

  /// Server-side upload screening (sparsify/validate.h), forwarded to the
  /// method. Disabled by default; a disabled screen is a bitwise no-op.
  sparsify::ValidationConfig validation;

  /// Byzantine-resilient aggregation (sparsify/robust.h), forwarded to the
  /// method: coordinate-wise trimmed-mean/median over transmitted
  /// coordinates plus cosine reputation feeding the quarantine machinery.
  /// Disabled by default; the disabled stage is a bitwise no-op.
  sparsify::RobustConfig robust;

  /// Telemetry (util/stats.h + fl/trace.h): per-stage spans, the metrics
  /// registry, and the optional Chrome-trace / metrics-JSONL streams. Off by
  /// default; an off run is byte-identical to one without telemetry compiled
  /// in (pinned by tests/stats_test.cpp), and an on run only reads clocks and
  /// bumps counters — it never perturbs RNG draws or float order.
  TelemetryConfig telemetry;

  /// Worker threads (0 = hardware concurrency). The server round engine
  /// (sparsify/shard_engine.h) derives its client shard count from the pool:
  /// one shard per pool slot, capped at 16, when the pool has workers, else
  /// one. Round traces are byte-identical at every thread count.
  std::size_t threads = 0;
  std::uint64_t seed = 1;

  /// The cost the controller minimises for one round that took `time` and
  /// moved the given fleet payload totals: time + money_per_value · values.
  /// Time maxes over parallel links, but money sums over every device, so
  /// the caller passes fleet totals, not one client's payloads.
  double round_cost(double time, double uplink_values, double downlink_values) const;

  /// Throws std::invalid_argument naming the first out-of-range setting.
  /// Every check is written so that NaN fails it. The Simulation constructor
  /// calls this once, before it builds anything from the config.
  void validate() const;
};

/// Installs a named network/device scenario (fl/network.h registry) into a
/// simulation config: the network shape plus the scenario's money term
/// (the metered-WAN scenarios charge per transmitted value).
void apply_scenario(const Scenario& s, SimulationConfig& cfg);

struct RoundRecord {
  std::size_t round = 0;     // m (1-based)
  double time = 0.0;         // cumulative normalized time after this round
  double k_continuous = 0.0; // k_m requested by the controller
  std::size_t k_used = 0;    // after stochastic rounding
  double train_loss = 0.0;   // weighted minibatch loss (cheap proxy)
  double global_loss = std::numeric_limits<double>::quiet_NaN();  // eval rounds only
  double accuracy = std::numeric_limits<double>::quiet_NaN();     // eval rounds only
  double uplink_values = 0.0;
  double downlink_values = 0.0;
  std::size_t participants = 0;      // clients in the server round (0: all offline)
  std::int64_t slowest_client = -1;  // client that bound τ_m (-1: idle round or all tied)
  double mean_staleness = 0.0;       // mean flush staleness (0 under the barrier)
  std::size_t max_staleness = 0;     // longest wait folded by this flush
  std::size_t buffered_stale = 0;    // uploads still deferred after this round
  // Fault & defense counters (all zero on a clean round; see fl/faults.h and
  // sparsify/validate.h — surfaced as metrics.csv columns by bench/common.h).
  std::size_t dropped = 0;      // uploads lost: drops + flush timeouts + crashes
  std::size_t corrupted = 0;    // flushed uploads the corruption draw tampered
  std::size_t byzantine = 0;    // flushed uploads from the adversarial cohort
  std::size_t rejected = 0;     // uploads emptied by the screening stage
  std::size_t quarantined = 0;  // uploads dropped from quarantined clients
  std::size_t suspects = 0;     // contributors flagged by the robust stage
  double trust = 1.0;           // robust-stage round trust (damps feedback)
  bool degraded = false;        // too few valid uploads: aggregation skipped
};

struct SimulationResult {
  std::vector<RoundRecord> records;
  std::vector<double> k_sequence;  // continuous k_m per round (Figs. 5–8)
  std::vector<std::size_t> contributed_totals;  // per client, summed over rounds
  /// Realized per-client traffic over the whole run, in timing-model values
  /// (×4 for bytes: one value is a 32-bit float — see fl::values_to_bytes),
  /// plus how many server rounds each client actually joined. Offline or
  /// unsampled rounds charge a client nothing.
  std::vector<double> client_uplink_values;
  std::vector<double> client_downlink_values;
  std::vector<std::size_t> client_rounds_participated;
  std::size_t rounds_run = 0;
  double total_time = 0.0;   // cumulative round cost (pure time by default)
  double final_loss = std::numeric_limits<double>::quiet_NaN();
  double final_accuracy = std::numeric_limits<double>::quiet_NaN();
  bool reached_target = false;
  std::size_t invalid_probe_rounds = 0;  // rounds where ŝ_m was unavailable

  /// Loss/accuracy series at eval rounds as (time, value) pairs.
  std::vector<std::pair<double, double>> loss_curve() const;
  std::vector<std::pair<double, double>> accuracy_curve() const;

  /// Mean of the second half of the k-sequence — "where the controller
  /// settled", the number scenario comparisons report.
  double tail_k_mean() const;

  /// The client that bound τ_m most often, with the number of rounds it
  /// bound; {-1, 0} when no round named a straggler (homogeneous network).
  std::pair<std::int64_t, std::size_t> modal_straggler() const;
};

class Simulation {
 public:
  /// Takes ownership of the dataset, method and controller. The model
  /// factory is invoked once per *workspace* (pool threads + caller) plus
  /// once for the master weights — never per client.
  Simulation(SimulationConfig cfg, data::FederatedDataset dataset, nn::ModelFactory factory,
             std::unique_ptr<sparsify::Method> method,
             std::unique_ptr<online::KController> controller);
  ~Simulation();

  SimulationResult run();

  std::size_t dim() const noexcept { return dim_; }
  std::size_t num_clients() const noexcept { return clients_.size(); }
  const NetworkModel& network() const noexcept { return network_; }

  /// The last round's event schedule (transitions, upload arrivals, flush) —
  /// built serially every round in both aggregation modes, so tests can pin
  /// the event order across thread counts.
  const EventTimeline& timeline() const noexcept { return timeline_; }

  /// Uploads currently deferred in the async buffer (0 under kSynchronized
  /// and after every zero-staleness flush) — the async invariant tests drain
  /// this to prove deferred mass is never dropped.
  std::size_t pending_uploads() const noexcept { return pending_ids_.size(); }

  /// The injected fault schedule (trivial unless cfg.faults says otherwise).
  const FaultModel& faults() const noexcept { return fault_model_; }

  /// The faults injected in the last round, in injection order.
  std::span<const FaultEvent> fault_events() const noexcept {
    return {fault_events_.data(), fault_events_.size()};
  }

  /// Attaches a record/replay recorder (fl/replay.h): every non-empty flush
  /// is snapshotted as a ReplayRound. Not owned; nullptr detaches.
  void set_recorder(RoundRecorder* recorder) noexcept { recorder_ = recorder; }

  /// Client i's current weights — for post-run invariant checks (all clients
  /// must be identical after any GS round; Algorithm 1 Lines 13–15).
  /// Synchronized methods resolve every client to the shared store;
  /// FedAvg-style clients to their own vectors.
  std::span<const float> client_weights(std::size_t i) const;

 private:
  // Tests reach evaluate(), global_weights(), rng_ and sample_participants()
  // through this peer, to hold the pooled evaluation to a serial oracle.
  friend struct SimulationTestPeer;

  /// Everything one round's stages hand to the next. The lockstep monolith
  /// became this staged pipeline: begin → schedule → compute → server round →
  /// probe → apply → account → record, each stage a method below. `flush`
  /// points at the server round's participant set, flush_ids_ (accepted
  /// arrivals + buffered catch-ups; every arrival under the barrier), and
  /// `staleness` is slot-aligned with it (all zero under the barrier).
  struct RoundContext {
    std::size_t m = 0;
    double k_cont = 0.0;
    double probe_k_cont = 0.0;
    std::size_t k_int = 0;
    const std::vector<std::size_t>* flush = nullptr;
    std::span<const std::size_t> staleness;
    double mean_staleness = 0.0;
    std::size_t max_staleness = 0;
    sparsify::RoundOutcome outcome;
    bool want_probe = false;
    sparsify::SparseVector probe_diff;
    RoundTiming round_timing;
    online::RoundFeedback fb;
    std::size_t dropped = 0;    // uploads lost to faults this round
    std::size_t corrupted = 0;  // corruption draws that fired on the flush
    std::size_t byzantine = 0;  // flushed uploads from the adversarial cohort
  };

  // --- pipeline stages (one round = one pass through all of them) ----------
  /// Controller k + stochastic rounding; advances the network state.
  void stage_begin(RoundContext& ctx);
  /// Samples participants, runs the async event-trigger scan, builds the
  /// round's event timeline, and resolves the flush set + staleness (the
  /// barrier is the buffer at M = 0 without triggers: every arrival, fresh).
  void stage_schedule(RoundContext& ctx);
  /// Runs local computation across the pool.
  void stage_compute(RoundContext& ctx);
  /// The server round over the flush set (selection + aggregation).
  void stage_server_round(RoundContext& ctx);
  /// The k'_m probe selection (before resets touch the accumulators).
  void stage_probe(RoundContext& ctx);
  /// Applies the global update and consumes transmitted accumulator entries.
  void stage_apply(RoundContext& ctx, SimulationResult& res);
  /// Timing, traffic accounting, probe losses, controller feedback.
  void stage_account(RoundContext& ctx, SimulationResult& res, double& time);
  /// Record + periodic evaluation; returns true when the run should stop.
  bool stage_record(RoundContext& ctx, SimulationResult& res, double time);
  /// Telemetry tail of a round (cfg_.telemetry.enabled only): publishes the
  /// round's gauges/counters/staleness histogram, drains the span sinks, and
  /// streams the Chrome-trace / JSONL files when paths were configured.
  void emit_telemetry(const RoundContext& ctx, const SimulationResult& res, double time);

  /// Global loss (data-weighted client losses) and test accuracy at the
  /// global weights. Subsample draws stay serial on rng_, in client order;
  /// the client losses run on the pool's workspaces and sum in client order,
  /// so the result is bitwise-independent of the thread count.
  void evaluate(RoundRecord& rec);
  std::span<float> global_weights();
  /// The executing thread's model workspace, rebound to the weights client
  /// `i` should compute against (shared store, or the client's own vector).
  nn::Sequential& bound_workspace(std::size_t i);
  /// Builds the server's view over the participating clients only, with data
  /// weights renormalized over the sample (`selected` indexes clients_) and
  /// the staleness discount (slot-aligned `staleness`) folded in.
  /// Returns a reference to member scratch reused across rounds.
  const sparsify::RoundInput& make_round_input(std::size_t round,
                                               const std::vector<std::size_t>& selected,
                                               std::span<const std::size_t> staleness);
  /// Samples the participating client subset for one round into member
  /// scratch (no per-round allocation once warm): availability filters
  /// first (an offline client cannot be reached), then uniform
  /// partial-participation sampling over the available clients.
  const std::vector<std::size_t>& sample_participants();
  /// Zeroes the consumed accumulator entries of client `i` (participant slot
  /// `s`) according to the outcome's reset encoding.
  void apply_reset(const sparsify::RoundOutcome& outcome, std::size_t i, std::size_t s);

  SimulationConfig cfg_;
  nn::ModelFactory factory_;
  std::unique_ptr<sparsify::Method> method_;
  std::unique_ptr<online::KController> controller_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::vector<double> data_weights_;
  data::Dataset test_set_;
  NetworkModel network_;
  util::ThreadPool pool_;
  util::Rng rng_;
  std::size_t dim_ = 0;
  bool fedavg_style_ = false;  // method lets clients run local SGD on own weight vectors

  // The shared global weight store w(m) (synchronized methods).
  std::vector<float> shared_weights_;
  // Per-thread model workspaces: slot_count() Sequentials whose weight chain
  // is rebound per task; each owns only gradients + activations.
  std::vector<std::unique_ptr<nn::Sequential>> workspaces_;

  // Round scratch, reused across rounds (no steady-state allocation).
  std::vector<float> fedavg_weights_;    // FedAvg weighted-average output
  std::vector<std::size_t> eval_idx_;    // evaluation subsample rows, all clients
  std::vector<std::size_t> eval_begin_;  // client i's rows: [eval_begin_[i], eval_begin_[i+1])
  std::vector<double> eval_loss_;        // per-client evaluation loss
  std::vector<data::Minibatch> eval_batches_;  // per-slot gathered subsample
  std::vector<std::size_t> part_ids_;    // sampled participant ids
  std::vector<std::size_t> id_scratch_;  // availability filter + Fisher–Yates buffer
  std::vector<std::size_t> compute_ids_; // participants ∪ offline local trainers
  std::vector<double> uplink_slots_;     // per-participant uplink payloads
  std::vector<double> weight_storage_;   // renormalized data weights
  sparsify::RoundInput round_input_;
  std::vector<double> mb_losses_;
  std::vector<double> probe_prev_, probe_cur_, probe_shift_;
  std::vector<float> shift_saved_;       // shared-store probe shift undo buffer
  bool switched_ = false;

  // Event schedule + buffered-async state (reused across rounds).
  EventTimeline timeline_;
  std::vector<std::size_t> prev_offline_;     // last round's offline set (churn diff)
  std::vector<std::pair<double, std::size_t>> arrival_scratch_;  // (arrival time, id)
  std::vector<std::size_t> triggered_ids_;    // event-triggered uploaders this round
  std::vector<std::size_t> flush_ids_;        // flush set (sorted)
  std::vector<std::size_t> flush_staleness_;  // slot-aligned with flush_ids_
  std::vector<std::uint8_t> fresh_mask_;      // flush slot uploaded this round
  std::vector<std::size_t> fresh_ids_;        // fresh subset for round timing
  std::vector<double> fresh_uplink_;
  std::vector<std::size_t> accepted_ids_;     // this round's accepted arrivals (sorted)
  std::vector<std::uint8_t> pending_;         // client deferred in the buffer
  std::vector<std::size_t> pending_round_;    // round of FIRST deferral
  std::vector<std::size_t> pending_ids_;      // sorted ids with pending_ set

  // Telemetry state (all dormant unless cfg_.telemetry.enabled).
  std::unique_ptr<ChromeTraceWriter> trace_writer_;
  std::unique_ptr<MetricsJsonlWriter> jsonl_writer_;
  std::vector<util::Span> span_scratch_;  // per-round drain buffer
  bool telemetry_prev_ = false;           // global flag value to restore after run()

  // Fault-injection state (all dormant when fault_model_.trivial()).
  FaultModel fault_model_;
  RoundRecorder* recorder_ = nullptr;
  std::vector<FaultEvent> fault_events_;      // this round's injected faults
  std::vector<std::size_t> fault_strikes_;    // consecutive failed uploads per client
  std::vector<std::size_t> retry_after_;      // round gate: sit out while m <= gate
};

}  // namespace fedsparse::fl
