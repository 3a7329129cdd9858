#include "fl/simulation.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <stdexcept>

#include "fl/replay.h"
#include "online/estimator.h"
#include "online/rounding.h"
#include "sparsify/topk.h"
#include "tensor/matrix.h"
#include "util/logging.h"
#include "util/stats.h"

namespace fedsparse::fl {

namespace {

[[noreturn]] void reject(const char* setting, double value, const char* requirement) {
  std::ostringstream os;
  os << "SimulationConfig: " << setting << " = " << value << " is invalid; " << requirement;
  throw std::invalid_argument(os.str());
}

}  // namespace

void SimulationConfig::validate() const {
  // Each test is phrased as !(valid), so a NaN setting fails it too.
  if (!(lr > 0.0f) || !std::isfinite(lr)) {
    reject("lr", lr, "the learning rate must be a positive finite number");
  }
  if (batch == 0) reject("batch", 0.0, "the minibatch needs at least one sample");
  if (!(comm_time >= 0.0) || !std::isfinite(comm_time)) {
    reject("comm_time", comm_time, "the communication time beta must be finite and >= 0");
  }
  if (!(compute_time > 0.0) || !std::isfinite(compute_time)) {
    reject("compute_time", compute_time,
           "the per-round compute time must be finite and > 0 (the unit of simulated time)");
  }
  if (!(max_time > 0.0)) {
    reject("max_time", max_time, "the simulated-time budget must be > 0 (inf = no budget)");
  }
  if (!(target_loss >= 0.0)) {
    reject("target_loss", target_loss, "the stopping loss must be >= 0 (0 = never stop early)");
  }
  if (!(switch_at_loss >= 0.0)) {
    reject("switch_at_loss", switch_at_loss,
           "the controller-switch loss must be >= 0 (0 = never switch)");
  }
  if (switch_at_loss > 0.0 && !(switch_to_k >= 1.0 && std::isfinite(switch_to_k))) {
    reject("switch_to_k", switch_to_k,
           "the fixed k installed at switch_at_loss must be finite and >= 1");
  }
  if (!(money_per_value >= 0.0) || !std::isfinite(money_per_value)) {
    reject("money_per_value", money_per_value,
           "the money cost of one transmitted value must be finite and >= 0");
  }
  if (!(participation > 0.0 && participation <= 1.0)) {
    reject("participation", participation,
           "the sampled fraction of online clients must be in (0, 1]");
  }
  if (!(async.staleness_lambda >= 0.0)) {
    reject("async.staleness_lambda", async.staleness_lambda,
           "the staleness discount 1/(1 + lambda*s) needs lambda >= 0 (0 = no discount)");
  }
  if (!(async.trigger_scale >= 0.0)) {
    reject("async.trigger_scale", async.trigger_scale,
           "the event-trigger scale must be >= 0 (0 disables triggered uploads)");
  }
}

double SimulationConfig::round_cost(double time, double uplink_values,
                                    double downlink_values) const {
  return time + money_per_value * (uplink_values + downlink_values);
}

Simulation::Simulation(SimulationConfig cfg, data::FederatedDataset dataset,
                       nn::ModelFactory factory, std::unique_ptr<sparsify::Method> method,
                       std::unique_ptr<online::KController> controller)
    : cfg_(cfg),
      factory_(std::move(factory)),
      method_(std::move(method)),
      controller_(std::move(controller)),
      test_set_(std::move(dataset.test)),
      pool_(cfg.threads),
      rng_(cfg.seed) {
  cfg_.validate();
  if (!method_) throw std::invalid_argument("Simulation: null method");
  if (!controller_) throw std::invalid_argument("Simulation: null controller");
  if (dataset.clients.empty()) throw std::invalid_argument("Simulation: no clients");
  data_weights_ = dataset.data_weights();

  // Master initialization: the one weight vector everything starts from. Its
  // dimension sizes every client's accumulator.
  util::Rng master_rng(cfg.seed ^ 0x5EEDULL);
  const auto master = factory_(master_rng);
  dim_ = master->dim();

  clients_.reserve(dataset.clients.size());
  std::uint64_t seed_state = cfg.seed ^ 0xC11E27ULL;
  for (std::size_t i = 0; i < dataset.clients.size(); ++i) {
    clients_.push_back(std::make_unique<Client>(i, std::move(dataset.clients[i]), dim_,
                                                util::splitmix64(seed_state)));
  }
  network_ = NetworkModel(cfg.comm_time, cfg.compute_time, dim_, cfg.network, clients_.size(),
                          cfg.seed);

  // Weight layout: the shared store always holds w(m) for synchronized
  // methods; FedAvg-style methods (diverging local weights) give every
  // client its own vector.
  fedavg_style_ = method_->local_update_style();
  if (fedavg_style_ && cfg_.aggregation == AggregationMode::kBufferedAsync) {
    throw std::invalid_argument(
        "Simulation: buffered-async aggregation requires gradient-accumulating methods "
        "(FedAvg-style local weights diverge between flushes)");
  }
  pending_.assign(clients_.size(), 0);
  pending_round_.assign(clients_.size(), 0);
  shared_weights_.assign(master->weights().begin(), master->weights().end());
  if (fedavg_style_) {
    for (auto& c : clients_) c->allocate_weights(master->weights());
  }

  // Per-thread model workspaces: pool workers plus the calling thread. Each
  // keeps only gradients + activations once its weight chain is rebound.
  workspaces_.reserve(pool_.slot_count());
  for (std::size_t t = 0; t < pool_.slot_count(); ++t) {
    util::Rng ws_rng(cfg.seed ^ (0x3A7E0000ULL + t));
    workspaces_.push_back(factory_(ws_rng));
    if (workspaces_.back()->dim() != dim_) {
      throw std::logic_error("Simulation: factory dim mismatch");
    }
    workspaces_.back()->bind_weights({shared_weights_.data(), shared_weights_.size()});
  }
  eval_batches_.resize(pool_.slot_count());

  // Let large GEMMs inside workspace forward/backward split their M loop
  // across this pool. Nested parallel_for calls are safe: the caller always
  // drains chunks itself, so a busy pool just means the inner call runs
  // serially.
  tensor::set_parallel_pool(&pool_);

  // Round engine shards: one per pool slot (capped — past ~16 shards the
  // tree-merge constant outweighs the split) whenever the pool actually has
  // workers. Shard count never changes round traces (pinned by tests), so it
  // can track the thread count freely.
  const std::size_t shards =
      pool_.size() > 1 ? std::min<std::size_t>(16, pool_.slot_count()) : 1;
  method_->set_sharding(shards);

  // Fault injection + server-side screening. Both default to no-ops: a
  // trivial fault model short-circuits every hook and a disabled validator
  // returns uploads untouched, so the zero-fault configuration stays
  // byte-identical to a build without either (tests/fault_test.cpp).
  fault_model_ = FaultModel(cfg_.faults, cfg.seed, dim_);
  method_->set_validation(cfg_.validation);
  method_->set_robust(cfg_.robust);
  fault_strikes_.assign(clients_.size(), 0);
  retry_after_.assign(clients_.size(), 0);

  util::log_info() << "Simulation: " << clients_.size() << " clients, D=" << dim_
                   << ", method=" << method_->name() << ", controller=" << controller_->name()
                   << ", beta=" << cfg.comm_time << ", engine="
                   << (fedavg_style_ ? "per-client" : "shared") << " ("
                   << workspaces_.size() << " workspaces, " << shards << " shards)";
}

Simulation::~Simulation() {
  // Unregister only if still pointing at our pool (last Simulation wins when
  // several coexist; they must not run concurrently in one process).
  if (tensor::parallel_pool() == &pool_) tensor::set_parallel_pool(nullptr);
}

std::span<const float> Simulation::client_weights(std::size_t i) const {
  const Client& c = *clients_.at(i);
  if (c.owns_weights()) return c.weights();
  return {shared_weights_.data(), shared_weights_.size()};
}

nn::Sequential& Simulation::bound_workspace(std::size_t i) {
  nn::Sequential& ws = *workspaces_[pool_.current_slot()];
  if (fedavg_style_) {
    ws.bind_weights(clients_[i]->weights());
  } else {
    ws.bind_weights({shared_weights_.data(), shared_weights_.size()});
  }
  return ws;
}

const std::vector<std::size_t>& Simulation::sample_participants() {
  // Availability gates reachability: an offline client can be neither
  // sampled nor waited on. The network maintains the online list inside its
  // own per-client transition pass, so nothing here is O(N): full
  // participation reads the list straight through, and partial participation
  // copies it once for the in-place shuffle. Without churn the list is the
  // identity and the sampling consumes rng_ exactly as the pre-network
  // engine did.
  const auto online = network_.online_ids();
  const std::size_t avail = online.size();
  if (cfg_.participation >= 1.0 || avail <= 1) {
    part_ids_.assign(online.begin(), online.end());
    return part_ids_;
  }
  id_scratch_.assign(online.begin(), online.end());
  const auto take = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(cfg_.participation * static_cast<double>(avail))));
  // Partial Fisher–Yates: the first `take` entries are a uniform sample.
  for (std::size_t i = 0; i < take; ++i) {
    const std::size_t j = i + rng_.uniform_u64(avail - i);
    std::swap(id_scratch_[i], id_scratch_[j]);
  }
  part_ids_.assign(id_scratch_.begin(), id_scratch_.begin() + static_cast<std::ptrdiff_t>(take));
  std::sort(part_ids_.begin(), part_ids_.end());
  return part_ids_;
}

void staleness_weighting(std::vector<double>& weights, std::span<const std::size_t> staleness,
                         double lambda) {
  // All-fresh flushes skip the fold entirely so the weights stay bitwise
  // untouched — this is what pins zero-staleness async ≡ sync byte-identity.
  bool any_stale = false;
  for (const std::size_t s : staleness) {
    if (s != 0) {
      any_stale = true;
      break;
    }
  }
  if (!any_stale) return;
  double total = 0.0;
  for (std::size_t s = 0; s < weights.size(); ++s) {
    weights[s] *= 1.0 / (1.0 + lambda * static_cast<double>(staleness[s]));
    total += weights[s];
  }
  if (total > 0.0) {
    for (double& w : weights) w /= total;
  }
}

const sparsify::RoundInput& Simulation::make_round_input(
    std::size_t round, const std::vector<std::size_t>& selected,
    std::span<const std::size_t> staleness) {
  round_input_.dim = dim_;
  round_input_.round = round;
  // In-transit tampering seam: the pipeline invokes it on each upload after
  // selection. Pure in (seed, round, client), so probe re-selections and
  // replays corrupt identically; nullptr when no faults are configured.
  round_input_.tamper = fault_model_.trivial() ? nullptr : &fault_model_;
  // Stable ids so methods key cross-round per-client state (e.g. top-k
  // threshold hints) by client, not by participant slot.
  round_input_.client_ids = {selected.data(), selected.size()};
  round_input_.client_vectors.clear();
  round_input_.client_chunk_max.clear();
  weight_storage_.clear();
  double total = 0.0;
  for (const std::size_t i : selected) total += data_weights_[i];
  // Tiered round view: the methods see each accumulator's chunk summaries
  // next to its values and prune their selection scans on them. FedAvg-style
  // inputs are client weights — no accumulator, no summaries.
  for (const std::size_t i : selected) {
    weight_storage_.push_back(total > 0.0 ? data_weights_[i] / total
                                          : 1.0 / static_cast<double>(selected.size()));
    round_input_.client_vectors.push_back(fedavg_style_
                                              ? std::span<const float>(clients_[i]->weights())
                                              : clients_[i]->accumulator().value());
    if (!fedavg_style_) {
      round_input_.client_chunk_max.push_back(clients_[i]->accumulator().chunk_max());
    }
  }
  // Buffered-async flushes discount stale contributions before the methods
  // ever see the weights; methods stay staleness-oblivious (sparsify/method.h).
  staleness_weighting(weight_storage_, staleness, cfg_.async.staleness_lambda);
  round_input_.data_weights = {weight_storage_.data(), weight_storage_.size()};
  return round_input_;
}

void Simulation::apply_reset(const sparsify::RoundOutcome& outcome, std::size_t i,
                             std::size_t s) {
  using ResetKind = sparsify::RoundOutcome::ResetKind;
  switch (outcome.reset_kind) {
    case ResetKind::kNone:
      break;
    case ResetKind::kAll:
      clients_[i]->accumulator().reset_all();
      break;
    case ResetKind::kPerClient:
    case ResetKind::kUniform:
      clients_[i]->accumulator().reset_indices(outcome.reset_for(s));
      break;
  }
}

std::span<float> Simulation::global_weights() {
  if (!fedavg_style_) return {shared_weights_.data(), shared_weights_.size()};
  // FedAvg between synchronizations: the virtual global model is the
  // data-weighted average of the local weights, computed over disjoint index
  // ranges across the pool. Per coordinate the clients accumulate in
  // ascending order exactly as in the serial loop, so the threaded result is
  // bitwise-identical.
  fedavg_weights_.resize(dim_);
  float* fw = fedavg_weights_.data();
  pool_.parallel_for_ranges(dim_, [&](std::size_t begin, std::size_t end) {
    std::fill(fw + begin, fw + end, 0.0f);
    for (std::size_t i = 0; i < clients_.size(); ++i) {
      const auto w = clients_[i]->weights();
      const auto dw = static_cast<float>(data_weights_[i]);
      for (std::size_t j = begin; j < end; ++j) fw[j] += dw * w[j];
    }
  });
  return {fedavg_weights_.data(), fedavg_weights_.size()};
}

void Simulation::evaluate(RoundRecord& rec) {
  const std::span<float> w = global_weights();
  const std::size_t n = clients_.size();
  // Draw every subsample up front, serially and in client order, so rng_
  // advances exactly as a serial walk would.
  const auto draw = [&](std::size_t size, std::size_t cap) {
    if (cap == 0 || size <= cap) return;  // the whole dataset, no draws
    for (std::size_t s = 0; s < cap; ++s) eval_idx_.push_back(rng_.uniform_u64(size));
  };
  eval_idx_.clear();
  eval_begin_.resize(n + 1);
  for (std::size_t i = 0; i < n; ++i) {
    eval_begin_[i] = eval_idx_.size();
    draw(clients_[i]->num_samples(), cfg_.eval_samples_per_client);
  }
  eval_begin_[n] = eval_idx_.size();
  draw(test_set_.size(), cfg_.eval_test_samples);

  // Loss or accuracy on this thread's workspace over the rows [begin, end)
  // of eval_idx_, a subsample of `ds`; an empty range means all of `ds`.
  const auto evaluate_on = [&](const data::Dataset& ds, std::size_t begin, std::size_t end,
                               bool accuracy) {
    const std::size_t slot = pool_.current_slot();
    nn::Sequential& ws = *workspaces_[slot];
    ws.bind_weights(w);
    const tensor::Matrix* x = &ds.x;
    std::span<const int> y = ds.y;
    if (begin != end) {
      data::Minibatch& mb = eval_batches_[slot];
      data::gather(ds, {eval_idx_.data() + begin, end - begin}, mb);
      x = &mb.x;
      y = mb.y;
    }
    return accuracy ? ws.accuracy(*x, y) : ws.forward_loss(*x, y);
  };
  eval_loss_.resize(n);
  pool_.parallel_for(
      n,
      [&](std::size_t i) {
        eval_loss_[i] = evaluate_on(clients_[i]->dataset(), eval_begin_[i], eval_begin_[i + 1],
                                    /*accuracy=*/false);
      },
      /*grain=*/std::max<std::size_t>(1, n / (8 * pool_.slot_count())));
  // One rounding per client: the serial loop this replaces compiled to a
  // fused multiply-add under -march=native, while a loop over stored losses
  // gets vectorized into separate multiplies and adds. std::fma keeps the
  // fused bits, on targets without FMA hardware as well.
  double loss = 0.0;
  for (std::size_t i = 0; i < n; ++i) loss = std::fma(data_weights_[i], eval_loss_[i], loss);
  rec.global_loss = loss;
  rec.accuracy = evaluate_on(test_set_, eval_begin_[n], eval_idx_.size(), /*accuracy=*/true);
}

// ---------------------------------------------------------------------------
// The staged round pipeline. One round is one pass through the stages below.
// The synchronized barrier is the degenerate schedule of the same pipeline —
// the flush fires after the last arrival — so both aggregation modes share
// every stage, and zero-staleness async ≡ sync byte-identity falls out of the
// shared code path instead of being re-proved per feature.
// ---------------------------------------------------------------------------

void Simulation::stage_begin(RoundContext& ctx) {
  ctx.k_cont = controller_->current_k();
  ctx.probe_k_cont = controller_->probe_k();
  ctx.k_int = online::stochastic_round_k(ctx.k_cont, dim_, rng_);

  // Advance the network fluctuation state (rate jitter + availability
  // chain) before anything reads it. A trivial network is a no-op.
  network_.begin_round(ctx.m);
}

void Simulation::stage_schedule(RoundContext& ctx) {
  const bool async = cfg_.aggregation == AggregationMode::kBufferedAsync;

  // Participants feed the server round; offline clients keep training
  // locally — their gradients pile up in the accumulator until they rejoin
  // (the FAB/FUB catch-up dynamic) — but cannot upload, be waited on, or be
  // sampled. Client RNG streams are keyed by (client, round), so who
  // computes never perturbs anyone else's draw.
  const std::vector<std::size_t>& part = sample_participants();

  // Fault pre-pass (dormant under a trivial model): clients serving a retry
  // backoff sit the round out, and crash draws kill participants before
  // their local step — no compute, no upload, accumulator and RNG stream
  // untouched. Both filters run on the sampled set, so the sampling RNG
  // consumption is identical with and without faults.
  fault_events_.clear();
  const auto note_failure = [&](std::size_t i) {
    ++fault_strikes_[i];
    retry_after_[i] = ctx.m + fault_model_.backoff_rounds(fault_strikes_[i]);
  };
  if (!fault_model_.trivial()) {
    std::erase_if(part_ids_, [&](std::size_t i) { return retry_after_[i] >= ctx.m; });
    std::erase_if(part_ids_, [&](std::size_t i) {
      if (!fault_model_.crashes(ctx.m, i)) return false;
      fault_events_.push_back({static_cast<std::uint32_t>(ctx.m), static_cast<std::uint32_t>(i),
                               FaultKind::kClientCrash, CorruptionMode::kNaN});
      note_failure(i);
      return true;
    });
  }
  compute_ids_.assign(part.begin(), part.end());

  // Event-triggered uploads: an online client that was NOT sampled this
  // round volunteers an upload when its accumulator mass already clears the
  // method's selection threshold — it is demonstrably holding entries the
  // server would have picked. Triggered clients compute and upload exactly
  // like sampled ones. The scan is an early-exit walk over chunk summaries:
  // O(chunks) per unsampled online client, nothing when disabled.
  triggered_ids_.clear();
  if (async && cfg_.async.trigger_scale > 0.0) {
    const auto scale = static_cast<float>(cfg_.async.trigger_scale);
    std::size_t next = 0;
    for (const std::size_t i : network_.online_ids()) {
      if (next < part.size() && part[next] == i) {
        ++next;
        continue;
      }
      if (pending_[i]) continue;  // already buffered — joins the flush anyway
      const float hint = method_->upload_threshold_hint(i, ctx.k_int);
      if (hint <= 0.0f) continue;
      const float bar = scale * hint;
      for (const float cm : clients_[i]->accumulator().chunk_max()) {
        if (cm >= bar) {
          triggered_ids_.push_back(i);
          break;
        }
      }
    }
    compute_ids_.insert(compute_ids_.end(), triggered_ids_.begin(), triggered_ids_.end());
  }
  if (network_.has_churn()) {
    const auto offline = network_.offline_ids();
    compute_ids_.insert(compute_ids_.end(), offline.begin(), offline.end());
  }

  // --- the round's event schedule ------------------------------------------
  // Built serially in BOTH modes from the network model alone (no RNG, no
  // thread-pool state), totally ordered by (time, kind, client) at seal():
  // the event order is identical at every thread count, which the async
  // engine tests pin.
  timeline_.clear();
  if (network_.has_churn()) {
    // Diff the sorted offline sets of the previous and current round with
    // one merge walk: present only now = went offline, present only before =
    // came back online.
    const auto cur = network_.offline_ids();
    std::size_t a = 0, b = 0;
    while (a < prev_offline_.size() || b < cur.size()) {
      if (b == cur.size() || (a < prev_offline_.size() && prev_offline_[a] < cur[b])) {
        timeline_.push(0.0, EventKind::kClientOnline, prev_offline_[a++]);
      } else if (a == prev_offline_.size() || cur[b] < prev_offline_[a]) {
        timeline_.push(0.0, EventKind::kClientOffline, cur[b++]);
      } else {
        ++a;
        ++b;
      }
    }
    prev_offline_.assign(cur.begin(), cur.end());
  }
  // Crashes happened before any compute: they anchor at the round start.
  for (const FaultEvent& e : fault_events_) {
    timeline_.push(0.0, EventKind::kClientCrash, e.client);
  }

  // Upload arrivals: each uploader lands at compute + own-payload-over-own-
  // link, the payload estimated at the full 2k it may send. Ties (the
  // homogeneous network) resolve by client id via the sort's second key.
  arrival_scratch_.clear();
  const double est_payload = 2.0 * static_cast<double>(std::min(ctx.k_int, dim_));
  for (const std::size_t i : part) {
    arrival_scratch_.emplace_back(network_.arrival_time(i, est_payload), i);
  }
  for (const std::size_t i : triggered_ids_) {
    arrival_scratch_.emplace_back(network_.arrival_time(i, est_payload), i);
  }
  std::sort(arrival_scratch_.begin(), arrival_scratch_.end());

  // Upload losses: the local step ran (mass accumulated) but the payload
  // either dropped in transit or missed the server's flush deadline. Either
  // way the client leaves the flush set, gets no reset — its mass rides to
  // the next successful upload — and starts its retry backoff.
  if (!fault_model_.trivial()) {
    std::erase_if(arrival_scratch_, [&](const std::pair<double, std::size_t>& a) {
      const std::size_t i = a.second;
      FaultKind kind;
      if (fault_model_.drops_upload(ctx.m, i)) {
        kind = FaultKind::kUploadDrop;
      } else if (fault_model_.times_out(a.first)) {
        kind = FaultKind::kFlushTimeout;
      } else {
        return false;
      }
      fault_events_.push_back({static_cast<std::uint32_t>(ctx.m), static_cast<std::uint32_t>(i),
                               kind, CorruptionMode::kNaN});
      timeline_.push(a.first, EventKind::kUploadLost, i);
      note_failure(i);
      return true;
    });
    // A delivered upload clears its client's consecutive-failure streak.
    for (const auto& [t, i] : arrival_scratch_) fault_strikes_[i] = 0;
  }
  for (const auto& [t, i] : arrival_scratch_) timeline_.push(t, EventKind::kUploadReady, i);

  // The barrier is the buffer at M = 0 without triggers: it accepts every
  // arrival, so nothing defers, every flush slot is fresh, and the flush
  // fires after the last surviving arrival. Lost uploaders computed
  // (compute_ids_ keeps them) but never reach the flush.
  const std::size_t arrivals = arrival_scratch_.size();
  std::size_t accept = arrivals;
  if (async && cfg_.async.buffer_size > 0) accept = std::min(cfg_.async.buffer_size, arrivals);
  const double flush_time = accept > 0 ? arrival_scratch_[accept - 1].first : 0.0;

  accepted_ids_.clear();
  for (std::size_t s = 0; s < accept; ++s) accepted_ids_.push_back(arrival_scratch_[s].second);
  std::sort(accepted_ids_.begin(), accepted_ids_.end());

  // The flush = accepted arrivals ∪ online buffered catch-ups: every
  // contribution deferred at an earlier flush joins the next flush its
  // client is reachable for (the rejoin catch-up — no starvation, buffered
  // mass waits at most one flush once its client is back online).
  flush_ids_.assign(accepted_ids_.begin(), accepted_ids_.end());
  for (const std::size_t i : pending_ids_) {
    if (!network_.available(i)) continue;
    if (std::binary_search(accepted_ids_.begin(), accepted_ids_.end(), i)) continue;
    flush_ids_.push_back(i);
  }
  std::sort(flush_ids_.begin(), flush_ids_.end());

  // Slot-aligned staleness + freshness; flushed members leave the buffer.
  // Staleness counts whole flush windows waited: m − first-deferral round.
  // A re-sampled pending client flushes its accumulated (old + new) mass
  // with that staleness but counts as fresh for timing — it did upload now.
  flush_staleness_.resize(flush_ids_.size());
  fresh_mask_.resize(flush_ids_.size());
  ctx.mean_staleness = 0.0;
  for (std::size_t s = 0; s < flush_ids_.size(); ++s) {
    const std::size_t i = flush_ids_[s];
    flush_staleness_[s] = pending_[i] ? ctx.m - pending_round_[i] : 0;
    fresh_mask_[s] = std::binary_search(accepted_ids_.begin(), accepted_ids_.end(), i) ? 1 : 0;
    pending_[i] = 0;
    ctx.mean_staleness += static_cast<double>(flush_staleness_[s]);
    ctx.max_staleness = std::max(ctx.max_staleness, flush_staleness_[s]);
  }
  if (!flush_ids_.empty()) ctx.mean_staleness /= static_cast<double>(flush_ids_.size());

  // Enter this round's deferrals into the buffer. An arrival beyond the
  // buffer whose client just flushed anyway (as a catch-up) defers nothing —
  // its whole accumulator, this round's gradient included, was folded. The
  // FIRST deferral round sticks (staleness measures total wait). Then drop
  // flushed members from the pending list and restore id order.
  for (std::size_t s = accept; s < arrivals; ++s) {
    const std::size_t i = arrival_scratch_[s].second;
    if (std::binary_search(flush_ids_.begin(), flush_ids_.end(), i)) continue;
    if (!pending_[i]) {
      pending_[i] = 1;
      pending_round_[i] = ctx.m;
      pending_ids_.push_back(i);
    }
  }
  std::erase_if(pending_ids_, [&](std::size_t i) { return pending_[i] == 0; });
  std::sort(pending_ids_.begin(), pending_ids_.end());

  timeline_.push(flush_time, EventKind::kBufferFlush, flush_ids_.size());
  timeline_.seal();
  ctx.flush = &flush_ids_;
  ctx.staleness = {flush_staleness_.data(), flush_staleness_.size()};
}

void Simulation::stage_compute(RoundContext& ctx) {
  // (A) Local computation at w(m−1) in parallel over the per-thread
  // workspaces.
  pool_.parallel_for(
      compute_ids_.size(),
      [&](std::size_t s) {
        const std::size_t i = compute_ids_[s];
        nn::Sequential& ws = bound_workspace(i);
        mb_losses_[i] = fedavg_style_
                            ? clients_[i]->local_update(ws, ctx.m, cfg_.batch, cfg_.lr)
                            : clients_[i]->compute_round_gradient(ws, ctx.m, cfg_.batch);
      },
      /*grain=*/1);
}

void Simulation::stage_server_round(RoundContext& ctx) {
  const std::vector<std::size_t>& flush = *ctx.flush;

  // (1)–(2) Server round: selection + aggregation over the flush set.
  // An empty round (every client offline) skips the server exchange, leaves
  // the default outcome — zero payloads, no resets — and falls through the
  // shared record/eval/stop tail as one idle compute round.
  ctx.dropped = fault_events_.size();  // schedule-stage events are all losses
  if (!flush.empty()) {
    // Corruption draws are counted here (pure per (round, client), so this
    // mirrors exactly what the tamper hook does inside the pipeline) and
    // recorded as fault events for metrics and replay.
    if (!fault_model_.trivial() && fault_model_.config().corrupt_prob > 0.0) {
      for (const std::size_t i : flush) {
        if (!fault_model_.corrupts(ctx.m, i)) continue;
        fault_events_.push_back({static_cast<std::uint32_t>(ctx.m), static_cast<std::uint32_t>(i),
                                 FaultKind::kPayloadCorrupt,
                                 fault_model_.corruption_mode(ctx.m, i)});
        ++ctx.corrupted;
      }
    }
    // Byzantine cohort membership mirrors the same way: round-independent and
    // pure per client, so the event log matches the adversarial tampers the
    // pipeline's UploadTamper seam applies.
    if (!fault_model_.config().adversary.trivial()) {
      for (const std::size_t i : flush) {
        if (!fault_model_.byzantine(i)) continue;
        fault_events_.push_back({static_cast<std::uint32_t>(ctx.m), static_cast<std::uint32_t>(i),
                                 FaultKind::kAdversarialTamper, CorruptionMode::kNaN});
        ++ctx.byzantine;
      }
    }
    ctx.outcome = method_->round(make_round_input(ctx.m, flush, ctx.staleness), ctx.k_int);
    if (recorder_ != nullptr) {
      // round_input_ still holds this round's (pre-tamper) method input.
      recorder_->record(round_input_, ctx.k_int, fault_events(), timeline_.events(), ctx.outcome);
    }
  }
}

void Simulation::stage_probe(RoundContext& ctx) {
  // (3) Probe selection k'_m (derived before resets touch the accumulators).
  const std::vector<std::size_t>& flush = *ctx.flush;
  // A degraded round (screening rejected too many uploads) held the weights:
  // there is no meaningful k vs k' comparison to probe.
  ctx.want_probe = !flush.empty() && ctx.probe_k_cont > 0.0 && !fedavg_style_ &&
                   ctx.outcome.kind == sparsify::RoundOutcome::Kind::kSparseUpdate &&
                   !ctx.outcome.validation.degraded;
  if (!ctx.want_probe) return;
  std::size_t probe_k_int = online::stochastic_round_k(ctx.probe_k_cont, dim_, rng_);
  if (probe_k_int >= ctx.k_int) probe_k_int = ctx.k_int > 1 ? ctx.k_int - 1 : 0;
  if (probe_k_int >= 1) {
    // round_input_ still holds this round's view (want_probe implies a
    // non-empty flush set built it above).
    const sparsify::RoundOutcome probe_outcome = method_->probe_round(round_input_, probe_k_int);
    ctx.probe_diff = sparsify::sparse_subtract(ctx.outcome.update, probe_outcome.update);
  } else {
    ctx.want_probe = false;
  }
}

void Simulation::stage_apply(RoundContext& ctx, SimulationResult& res) {
  const std::vector<std::size_t>& flush = *ctx.flush;
  const sparsify::RoundOutcome& outcome = ctx.outcome;
  const std::size_t n = clients_.size();

  // (B)/(C) Apply the global update and consume transmitted accumulator
  // entries. An empty round exchanged nothing and touches nobody. Resets run
  // only for flushed slots, so a deferred client's accumulator keeps every
  // gradient until the flush that folds it — buffered mass cannot be lost.
  if (!flush.empty() && fedavg_style_) {
    // FedAvg: every client owns diverging local weights. A kWeightAverage
    // synchronization overwrites them all in one parallel pass; kLocalOnly
    // touches nobody. FedAvg keeps no accumulators, so nothing resets.
    switch (outcome.kind) {
      case sparsify::RoundOutcome::Kind::kWeightAverage:
        pool_.parallel_for(
            n,
            [&](std::size_t i) {
              // An offline client misses the synchronization and keeps its
              // diverging local weights until it rejoins.
              if (network_.available(i)) {
                clients_[i]->set_weights({outcome.dense.data(), outcome.dense.size()});
              }
            },
            /*grain=*/1);
        break;
      case sparsify::RoundOutcome::Kind::kLocalOnly:
        break;
      default:
        throw std::logic_error("Simulation: FedAvg-style methods emit only weight averages");
    }
  } else if (!flush.empty()) {
    // Shared store: the synchronized update is applied ONCE — O(k) sparse,
    // O(D) dense — independent of the client count. Only the flushed
    // clients' accumulators need per-client work.
    const std::span<float> sw{shared_weights_.data(), shared_weights_.size()};
    switch (outcome.kind) {
      case sparsify::RoundOutcome::Kind::kSparseUpdate:
        sparsify::axpy_sparse(-cfg_.lr, outcome.update, sw);
        break;
      case sparsify::RoundOutcome::Kind::kDenseUpdate:
        if (outcome.dense.size() != sw.size()) {
          throw std::invalid_argument("Simulation: dense update dimension mismatch");
        }
        for (std::size_t j = 0; j < sw.size(); ++j) sw[j] -= cfg_.lr * outcome.dense[j];
        break;
      case sparsify::RoundOutcome::Kind::kLocalOnly:
        break;
      case sparsify::RoundOutcome::Kind::kWeightAverage:
        throw std::logic_error("Simulation: weight averages need FedAvg-style local weights");
    }
    pool_.parallel_for(
        flush.size(), [&](std::size_t s) { apply_reset(outcome, flush[s], s); },
        /*grain=*/1);
  }
  for (std::size_t s = 0; s < flush.size(); ++s) {
    res.contributed_totals[flush[s]] += outcome.contributed[s];
  }
}

void Simulation::stage_account(RoundContext& ctx, SimulationResult& res, double& time) {
  const std::vector<std::size_t>& flush = *ctx.flush;
  const sparsify::RoundOutcome& outcome = ctx.outcome;

  // Straggler-correct round timing: τ_m maxes each FRESH arrival's
  // compute + own-payload-over-own-link + the broadcast over the slowest
  // participating downlink. A buffered contribution's transit overlapped an
  // earlier round's window and costs this flush nothing — the wall-clock win
  // of buffered async over the barrier, whose slots are all fresh.
  uplink_slots_.resize(flush.size());
  for (std::size_t s = 0; s < flush.size(); ++s) uplink_slots_[s] = outcome.client_uplink(s);
  fresh_ids_.clear();
  fresh_uplink_.clear();
  for (std::size_t s = 0; s < flush.size(); ++s) {
    if (!fresh_mask_[s]) continue;
    fresh_ids_.push_back(flush[s]);
    fresh_uplink_.push_back(uplink_slots_[s]);
  }
  ctx.round_timing = network_.round_time(fresh_ids_, fresh_uplink_, outcome.downlink_values);

  // Round-cost payload totals: round *time* maxes over the parallel
  // uplinks, but the money term prices the whole fleet — every flushed
  // upload (buffered ones are charged at the flush that folds them, exactly
  // once), plus the broadcast every ONLINE client receives (non-participants
  // still listen so their weights stay synchronized). Pure-time objectives
  // (the default) are untouched: the payloads only feed the zero-weighted
  // money term.
  double fleet_uplink = 0.0;
  for (std::size_t s = 0; s < flush.size(); ++s) fleet_uplink += uplink_slots_[s];
  const double n_part = static_cast<double>(flush.size());
  const std::size_t online = network_.online_ids().size();
  const double n_online = static_cast<double>(online);
  const double fleet_downlink = n_online * outcome.downlink_values;

  // Realized per-client traffic: flushed clients pay their own uplink
  // payload and the broadcast downlink; online non-participants receive the
  // broadcast too (they stay synchronized) but upload nothing; offline
  // clients exchange nothing. FedAvg's kLocalOnly rounds exchange nothing —
  // they are not server rounds and do not count as participation.
  if (outcome.kind != sparsify::RoundOutcome::Kind::kLocalOnly) {
    for (std::size_t s = 0; s < flush.size(); ++s) {
      clients_[flush[s]]->note_round(uplink_slots_[s], outcome.downlink_values);
    }
    if (outcome.downlink_values > 0.0 && flush.size() < online) {
      // Both lists are sorted ascending and flush ⊆ online, so one merge
      // walk charges every online non-participant — O(online), not O(N).
      std::size_t next = 0;
      for (const std::size_t i : network_.online_ids()) {
        if (next < flush.size() && flush[next] == i) {
          ++next;
          continue;
        }
        clients_[i]->note_broadcast(outcome.downlink_values);
      }
    }
  }

  // (B)–(D) One-sample probe losses over the flush set, averaged by the
  // server (Sec. IV-E). The controller minimizes the round cost (pure time
  // under the paper's defaults).
  online::RoundFeedback& fb = ctx.fb;
  fb.round_time = cfg_.round_cost(ctx.round_timing.time, fleet_uplink, fleet_downlink);
  fb.mean_staleness = ctx.mean_staleness;
  fb.validity = ctx.outcome.validation.valid_fraction;
  fb.trust = ctx.outcome.robust.mean_trust;
  if (!fedavg_style_ && !flush.empty()) {
    probe_prev_.resize(flush.size());
    probe_cur_.resize(flush.size());
    probe_shift_.resize(flush.size());
    pool_.parallel_for(
        flush.size(),
        [&](std::size_t s) {
          Client& c = *clients_[flush[s]];
          probe_prev_[s] = c.probe_loss_prev();
          probe_cur_[s] = c.probe_loss_now(bound_workspace(flush[s]));
        },
        /*grain=*/1);
    if (ctx.want_probe) {
      // Shift the shared store to w'(m) = w(m) + lr·diff once, let every
      // participant read it concurrently, then restore the saved values
      // exactly (adding and subtracting the same float is not reversible).
      const std::span<float> sw{shared_weights_.data(), shared_weights_.size()};
      shift_saved_.resize(ctx.probe_diff.size());
      for (std::size_t i = 0; i < ctx.probe_diff.size(); ++i) {
        const auto idx = static_cast<std::size_t>(ctx.probe_diff[i].index);
        shift_saved_[i] = sw[idx];
        sw[idx] += cfg_.lr * ctx.probe_diff[i].value;
      }
      pool_.parallel_for(
          flush.size(),
          [&](std::size_t s) {
            probe_shift_[s] = clients_[flush[s]]->probe_loss_now(bound_workspace(flush[s]));
          },
          /*grain=*/1);
      for (std::size_t i = 0; i < ctx.probe_diff.size(); ++i) {
        sw[static_cast<std::size_t>(ctx.probe_diff[i].index)] = shift_saved_[i];
      }
    }
    fb.loss_prev = util::mean_of(probe_prev_);
    fb.loss_cur = util::mean_of(probe_cur_);
    if (ctx.want_probe) {
      fb.loss_probe = util::mean_of(probe_shift_);
      fb.probe_available = true;
      // θ_m(k') from the SAME heterogeneous model that produced τ_m, so
      // Algorithms 2/3 compare like with like under stragglers; the money
      // term prices the same fleet totals as τ_m (n uplinks of 2k' values,
      // the 2k'-value broadcast to every online client).
      fb.theta_probe = cfg_.round_cost(network_.theta(ctx.probe_k_cont, flush),
                                       n_part * 2.0 * ctx.probe_k_cont,
                                       n_online * 2.0 * ctx.probe_k_cont);
      const auto est = online::estimate_derivative_sign(fb, ctx.k_cont, ctx.probe_k_cont);
      if (!est.valid) ++res.invalid_probe_rounds;
    }
  }
  time += fb.round_time;
  // An all-offline round exercised no choice of k: feeding its zero/NaN
  // losses to a controller would punish whatever arm or perturbation it
  // happened to be playing (EXP3, continuous bandit) for churn k cannot
  // influence. The round still elapsed in time; k simply carries over.
  if (!flush.empty()) controller_->observe(fb);
}

bool Simulation::stage_record(RoundContext& ctx, SimulationResult& res, double time) {
  const std::vector<std::size_t>& flush = *ctx.flush;

  // Record + periodic evaluation.
  RoundRecord rec;
  rec.round = ctx.m;
  rec.time = time;
  rec.k_continuous = ctx.k_cont;
  rec.k_used = ctx.k_int;
  rec.uplink_values = ctx.outcome.uplink_values;
  rec.downlink_values = ctx.outcome.downlink_values;
  rec.participants = flush.size();
  rec.slowest_client = ctx.round_timing.slowest_client;
  rec.mean_staleness = ctx.mean_staleness;
  rec.max_staleness = ctx.max_staleness;
  rec.buffered_stale = pending_ids_.size();
  rec.dropped = ctx.dropped;
  rec.corrupted = ctx.corrupted;
  rec.byzantine = ctx.byzantine;
  rec.rejected = ctx.outcome.validation.rejected;
  rec.quarantined = ctx.outcome.validation.quarantined;
  rec.degraded = ctx.outcome.validation.degraded;
  rec.suspects = ctx.outcome.robust.suspects;
  rec.trust = ctx.outcome.robust.mean_trust;
  if (flush.empty()) {
    rec.train_loss = std::numeric_limits<double>::quiet_NaN();  // no server round
  } else {
    // weight_storage_ still holds the flush's normalized (and, under async,
    // staleness-discounted) data weights from make_round_input.
    double tl = 0.0;
    for (std::size_t s = 0; s < flush.size(); ++s) tl += weight_storage_[s] * mb_losses_[flush[s]];
    rec.train_loss = tl;
  }
  const bool out_of_time = time >= cfg_.max_time;
  const bool eval_round = (cfg_.eval_every > 0 && ctx.m % cfg_.eval_every == 0) ||
                          ctx.m == cfg_.max_rounds || out_of_time;
  if (eval_round) evaluate(rec);
  res.k_sequence.push_back(ctx.k_cont);
  res.records.push_back(rec);
  res.rounds_run = ctx.m;
  res.total_time = time;

  if (eval_round && !std::isnan(rec.global_loss)) {
    res.final_loss = rec.global_loss;
    res.final_accuracy = rec.accuracy;
    // Fig. 1: switch to a fixed k once the target loss ψ is reached.
    if (!switched_ && cfg_.switch_at_loss > 0.0 && rec.global_loss <= cfg_.switch_at_loss) {
      controller_ = std::make_unique<online::FixedK>(cfg_.switch_to_k);
      switched_ = true;
      util::log_debug() << "round " << ctx.m << ": loss " << rec.global_loss
                        << " reached psi; switching to k=" << cfg_.switch_to_k;
    }
    if (cfg_.target_loss > 0.0 && rec.global_loss <= cfg_.target_loss) {
      res.reached_target = true;
      return true;
    }
  }
  return out_of_time;
}

void Simulation::emit_telemetry(const RoundContext& ctx, const SimulationResult& res,
                                double time) {
  // Function-local statics register each metric once per process; every
  // Simulation publishes into the same registry totals.
  static const util::Gauge g_k_cont("fl.k_continuous");
  static const util::Gauge g_k_used("fl.k_used");
  static const util::Gauge g_online("fl.online_clients");
  static const util::Gauge g_pending("fl.pending_uploads");
  static const util::Gauge g_mean_staleness("fl.mean_staleness");
  static const util::Counter c_rounds("fl.rounds");
  static const util::Counter c_participants("fl.participants");
  static const util::Counter c_uplink("fl.uplink_values");
  static const util::Counter c_downlink("fl.downlink_values");
  static const util::Counter c_dropped("fl.faults.dropped");
  static const util::Counter c_corrupted("fl.faults.corrupted");
  static const util::Counter c_byzantine("fl.faults.byzantine");
  static const util::Counter c_rejected("fl.validation.rejected");
  static const util::Counter c_quarantined("fl.validation.quarantined");
  static const util::Counter c_degraded("fl.validation.degraded_rounds");
  static const util::Counter c_suspects("fl.robust.suspects");
  static const util::Gauge g_trust("fl.robust.mean_trust");
  static const util::Histogram h_staleness("fl.staleness",
                                           {0.0, 1.0, 2.0, 4.0, 8.0, 16.0});

  const RoundRecord& rec = res.records.back();
  const std::size_t online = network_.online_ids().size();
  g_k_cont.set(rec.k_continuous);
  g_k_used.set(static_cast<double>(rec.k_used));
  g_online.set(static_cast<double>(online));
  g_pending.set(static_cast<double>(pending_ids_.size()));
  g_mean_staleness.set(rec.mean_staleness);
  c_rounds.add(1);
  c_participants.add(rec.participants);
  c_uplink.add(static_cast<std::uint64_t>(std::llround(
      std::max(0.0, rec.uplink_values * static_cast<double>(rec.participants)))));
  c_downlink.add(static_cast<std::uint64_t>(std::llround(std::max(0.0, rec.downlink_values))));
  if (rec.dropped > 0) c_dropped.add(rec.dropped);
  if (rec.corrupted > 0) c_corrupted.add(rec.corrupted);
  if (rec.byzantine > 0) c_byzantine.add(rec.byzantine);
  if (rec.rejected > 0) c_rejected.add(rec.rejected);
  if (rec.quarantined > 0) c_quarantined.add(rec.quarantined);
  if (rec.degraded) c_degraded.add(1);
  if (rec.suspects > 0) c_suspects.add(rec.suspects);
  g_trust.set(rec.trust);
  for (const FaultEvent& e : fault_events_) publish_fault_event(e.kind);
  for (const std::size_t st : ctx.staleness) h_staleness.observe(static_cast<double>(st));

  span_scratch_.clear();
  util::SpanSink::instance().drain(span_scratch_);
  if (trace_writer_ != nullptr) {
    trace_writer_->write_round(ctx.m, {span_scratch_.data(), span_scratch_.size()},
                               timeline_.events());
  }
  if (jsonl_writer_ != nullptr) {
    MetricsJsonlWriter::Row row;
    row.round = rec.round;
    row.time = time;
    row.k_continuous = rec.k_continuous;
    row.k_used = rec.k_used;
    row.train_loss = rec.train_loss;
    row.global_loss = rec.global_loss;
    row.uplink_values = rec.uplink_values;
    row.uplink_bytes = values_to_bytes(rec.uplink_values);
    row.downlink_values = rec.downlink_values;
    row.downlink_bytes = values_to_bytes(rec.downlink_values);
    row.participants = rec.participants;
    row.online = online;
    row.mean_staleness = rec.mean_staleness;
    row.max_staleness = rec.max_staleness;
    row.dropped = rec.dropped;
    row.corrupted = rec.corrupted;
    row.byzantine = rec.byzantine;
    row.rejected = rec.rejected;
    row.quarantined = rec.quarantined;
    row.degraded = rec.degraded;
    row.suspects = rec.suspects;
    row.trust = rec.trust;
    jsonl_writer_->write_round(row, {span_scratch_.data(), span_scratch_.size()},
                               util::MetricRegistry::instance().scrape());
  }
}

SimulationResult Simulation::run() {
  const std::size_t n = clients_.size();
  SimulationResult res;
  res.contributed_totals.assign(n, 0);

  mb_losses_.assign(n, 0.0);
  double time = 0.0;

  const bool telemetry = cfg_.telemetry.enabled;
  telemetry_prev_ = util::telemetry_enabled();
  if (telemetry) {
    util::set_telemetry_enabled(true);
    // Spans left over from a previous (undrained) run would otherwise leak
    // into this run's first round.
    util::SpanSink::instance().discard();
    if (!cfg_.telemetry.chrome_trace_path.empty()) {
      trace_writer_ = std::make_unique<ChromeTraceWriter>();
      if (!trace_writer_->open(cfg_.telemetry.chrome_trace_path)) trace_writer_.reset();
    }
    if (!cfg_.telemetry.metrics_jsonl_path.empty()) {
      jsonl_writer_ = std::make_unique<MetricsJsonlWriter>();
      if (!jsonl_writer_->open(cfg_.telemetry.metrics_jsonl_path)) jsonl_writer_.reset();
    }
  }

  for (std::size_t m = 1; m <= cfg_.max_rounds; ++m) {
    RoundContext ctx;
    ctx.m = m;
    bool stop = false;
    {
      FEDSPARSE_SPAN("stage_begin");
      stage_begin(ctx);
    }
    {
      FEDSPARSE_SPAN("stage_schedule");
      stage_schedule(ctx);
    }
    {
      FEDSPARSE_SPAN("stage_compute");
      stage_compute(ctx);
    }
    {
      FEDSPARSE_SPAN("stage_server_round");
      stage_server_round(ctx);
    }
    {
      FEDSPARSE_SPAN("stage_probe");
      stage_probe(ctx);
    }
    {
      FEDSPARSE_SPAN("stage_apply");
      stage_apply(ctx, res);
    }
    {
      FEDSPARSE_SPAN("stage_account");
      stage_account(ctx, res, time);
    }
    {
      FEDSPARSE_SPAN("stage_record");
      stop = stage_record(ctx, res, time);
    }
    if (telemetry) emit_telemetry(ctx, res, time);
    if (stop) break;
  }

  if (telemetry) {
    if (trace_writer_ != nullptr) trace_writer_->close();
    if (jsonl_writer_ != nullptr) jsonl_writer_->close();
    trace_writer_.reset();
    jsonl_writer_.reset();
    util::set_telemetry_enabled(telemetry_prev_);
  }

  // Guarantee final metrics even if the last round was not an eval round.
  if (std::isnan(res.final_loss) && !res.records.empty()) {
    RoundRecord& last = res.records.back();
    if (std::isnan(last.global_loss)) evaluate(last);
    res.final_loss = last.global_loss;
    res.final_accuracy = last.accuracy;
  }

  // Realized per-client traffic and participation (fl/metrics columns).
  res.client_uplink_values.resize(n);
  res.client_downlink_values.resize(n);
  res.client_rounds_participated.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    res.client_uplink_values[i] = clients_[i]->uplink_values_total();
    res.client_downlink_values[i] = clients_[i]->downlink_values_total();
    res.client_rounds_participated[i] = clients_[i]->rounds_participated();
  }
  return res;
}

void apply_scenario(const Scenario& s, SimulationConfig& cfg) {
  cfg.network = s.network;
  if (s.money_per_value != 0.0) cfg.money_per_value = s.money_per_value;
  cfg.faults = s.faults;
  // A faulty scenario without the screen would feed corrupted payloads
  // straight into the aggregation arena; turn the defense on with it.
  if (!s.faults.trivial()) cfg.validation.enabled = true;
  // Scenarios that ship a robust-aggregation config carry it through; a
  // disabled (trivial) scenario config leaves whatever the caller set.
  if (s.robust.enabled) cfg.robust = s.robust;
}

std::vector<std::pair<double, double>> SimulationResult::loss_curve() const {
  std::vector<std::pair<double, double>> out;
  for (const auto& r : records) {
    if (!std::isnan(r.global_loss)) out.emplace_back(r.time, r.global_loss);
  }
  return out;
}

double SimulationResult::tail_k_mean() const {
  if (k_sequence.empty()) return 0.0;
  double sum = 0.0;
  const std::size_t begin = k_sequence.size() / 2;
  for (std::size_t i = begin; i < k_sequence.size(); ++i) sum += k_sequence[i];
  return sum / static_cast<double>(k_sequence.size() - begin);
}

std::pair<std::int64_t, std::size_t> SimulationResult::modal_straggler() const {
  std::map<std::int64_t, std::size_t> counts;
  for (const auto& r : records) {
    if (r.slowest_client >= 0) ++counts[r.slowest_client];
  }
  std::pair<std::int64_t, std::size_t> modal{-1, 0};
  for (const auto& [client, rounds] : counts) {
    if (rounds > modal.second) modal = {client, rounds};
  }
  return modal;
}

std::vector<std::pair<double, double>> SimulationResult::accuracy_curve() const {
  std::vector<std::pair<double, double>> out;
  for (const auto& r : records) {
    if (!std::isnan(r.accuracy)) out.emplace_back(r.time, r.accuracy);
  }
  return out;
}

}  // namespace fedsparse::fl
