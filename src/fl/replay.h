// Deterministic record/replay for server rounds.
//
// Every fault report at fleet scale starts as "round 41283 diverged"; this
// harness turns it into a reproducible test case. RoundRecorder snapshots, at
// each flush, exactly what the method consumed — the slot-aligned client
// accumulator vectors (CSR over nonzeros), the staleness-folded data weights,
// the client ids, k, plus the round's EventTimeline and injected fault
// events — and a digest of what the method produced. replay() then re-drives
// sparsify::Method::round from the log alone, under any engine configuration
// (the log is engine-agnostic: sync vs buffered-async, shards 1 vs 8,
// tiered vs dense all reduce to the same RoundInput → RoundOutcome mapping),
// and checks the outcome digests byte-for-byte.
//
// What makes this sound:
//   * the recorded weights are post-staleness-fold, so the async engine's
//     discounting is baked into the log — replay needs no engine;
//   * payload corruption is NOT baked in: the tamper hook is pure in
//     (seed, round, client), so replay reconstructs the FaultModel from the
//     logged config and re-injects identical corruption;
//   * chunk summaries are omitted — selection is pinned byte-identical
//     with and without them, so dense replay matches;
//   * the digest covers the update payload, the reset lists, and the
//     contributed counts: everything the engine folds back into state.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "fl/event_timeline.h"
#include "fl/faults.h"
#include "sparsify/method.h"

namespace fedsparse::fl {

/// One recorded flush: the full method input plus the outcome digest.
struct ReplayRound {
  std::uint32_t round = 0;
  std::uint32_t k = 0;
  std::vector<std::uint32_t> client_ids;
  std::vector<double> data_weights;  // staleness-folded, as the method saw them
  // CSR over slots: slot s's accumulator nonzeros are
  // (vec_indices, vec_values)[vec_offsets[s] .. vec_offsets[s+1]).
  std::vector<std::uint64_t> vec_offsets;
  std::vector<std::int32_t> vec_indices;
  std::vector<float> vec_values;
  std::vector<FaultEvent> faults;
  std::vector<Event> timeline;
  std::uint64_t digest = 0;
};

struct ReplayLog {
  std::uint64_t dim = 0;
  std::uint64_t fleet = 0;  // number of clients: every client id is below it
  std::uint64_t seed = 0;   // simulation seed (reconstructs the FaultModel)
  std::string method;
  FaultConfig fault_config;  // includes AdversaryConfig (Byzantine cohorts)
  sparsify::ValidationConfig validation;
  sparsify::RobustConfig robust;
  std::vector<ReplayRound> rounds;

  /// Compact binary round-trip (magic + version header; throws on mismatch).
  /// load() treats the file as untrusted: it throws std::runtime_error on a
  /// truncated file, a length prefix larger than the bytes left, dim outside
  /// [1, 2^31], fleet outside [1, 2^32], or a round whose client ids are not
  /// strictly increasing and below fleet (the recorder writes each flush set
  /// in ascending id order, and the selection sizes its per-client state by
  /// the largest id) or whose CSR is inconsistent (data_weights/client_ids
  /// sizes differ, vec_offsets not n+1 nondecreasing entries from 0 to the
  /// size of vec_indices and vec_values, an index outside [0, dim)).
  void save(const std::string& path) const;
  static ReplayLog load(const std::string& path);
};

/// FNV-1a digest over everything a round outcome folds back into state:
/// update entries (or dense payload), reset encoding, contributed counts.
std::uint64_t outcome_digest(const sparsify::RoundOutcome& out);

/// Records rounds as the simulation runs them (Simulation::set_recorder).
class RoundRecorder {
 public:
  RoundRecorder(std::size_t dim, std::size_t fleet, std::string method, std::uint64_t seed,
                const FaultConfig& faults, const sparsify::ValidationConfig& validation,
                const sparsify::RobustConfig& robust = {});

  void record(const sparsify::RoundInput& in, std::size_t k, std::span<const FaultEvent> faults,
              std::span<const Event> timeline, const sparsify::RoundOutcome& out);

  const ReplayLog& log() const noexcept { return log_; }
  ReplayLog take() noexcept { return std::move(log_); }

 private:
  ReplayLog log_;
};

struct ReplayResult {
  std::size_t rounds = 0;
  std::size_t mismatches = 0;  // rounds whose outcome digest diverged
  std::vector<std::uint64_t> digests;
};

/// The most floats replay() rebuilds for one round's dense client vectors
/// (n · dim, 1 GiB): a larger round is refused before anything is allocated.
inline constexpr std::uint64_t kReplayMaxDenseFloats = std::uint64_t{1} << 28;

/// Re-drives every recorded round through a fresh method instance at the
/// given shard count and compares outcome digests against the log. Runs the
/// same structural checks as ReplayLog::load first, and refuses a round
/// whose max(n, 1) · dim floats exceed kReplayMaxDenseFloats — the method's
/// own dim-sized arenas count as one vector (std::runtime_error).
ReplayResult replay(const ReplayLog& log, std::size_t shards);

}  // namespace fedsparse::fl
