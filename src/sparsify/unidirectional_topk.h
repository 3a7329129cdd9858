// Unidirectional top-k GS (baseline, ref [22] — Deep Gradient Compression).
//
// Clients upload their top-k; the server aggregates and broadcasts the whole
// union, which can be as large as k·N elements — the downlink blow-up that
// motivates bidirectional schemes.
//
// Shared stages live in RoundPipeline; nothing here is selective, so the
// method-specific middle is trivial (broadcast the whole aggregated union).
#pragma once

#include "sparsify/method.h"
#include "sparsify/round_pipeline.h"

namespace fedsparse::sparsify {

class UnidirectionalTopK final : public Method {
 public:
  explicit UnidirectionalTopK(std::size_t dim);

  std::string name() const override { return "unidirectional_topk"; }
  RoundOutcome round(const RoundInput& in, std::size_t k) override;
  /// round(in, k) without committing the selection hints it would update.
  RoundOutcome probe_round(const RoundInput& in, std::size_t k) override {
    return pipe_.keeping_hints([&] { return round(in, k); });
  }

  /// See Method::set_sharding — byte-identical at every shard count.
  void set_sharding(std::size_t shards) override { pipe_.set_sharding(shards); }
  void set_validation(const ValidationConfig& cfg) override { pipe_.set_validation(cfg); }
  void set_robust(const RobustConfig& cfg) override { pipe_.set_robust(cfg); }

  float upload_threshold_hint(std::size_t client_id, std::size_t k) const override {
    return pipe_.threshold_hint(client_id, k);
  }

 private:
  RoundPipeline pipe_;
};

}  // namespace fedsparse::sparsify
