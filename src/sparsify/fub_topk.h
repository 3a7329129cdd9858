// FUB-top-k: fairness-unaware bidirectional top-k (baseline, refs [28],[31]).
//
// Identical uplink to FAB-top-k, but the server simply keeps the k
// largest-|aggregate| indices among everything uploaded — no per-client
// guarantee, so clients whose gradients are small can be excluded entirely
// (the bias FAB-top-k exists to prevent; see Fig. 4 right).
//
// Shared stages live in RoundPipeline; this class owns only the FUB-specific
// middle: top-k over the aggregated union.
#pragma once

#include "sparsify/method.h"
#include "sparsify/round_pipeline.h"

namespace fedsparse::sparsify {

class FubTopK final : public Method {
 public:
  explicit FubTopK(std::size_t dim);

  std::string name() const override { return "fub_topk"; }
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
