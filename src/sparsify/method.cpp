#include "sparsify/method.h"

#include <cmath>
#include <stdexcept>

#include "sparsify/accumulator.h"
#include "sparsify/fab_topk.h"
#include "sparsify/fedavg.h"
#include "sparsify/fub_topk.h"
#include "sparsify/periodic_k.h"
#include "sparsify/send_all.h"
#include "sparsify/unidirectional_topk.h"

namespace fedsparse::sparsify {

std::span<const std::int32_t> RoundOutcome::reset_for(std::size_t s) const {
  switch (reset_kind) {
    case ResetKind::kNone:
      return {};
    case ResetKind::kUniform:
      return {uniform_reset.data(), uniform_reset.size()};
    case ResetKind::kPerClient: {
      if (s + 1 >= reset_offsets.size()) {
        throw std::out_of_range("RoundOutcome::reset_for: client slot out of range");
      }
      const std::size_t begin = reset_offsets[s], end = reset_offsets[s + 1];
      return {reset_indices.data() + begin, end - begin};
    }
    case ResetKind::kAll:
      break;
  }
  throw std::logic_error("RoundOutcome::reset_for: kAll has no index list");
}

void validate_round_input(const RoundInput& in) {
  if (in.dim == 0) throw std::invalid_argument("RoundInput: dim == 0");
  if (in.client_vectors.empty()) throw std::invalid_argument("RoundInput: no clients");
  if (in.data_weights.size() != in.client_vectors.size()) {
    throw std::invalid_argument("RoundInput: data_weights size mismatch");
  }
  if (!in.client_ids.empty() && in.client_ids.size() != in.client_vectors.size()) {
    throw std::invalid_argument("RoundInput: client_ids size mismatch");
  }
  if (!in.client_chunk_max.empty()) {
    if (in.client_chunk_max.size() != in.client_vectors.size()) {
      throw std::invalid_argument("RoundInput: client_chunk_max size mismatch");
    }
    const std::size_t chunks = accumulator_chunks(in.dim);
    for (const auto& s : in.client_chunk_max) {
      if (!s.empty() && s.size() != chunks) {
        throw std::invalid_argument("RoundInput: chunk summary does not cover dim");
      }
    }
  }
  double total = 0.0;
  for (std::size_t i = 0; i < in.client_vectors.size(); ++i) {
    if (in.client_vectors[i].size() != in.dim) {
      throw std::invalid_argument("RoundInput: client vector dimension mismatch");
    }
    if (in.data_weights[i] < 0.0) {
      throw std::invalid_argument("RoundInput: negative data weight");
    }
    total += in.data_weights[i];
  }
  if (std::fabs(total - 1.0) > 1e-6) {
    throw std::invalid_argument("RoundInput: data weights must sum to 1");
  }
}

std::unique_ptr<Method> make_method(const std::string& name, std::size_t dim,
                                    std::uint64_t seed) {
  if (name == "fab_topk") return std::make_unique<FabTopK>(dim);
  if (name == "fub_topk") return std::make_unique<FubTopK>(dim);
  if (name == "unidirectional_topk") return std::make_unique<UnidirectionalTopK>(dim);
  if (name == "periodic") return std::make_unique<PeriodicK>(dim, seed);
  if (name == "send_all") return std::make_unique<SendAll>(dim);
  if (name == "fedavg") return std::make_unique<FedAvg>(dim);
  throw std::invalid_argument(
      "make_method: unknown method '" + name +
      "' (expected fab_topk|fub_topk|unidirectional_topk|periodic|send_all|fedavg)");
}

}  // namespace fedsparse::sparsify
