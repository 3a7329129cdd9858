// The paper's Algorithm 1 server step (Section III-B) as a direct,
// unoptimized transcription: the oracle tests/invariants_test.cpp and
// tests/sparsify_test.cpp check sparsify::FabTopK against. It lives apart
// from reference_kernels.h, which bench/emit_json.cpp compiles into its
// speedup baselines.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "reference_kernels.h"
#include "sparsify/sparse_vector.h"

namespace fedsparse::reference {

/// What the paper's Algorithm 1 server step decides: κ, the downlink update
/// and each client's reset set.
struct FabTopKResult {
  std::size_t kappa = 0;
  std::map<std::int32_t, double> downlink;    // j -> b_j
  std::vector<std::set<std::int32_t>> reset;  // per client J ∩ J_i
};

/// A direct, unoptimized transcription of Section III-B from the client
/// uploads (strongest first, any length): a linear κ scan over std::set
/// unions, the fill from the (κ+1)-th layer, std::map aggregation in double.
/// The oracle for sparsify::FabTopK.
inline FabTopKResult fab_topk_from_uploads(const std::vector<sparsify::SparseVector>& uploads,
                                           const std::vector<double>& weights, std::size_t k) {
  const std::size_t n = uploads.size();
  const auto union_at = [&](std::size_t kappa) {
    std::set<std::int32_t> u;
    for (const auto& up : uploads) {
      for (std::size_t j = 0; j < std::min(kappa, up.size()); ++j) u.insert(up[j].index);
    }
    return u;
  };
  FabTopKResult out;
  for (std::size_t c = 1; c <= k && union_at(c).size() <= k; ++c) out.kappa = c;
  std::set<std::int32_t> selected = union_at(out.kappa);

  // Fill with the strongest elements of (∪J^{κ+1}) \ (∪J^κ).
  std::vector<sparsify::SparseEntry> candidates;
  for (const auto& up : uploads) {
    if (up.size() > out.kappa && !selected.count(up[out.kappa].index)) {
      candidates.push_back(up[out.kappa]);
    }
  }
  std::stable_sort(candidates.begin(), candidates.end(), [](const auto& x, const auto& y) {
    const float ax = std::fabs(x.value), ay = std::fabs(y.value);
    if (ax != ay) return ax > ay;
    return x.index < y.index;
  });
  for (const auto& e : candidates) {
    if (selected.size() >= k) break;
    selected.insert(e.index);
  }

  // Aggregate b_j = Σ_i w_i a_ij 1[j ∈ J_i]; record resets.
  out.reset.resize(n);
  for (const std::int32_t j : selected) out.downlink[j] = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (const auto& e : uploads[i]) {
      if (selected.count(e.index)) {
        out.downlink[e.index] += weights[i] * static_cast<double>(e.value);
        out.reset[i].insert(e.index);
      }
    }
  }
  return out;
}

/// Algorithm 1 from the clients' accumulated gradients: each uploads its
/// top-k (|value| desc, ties by ascending index).
inline FabTopKResult fab_topk(const std::vector<std::vector<float>>& a,
                              const std::vector<double>& weights, std::size_t k) {
  std::vector<sparsify::SparseVector> uploads;
  for (const auto& v : a) uploads.push_back(top_k_entries_heap({v.data(), v.size()}, k));
  return fab_topk_from_uploads(uploads, weights, k);
}

}  // namespace fedsparse::reference
