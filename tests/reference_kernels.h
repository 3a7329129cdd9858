// Reference kernels: the straightforward implementations the library's fast
// kernels are checked against (tests/tensor_test.cpp, tests/sparsify_test.cpp)
// and timed against (bench/emit_json.cpp's speedup baselines). They live
// beside the tests, not in the library, because nothing in a run calls them.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sparsify/sparse_vector.h"
#include "tensor/matrix.h"

namespace fedsparse::reference {

/// C += alpha * A * B as an unblocked triple loop.
inline void gemm_nn(const tensor::Matrix& a, const tensor::Matrix& b, float alpha,
                    tensor::Matrix& c) {
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  for (std::size_t mi = 0; mi < m; ++mi) {
    const float* arow = a.row(mi);
    float* crow = c.row(mi);
    for (std::size_t ki = 0; ki < k; ++ki) {
      const float aik = alpha * arow[ki];
      if (aik == 0.0f) continue;
      const float* brow = b.row(ki);
      for (std::size_t ni = 0; ni < n; ++ni) crow[ni] += aik * brow[ni];
    }
  }
}

/// Top-k by magnitude with a bounded min-heap, O(D log k). Same order as
/// sparsify::top_k_entries: |value| descending, ties by ascending index.
inline sparsify::SparseVector top_k_entries_heap(std::span<const float> v, std::size_t k) {
  struct HeapItem {
    float abs_value;
    std::int32_t index;
  };
  // Min-heap ordering on (abs_value asc, index desc) so the weakest element —
  // the one a stronger candidate should evict — sits at the top.
  const auto stronger = [](const HeapItem& a, const HeapItem& b) {
    if (a.abs_value != b.abs_value) return a.abs_value > b.abs_value;
    return a.index < b.index;
  };
  k = std::min(k, v.size());
  std::vector<HeapItem> heap;
  sparsify::SparseVector out;
  if (k == 0) return out;
  heap.reserve(k);
  for (std::size_t i = 0; i < v.size(); ++i) {
    const HeapItem item{std::fabs(v[i]), static_cast<std::int32_t>(i)};
    if (heap.size() < k) {
      heap.push_back(item);
      std::push_heap(heap.begin(), heap.end(), stronger);
    } else if (stronger(item, heap.front())) {
      std::pop_heap(heap.begin(), heap.end(), stronger);
      heap.back() = item;
      std::push_heap(heap.begin(), heap.end(), stronger);
    }
  }
  std::sort(heap.begin(), heap.end(), stronger);
  out.resize(heap.size());
  for (std::size_t i = 0; i < heap.size(); ++i) {
    out[i] = sparsify::SparseEntry{heap[i].index, v[static_cast<std::size_t>(heap[i].index)]};
  }
  return out;
}

}  // namespace fedsparse::reference
