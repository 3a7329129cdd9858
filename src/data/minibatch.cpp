#include "data/minibatch.h"

#include <cstring>
#include <stdexcept>

namespace fedsparse::data {

namespace {
// Fills out.x / out.y from the rows named by out.indices.
void copy_rows(const Dataset& ds, Minibatch& out) {
  out.x.reshape(out.indices.size(), ds.x.cols());  // rows fully memcpy'd below
  out.y.resize(out.indices.size());
  for (std::size_t i = 0; i < out.indices.size(); ++i) {
    std::memcpy(out.x.row(i), ds.x.row(out.indices[i]), ds.x.cols() * sizeof(float));
    out.y[i] = ds.y[out.indices[i]];
  }
}
}  // namespace

void sample_minibatch(const Dataset& ds, std::size_t batch, util::Rng& rng, Minibatch& out) {
  if (ds.empty()) throw std::invalid_argument("sample_minibatch: empty dataset");
  if (ds.size() <= batch) {
    out.indices.resize(ds.size());
    for (std::size_t i = 0; i < ds.size(); ++i) out.indices[i] = i;
  } else {
    out.indices.resize(batch);
    for (auto& idx : out.indices) idx = rng.uniform_u64(ds.size());
  }
  copy_rows(ds, out);
}

void gather(const Dataset& ds, std::span<const std::size_t> indices, Minibatch& out) {
  out.indices.assign(indices.begin(), indices.end());
  copy_rows(ds, out);
}

}  // namespace fedsparse::data
