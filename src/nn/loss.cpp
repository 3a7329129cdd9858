#include "nn/loss.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace fedsparse::nn {

namespace {
// log(sum exp(row - max)) + max, returning also softmax into `out` if non-null.
// `exps` (n doubles) keeps each exp for the softmax pass, so a softmax row
// costs one exp per logit; the loss-only path passes nullptr for both.
double row_log_sum_exp(const float* row, std::size_t n, float* softmax_out, double* exps) {
  float mx = row[0];
  for (std::size_t i = 1; i < n; ++i) mx = std::max(mx, row[i]);
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double e = std::exp(static_cast<double>(row[i]) - mx);
    if (exps != nullptr) exps[i] = e;
    sum += e;
  }
  if (softmax_out != nullptr) {
    for (std::size_t i = 0; i < n; ++i) softmax_out[i] = static_cast<float>(exps[i] / sum);
  }
  return std::log(sum) + mx;
}

// Per-thread exp scratch for the softmax paths, grown to the class count.
double* exp_scratch(std::size_t n) {
  thread_local std::vector<double> scratch;
  if (scratch.size() < n) scratch.resize(n);
  return scratch.data();
}
}  // namespace

double SoftmaxCrossEntropy::loss_and_grad(const Matrix& logits, std::span<const int> labels,
                                          Matrix& dlogits) {
  const std::size_t batch = logits.rows(), classes = logits.cols();
  if (labels.size() != batch) throw std::invalid_argument("loss_and_grad: label count mismatch");
  // reshape, not resize: row_log_sum_exp writes the full softmax row before
  // the in-place (softmax - onehot)/batch conversion, so no zero-fill needed.
  dlogits.reshape(batch, classes);
  double total = 0.0;
  const float inv_batch = 1.0f / static_cast<float>(batch);
  double* exps = exp_scratch(classes);
  for (std::size_t r = 0; r < batch; ++r) {
    const int label = labels[r];
    if (label < 0 || static_cast<std::size_t>(label) >= classes) {
      throw std::invalid_argument("loss_and_grad: label out of range");
    }
    float* drow = dlogits.row(r);
    const double lse = row_log_sum_exp(logits.row(r), classes, drow, exps);
    total += lse - logits.at(r, static_cast<std::size_t>(label));
    // drow currently holds softmax; convert to (softmax - onehot)/batch.
    drow[label] -= 1.0f;
    for (std::size_t c = 0; c < classes; ++c) drow[c] *= inv_batch;
  }
  return total / static_cast<double>(batch);
}

double SoftmaxCrossEntropy::loss_only(const Matrix& logits, std::span<const int> labels) {
  const std::size_t batch = logits.rows(), classes = logits.cols();
  if (labels.size() != batch) throw std::invalid_argument("loss_only: label count mismatch");
  double total = 0.0;
  for (std::size_t r = 0; r < batch; ++r) {
    const int label = labels[r];
    if (label < 0 || static_cast<std::size_t>(label) >= classes) {
      throw std::invalid_argument("loss_only: label out of range");
    }
    const double lse = row_log_sum_exp(logits.row(r), classes, nullptr, nullptr);
    total += lse - logits.at(r, static_cast<std::size_t>(label));
  }
  return total / static_cast<double>(batch);
}

void SoftmaxCrossEntropy::softmax_rows(Matrix& m) {
  double* exps = exp_scratch(m.cols());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    row_log_sum_exp(m.row(r), m.cols(), m.row(r), exps);
  }
}

}  // namespace fedsparse::nn
