// Dense row-major float matrix — the numeric workhorse under the nn substrate.
//
// Deliberately minimal: the neural-network layers only need GEMM (with
// transpose variants), elementwise ops and flat-vector BLAS-1 helpers. All
// storage is contiguous std::vector<float>, so a Matrix doubles as a flat
// parameter/gradient buffer view. MatrixView / ConstMatrixView give the same
// row-major shape over external storage (layer weight/grad spans, one sample's
// row of a batch) so GEMM runs on them without copies.
#pragma once

#include <cstddef>
#include <span>
#include <stdexcept>
#include <vector>

namespace fedsparse::util {
class ThreadPool;
}

namespace fedsparse::tensor {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, float fill = 0.0f)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}
  Matrix(std::size_t rows, std::size_t cols, std::vector<float> data);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  std::size_t size() const noexcept { return data_.size(); }
  bool empty() const noexcept { return data_.empty(); }

  float& at(std::size_t r, std::size_t c) noexcept { return data_[r * cols_ + c]; }
  float at(std::size_t r, std::size_t c) const noexcept { return data_[r * cols_ + c]; }

  float* data() noexcept { return data_.data(); }
  const float* data() const noexcept { return data_.data(); }
  float* row(std::size_t r) noexcept { return data_.data() + r * cols_; }
  const float* row(std::size_t r) const noexcept { return data_.data() + r * cols_; }

  std::span<float> flat() noexcept { return {data_.data(), data_.size()}; }
  std::span<const float> flat() const noexcept { return {data_.data(), data_.size()}; }

  void fill(float v) noexcept;
  /// Resizes and zero-fills (allocation-free when capacity suffices).
  void resize(std::size_t rows, std::size_t cols);
  /// Resizes WITHOUT re-zeroing surviving elements: grown-into elements are
  /// zero, everything else keeps its (stale) value. For scratch buffers whose
  /// every element is overwritten anyway (im2col columns) — skips resize()'s
  /// full O(rows*cols) clear and never shrinks capacity, so steady-state
  /// reuse performs no allocation at all.
  void reshape(std::size_t rows, std::size_t cols);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> data_;
};

/// Non-owning mutable row-major view over `rows * cols` floats. The layers
/// wrap their flat weight/grad spans in these so GEMM consumes them directly —
/// no copy into a Matrix. A view never owns or frees; the storage must outlive
/// it.
class MatrixView {
 public:
  MatrixView() = default;
  MatrixView(float* data, std::size_t rows, std::size_t cols) noexcept
      : data_(data), rows_(rows), cols_(cols) {}
  MatrixView(Matrix& m) noexcept  // NOLINT(google-explicit-constructor)
      : data_(m.data()), rows_(m.rows()), cols_(m.cols()) {}
  /// Validated: throws std::invalid_argument unless s.size() == rows * cols.
  MatrixView(std::span<float> s, std::size_t rows, std::size_t cols)
      : data_(s.data()), rows_(rows), cols_(cols) {
    if (s.size() != rows * cols) {
      throw std::invalid_argument("MatrixView: span size does not match rows*cols");
    }
  }

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  float* data() const noexcept { return data_; }
  float* row(std::size_t r) const noexcept { return data_ + r * cols_; }
  float& at(std::size_t r, std::size_t c) const noexcept { return data_[r * cols_ + c]; }
  std::span<float> flat() const noexcept { return {data_, rows_ * cols_}; }

 private:
  float* data_ = nullptr;
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
};

/// Read-only counterpart of MatrixView.
class ConstMatrixView {
 public:
  ConstMatrixView() = default;
  ConstMatrixView(const float* data, std::size_t rows, std::size_t cols) noexcept
      : data_(data), rows_(rows), cols_(cols) {}
  ConstMatrixView(const Matrix& m) noexcept  // NOLINT(google-explicit-constructor)
      : data_(m.data()), rows_(m.rows()), cols_(m.cols()) {}
  ConstMatrixView(MatrixView v) noexcept  // NOLINT(google-explicit-constructor)
      : data_(v.data()), rows_(v.rows()), cols_(v.cols()) {}
  /// Validated: throws std::invalid_argument unless s.size() == rows * cols.
  ConstMatrixView(std::span<const float> s, std::size_t rows, std::size_t cols)
      : data_(s.data()), rows_(rows), cols_(cols) {
    if (s.size() != rows * cols) {
      throw std::invalid_argument("ConstMatrixView: span size does not match rows*cols");
    }
  }

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  const float* data() const noexcept { return data_; }
  const float* row(std::size_t r) const noexcept { return data_ + r * cols_; }
  float at(std::size_t r, std::size_t c) const noexcept { return data_[r * cols_ + c]; }

 private:
  const float* data_ = nullptr;
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
};

/// GEMM: C = alpha * op(A) * op(B) + beta * C, with op = identity or
/// transpose controlled by `trans_a` / `trans_b`. Dimensions are validated
/// (throws std::invalid_argument on mismatch). nn, nt and tn products run the
/// register-tiled kernels below; tt (rare, no hot-path caller) stays a plain
/// loop.
void gemm(const Matrix& a, bool trans_a, const Matrix& b, bool trans_b, float alpha, float beta,
          Matrix& c);

// --- view entry points (the layer hot path) --------------------------------
//
// All three accumulate: C += alpha * op(A) * op(B). C must already have the
// product shape (throws std::invalid_argument otherwise) and must not alias A
// or B. Each is cache-blocked (mc/kc/nc tiles) with a register micro-kernel;
// when a pool is registered via set_parallel_pool, large products split their
// M loop across it with whole-row ownership, so threaded results are
// bitwise-identical to the serial order.

/// C (m x n) += alpha * A (m x k) * B (k x n). 4x16 register tile: four C rows
/// are accumulated in registers across each kc sweep and written back once.
void gemm_nn(ConstMatrixView a, ConstMatrixView b, float alpha, MatrixView c);

/// C (m x n) += alpha * A (m x k) * Bᵀ (B is n x k) — rows-dot-rows, the shape
/// of Linear::forward (x · Wᵀ) and conv dW (dy · colsᵀ). With enough A rows
/// the kernel packs Bᵀ once (blocked transpose into thread-local scratch) and
/// reuses the 4x16 nn micro-kernel, which roughly doubles the achieved FLOP
/// rate; small-m products (single-sample probe forwards) keep the original
/// dot kernels, each dot striped across 8 independent partial sums (fixed
/// recombination order, so results are deterministic) which the compiler
/// lifts to SIMD.
void gemm_nt(ConstMatrixView a, ConstMatrixView b, float alpha, MatrixView c);

/// C (m x n) += alpha * Aᵀ (A is k x m) * B (k x n) — the shape of Linear
/// dW (dyᵀ · x) and conv dcols (Wᵀ · dy). Same 4x16 micro-kernel as gemm_nn
/// with the A operand addressed column-wise (contiguous per k step).
void gemm_tn(ConstMatrixView a, ConstMatrixView b, float alpha, MatrixView c);

/// Registers a thread pool for GEMM M-loop threading (nullptr = serial, the
/// default). The pool must outlive all subsequent gemm calls.
void set_parallel_pool(util::ThreadPool* pool) noexcept;
util::ThreadPool* parallel_pool() noexcept;

// --- BLAS-1 style helpers on flat spans ------------------------------------

/// y += alpha * x
void axpy(float alpha, std::span<const float> x, std::span<float> y);
/// x *= alpha
void scale(float alpha, std::span<float> x);
/// dot(x, y)
double dot(std::span<const float> x, std::span<const float> y);
/// sqrt(sum x_i^2)
double norm2(std::span<const float> x);
/// sets all elements to zero
void zero(std::span<float> x);

}  // namespace fedsparse::tensor
