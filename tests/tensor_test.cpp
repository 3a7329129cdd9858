// Unit tests for the tensor substrate: Matrix, GEMM variants, im2col/col2im.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "reference_kernels.h"
#include "tensor/im2col.h"
#include "tensor/matrix.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace fedsparse::tensor {
namespace {

Matrix random_matrix(std::size_t r, std::size_t c, util::Rng& rng) {
  Matrix m(r, c);
  for (auto& v : m.flat()) v = static_cast<float>(rng.normal());
  return m;
}

// Reference GEMM: direct triple loop on logical (possibly transposed) views.
Matrix naive_gemm(const Matrix& a, bool ta, const Matrix& b, bool tb, float alpha) {
  const std::size_t m = ta ? a.cols() : a.rows();
  const std::size_t k = ta ? a.rows() : a.cols();
  const std::size_t n = tb ? b.rows() : b.cols();
  Matrix c(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t p = 0; p < k; ++p) {
        const float av = ta ? a.at(p, i) : a.at(i, p);
        const float bv = tb ? b.at(j, p) : b.at(p, j);
        acc += static_cast<double>(av) * bv;
      }
      c.at(i, j) = alpha * static_cast<float>(acc);
    }
  }
  return c;
}

void expect_matrix_near(const Matrix& a, const Matrix& b, float tol) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      EXPECT_NEAR(a.at(i, j), b.at(i, j), tol) << "at (" << i << "," << j << ")";
    }
  }
}

TEST(Matrix, ConstructAndAccess) {
  Matrix m(2, 3, 1.5f);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.size(), 6u);
  m.at(1, 2) = 7.0f;
  EXPECT_FLOAT_EQ(m.at(1, 2), 7.0f);
  EXPECT_FLOAT_EQ(m.row(1)[2], 7.0f);
}

TEST(Matrix, VectorConstructorValidatesSize) {
  EXPECT_NO_THROW(Matrix(2, 2, std::vector<float>{1, 2, 3, 4}));
  EXPECT_THROW(Matrix(2, 2, std::vector<float>{1, 2, 3}), std::invalid_argument);
}

struct GemmCase {
  bool ta, tb;
};

class GemmTest : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmTest, MatchesNaiveReference) {
  util::Rng rng(42);
  const auto [ta, tb] = GetParam();
  // Logical op: (5x4) * (4x3).
  const Matrix a = ta ? random_matrix(4, 5, rng) : random_matrix(5, 4, rng);
  const Matrix b = tb ? random_matrix(3, 4, rng) : random_matrix(4, 3, rng);
  Matrix c;
  gemm(a, ta, b, tb, 2.0f, 0.0f, c);
  expect_matrix_near(c, naive_gemm(a, ta, b, tb, 2.0f), 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(AllTransposes, GemmTest,
                         ::testing::Values(GemmCase{false, false}, GemmCase{false, true},
                                           GemmCase{true, false}, GemmCase{true, true}));

TEST(Gemm, BetaAccumulates) {
  util::Rng rng(1);
  const Matrix a = random_matrix(3, 3, rng);
  const Matrix b = random_matrix(3, 3, rng);
  Matrix c(3, 3, 1.0f);
  gemm(a, false, b, false, 1.0f, 2.0f, c);
  Matrix expected = naive_gemm(a, false, b, false, 1.0f);
  for (auto& v : expected.flat()) v += 2.0f;
  expect_matrix_near(c, expected, 1e-4f);
}

TEST(Gemm, ThrowsOnDimensionMismatch) {
  Matrix a(2, 3), b(4, 5), c;
  EXPECT_THROW(gemm(a, false, b, false, 1.0f, 0.0f, c), std::invalid_argument);
}

TEST(Gemm, LargerRandomShapes) {
  util::Rng rng(77);
  const Matrix a = random_matrix(17, 23, rng);
  const Matrix b = random_matrix(23, 9, rng);
  Matrix c;
  gemm(a, false, b, false, 1.0f, 0.0f, c);
  expect_matrix_near(c, naive_gemm(a, false, b, false, 1.0f), 5e-4f);
}

TEST(Gemm, BlockedMatchesScalarReferenceAcrossTileBoundaries) {
  // Shapes chosen to cross every tile edge: MC=64 (m), KC=256 (k), NC=512 and
  // the 16-wide register tile (n), plus awkward remainders in each dimension.
  struct Shape {
    std::size_t m, k, n;
  };
  util::Rng rng(123);
  for (const auto& s : {Shape{130, 70, 90}, Shape{65, 257, 30}, Shape{3, 5, 513},
                        Shape{64, 256, 16}, Shape{1, 1, 1}, Shape{67, 300, 521}}) {
    const Matrix a = random_matrix(s.m, s.k, rng);
    const Matrix b = random_matrix(s.k, s.n, rng);
    Matrix want(s.m, s.n);
    reference::gemm_nn(a, b, 1.5f, want);
    Matrix got;
    gemm(a, false, b, false, 1.5f, 0.0f, got);
    ASSERT_EQ(got.rows(), s.m);
    ASSERT_EQ(got.cols(), s.n);
    for (std::size_t i = 0; i < s.m; ++i) {
      for (std::size_t j = 0; j < s.n; ++j) {
        // 1e-4 relative (absolute near zero): both kernels are float, they
        // only differ in summation order.
        const float tol = 1e-4f * std::max(1.0f, std::fabs(want.at(i, j)));
        EXPECT_NEAR(got.at(i, j), want.at(i, j), tol)
            << s.m << "x" << s.k << "x" << s.n << " at (" << i << "," << j << ")";
      }
    }
  }
}

TEST(Gemm, ThreadedMatchesSerialBitwise) {
  // Each C row belongs to exactly one thread and thread blocks are 4-aligned,
  // so every row hits the same micro-kernel as in the serial order — threading
  // must not change a single bit. alpha != 1 matters: the 4x16 kernel applies
  // alpha after k-accumulation while the tail kernel folds it per term, so a
  // misaligned block boundary would show up here.
  util::Rng rng(321);
  const Matrix a = random_matrix(150, 200, rng);
  const Matrix b = random_matrix(200, 170, rng);
  for (const float alpha : {1.0f, 1.5f}) {
    Matrix serial;
    gemm(a, false, b, false, alpha, 0.0f, serial);

    util::ThreadPool pool(4);
    set_parallel_pool(&pool);
    Matrix threaded;
    gemm(a, false, b, false, alpha, 0.0f, threaded);
    set_parallel_pool(nullptr);

    ASSERT_EQ(threaded.rows(), serial.rows());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(threaded.data()[i], serial.data()[i]) << "alpha " << alpha << " flat " << i;
    }
  }
}

// ------------------------------------------------ view GEMM entry points ---

TEST(MatrixView, SpanConstructorValidatesSize) {
  std::vector<float> buf(6, 0.0f);
  EXPECT_NO_THROW(MatrixView(std::span<float>{buf.data(), buf.size()}, 2, 3));
  EXPECT_THROW(MatrixView(std::span<float>{buf.data(), buf.size()}, 2, 2),
               std::invalid_argument);
  EXPECT_NO_THROW(ConstMatrixView(std::span<const float>{buf.data(), buf.size()}, 3, 2));
  EXPECT_THROW(ConstMatrixView(std::span<const float>{buf.data(), buf.size()}, 4, 2),
               std::invalid_argument);
}

TEST(GemmViews, RejectShapeMismatches) {
  Matrix a(3, 4), b(4, 5), c(3, 5), bad(2, 5);
  EXPECT_NO_THROW(gemm_nn(a, b, 1.0f, c));
  EXPECT_THROW(gemm_nn(a, b, 1.0f, bad), std::invalid_argument);
  EXPECT_THROW(gemm_nn(a, a, 1.0f, c), std::invalid_argument);
  Matrix bt(5, 4);
  EXPECT_NO_THROW(gemm_nt(a, bt, 1.0f, c));
  EXPECT_THROW(gemm_nt(a, b, 1.0f, c), std::invalid_argument);
  Matrix at(4, 3);
  EXPECT_NO_THROW(gemm_tn(at, b, 1.0f, c));
  EXPECT_THROW(gemm_tn(a, b, 1.0f, c), std::invalid_argument);
}

// Property sweep for the register-tiled nt/tn kernels: random shapes crossing
// the micro-kernel edges (2-row pairing and 4-wide B groups for nt, 4x16
// tiles for tn) plus degenerate 1xN / Nx1 cases.
TEST(GemmViews, NtTnMatchNaiveReferenceAcrossShapes) {
  struct Shape {
    std::size_t m, k, n;
  };
  util::Rng rng(555);
  for (const auto& s :
       {Shape{1, 1, 1}, Shape{1, 37, 1}, Shape{1, 8, 19}, Shape{19, 8, 1}, Shape{2, 16, 4},
        Shape{5, 23, 7}, Shape{32, 784, 128}, Shape{66, 1030, 65}, Shape{3, 5, 513},
        Shape{8, 576, 25}, Shape{25, 8, 576}}) {
    // gemm_nt: A (m x k) · Bᵀ with B stored (n x k).
    const Matrix a = random_matrix(s.m, s.k, rng);
    const Matrix bt = random_matrix(s.n, s.k, rng);
    Matrix c(s.m, s.n);
    gemm_nt(a, bt, 1.5f, c);
    const Matrix want_nt = naive_gemm(a, false, bt, true, 1.5f);
    for (std::size_t i = 0; i < s.m; ++i) {
      for (std::size_t j = 0; j < s.n; ++j) {
        const float tol = 1e-4f * std::max(1.0f, std::fabs(want_nt.at(i, j)));
        EXPECT_NEAR(c.at(i, j), want_nt.at(i, j), tol)
            << "nt " << s.m << "x" << s.k << "x" << s.n << " at (" << i << "," << j << ")";
      }
    }
    // gemm_tn: Aᵀ · B with A stored (k x m).
    const Matrix at = random_matrix(s.k, s.m, rng);
    const Matrix b = random_matrix(s.k, s.n, rng);
    Matrix d(s.m, s.n);
    gemm_tn(at, b, 1.5f, d);
    const Matrix want_tn = naive_gemm(at, true, b, false, 1.5f);
    for (std::size_t i = 0; i < s.m; ++i) {
      for (std::size_t j = 0; j < s.n; ++j) {
        const float tol = 1e-4f * std::max(1.0f, std::fabs(want_tn.at(i, j)));
        EXPECT_NEAR(d.at(i, j), want_tn.at(i, j), tol)
            << "tn " << s.m << "x" << s.k << "x" << s.n << " at (" << i << "," << j << ")";
      }
    }
  }
}

TEST(GemmViews, AccumulateIntoExistingC) {
  // The view entry points are C += alpha·op(A)·op(B): preloaded C survives.
  util::Rng rng(556);
  const Matrix a = random_matrix(4, 9, rng);
  const Matrix bt = random_matrix(6, 9, rng);
  Matrix c(4, 6, 2.0f);
  gemm_nt(a, bt, 1.0f, c);
  const Matrix prod = naive_gemm(a, false, bt, true, 1.0f);
  for (std::size_t i = 0; i < c.rows(); ++i) {
    for (std::size_t j = 0; j < c.cols(); ++j) {
      EXPECT_NEAR(c.at(i, j), 2.0f + prod.at(i, j), 1e-4f);
    }
  }
}

TEST(GemmViews, ViewsOverSpansNeedNoCopy) {
  // Weights-as-flat-span is exactly how the layers call these entry points.
  std::vector<float> w = {1, 2, 3, 4, 5, 6};  // 2x3 row-major
  const ConstMatrixView wv(std::span<const float>{w.data(), w.size()}, 2, 3);
  Matrix x(1, 3);
  x.at(0, 0) = 1.0f;
  x.at(0, 1) = 1.0f;
  x.at(0, 2) = 1.0f;
  Matrix y(1, 2);
  gemm_nt(x, wv, 1.0f, y);  // y = x · wᵀ
  EXPECT_FLOAT_EQ(y.at(0, 0), 6.0f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 15.0f);
}

TEST(GemmViews, NtTnThreadedMatchesSerialBitwise) {
  // nt: each C row's dot chains accumulate in a split-invariant order; tn:
  // thread blocks are 4-aligned like nn. Either way a threaded run must
  // reproduce the serial result bit for bit.
  util::Rng rng(557);
  const Matrix a = random_matrix(150, 200, rng);
  const Matrix bt = random_matrix(170, 200, rng);
  const Matrix at = random_matrix(200, 150, rng);
  const Matrix b = random_matrix(200, 170, rng);
  Matrix serial_nt(150, 170), serial_tn(150, 170);
  gemm_nt(a, bt, 1.5f, serial_nt);
  gemm_tn(at, b, 1.5f, serial_tn);

  util::ThreadPool pool(4);
  set_parallel_pool(&pool);
  Matrix threaded_nt(150, 170), threaded_tn(150, 170);
  gemm_nt(a, bt, 1.5f, threaded_nt);
  gemm_tn(at, b, 1.5f, threaded_tn);
  set_parallel_pool(nullptr);

  for (std::size_t i = 0; i < serial_nt.size(); ++i) {
    EXPECT_EQ(threaded_nt.data()[i], serial_nt.data()[i]) << "nt flat " << i;
    EXPECT_EQ(threaded_tn.data()[i], serial_tn.data()[i]) << "tn flat " << i;
  }
}

TEST(Matrix, ReshapeKeepsCapacityAndSkipsZeroFill) {
  Matrix m(8, 8, 3.0f);
  const float* before = m.data();
  m.reshape(4, 8);  // shrink: same buffer, no realloc
  EXPECT_EQ(m.data(), before);
  EXPECT_EQ(m.rows(), 4u);
  EXPECT_EQ(m.size(), 32u);           // size() tracks the logical shape
  EXPECT_EQ(m.flat().size(), 32u);
  EXPECT_FLOAT_EQ(m.at(0, 0), 3.0f);  // surviving contents untouched (not zeroed)
  m.reshape(8, 8);  // grow back within capacity: still no realloc
  EXPECT_EQ(m.data(), before);
  EXPECT_EQ(m.size(), 64u);
}

TEST(VecOps, AxpyScaleDotNorm) {
  std::vector<float> x{1, 2, 3};
  std::vector<float> y{10, 20, 30};
  axpy(2.0f, {x.data(), 3}, {y.data(), 3});
  EXPECT_FLOAT_EQ(y[0], 12.0f);
  EXPECT_FLOAT_EQ(y[2], 36.0f);
  scale(0.5f, {y.data(), 3});
  EXPECT_FLOAT_EQ(y[0], 6.0f);
  EXPECT_DOUBLE_EQ(dot({x.data(), 3}, {x.data(), 3}), 14.0);
  EXPECT_NEAR(norm2({x.data(), 3}), std::sqrt(14.0), 1e-12);
  zero({y.data(), 3});
  EXPECT_FLOAT_EQ(y[1], 0.0f);
}

TEST(Im2col, IdentityKernelGeometry) {
  // 1 channel, 3x3 image, 1x1 kernel: cols == image row-major.
  ConvGeometry g;
  g.channels = 1;
  g.height = 3;
  g.width = 3;
  g.ksize = 1;
  const float img[9] = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  Matrix cols;
  im2col(img, g, cols);
  ASSERT_EQ(cols.rows(), 1u);
  ASSERT_EQ(cols.cols(), 9u);
  for (int i = 0; i < 9; ++i) EXPECT_FLOAT_EQ(cols.row(0)[i], img[i]);
}

TEST(Im2col, PaddingYieldsZeros) {
  ConvGeometry g;
  g.channels = 1;
  g.height = 2;
  g.width = 2;
  g.ksize = 3;
  g.pad = 1;
  const float img[4] = {1, 2, 3, 4};
  Matrix cols;
  im2col(img, g, cols);
  ASSERT_EQ(cols.rows(), 9u);   // 1*3*3
  ASSERT_EQ(cols.cols(), 4u);   // 2x2 output
  // Top-left kernel tap at output (0,0) reads padded (-1,-1) => 0.
  EXPECT_FLOAT_EQ(cols.at(0, 0), 0.0f);
  // Center tap (ky=1,kx=1) at output (0,0) reads (0,0) => 1.
  EXPECT_FLOAT_EQ(cols.at(4, 0), 1.0f);
}

TEST(Im2col, Col2imIsAdjoint) {
  // <im2col(x), y> == <x, col2im(y)> for random x, y — the defining adjoint
  // property that guarantees conv backward is consistent with forward.
  util::Rng rng(5);
  ConvGeometry g;
  g.channels = 2;
  g.height = 5;
  g.width = 4;
  g.ksize = 3;
  g.stride = 1;
  g.pad = 1;
  std::vector<float> x(g.image_size());
  for (auto& v : x) v = static_cast<float>(rng.normal());
  Matrix cols;
  im2col(x.data(), g, cols);
  Matrix y(cols.rows(), cols.cols());
  for (auto& v : y.flat()) v = static_cast<float>(rng.normal());

  double lhs = 0.0;
  for (std::size_t i = 0; i < cols.size(); ++i) {
    lhs += static_cast<double>(cols.data()[i]) * y.data()[i];
  }
  std::vector<float> xt(g.image_size(), 0.0f);
  col2im(y, g, xt.data());
  double rhs = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) rhs += static_cast<double>(x[i]) * xt[i];
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

TEST(Im2col, StrideTwoGeometry) {
  ConvGeometry g;
  g.channels = 1;
  g.height = 4;
  g.width = 4;
  g.ksize = 2;
  g.stride = 2;
  EXPECT_EQ(g.out_height(), 2u);
  EXPECT_EQ(g.out_width(), 2u);
  const float img[16] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16};
  Matrix cols;
  im2col(img, g, cols);
  // Output (0,0) window is {1,2,5,6}; tap (0,0) reads 1, tap (1,1) reads 6.
  EXPECT_FLOAT_EQ(cols.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(cols.at(3, 0), 6.0f);
  // Output (1,1) window is {11,12,15,16}.
  EXPECT_FLOAT_EQ(cols.at(0, 3), 11.0f);
  EXPECT_FLOAT_EQ(cols.at(3, 3), 16.0f);
}

}  // namespace
}  // namespace fedsparse::tensor
