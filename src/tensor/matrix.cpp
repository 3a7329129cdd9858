#include "tensor/matrix.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <string>

#include "util/thread_pool.h"
#include "util/vec_ext.h"

namespace fedsparse::tensor {

Matrix::Matrix(std::size_t rows, std::size_t cols, std::vector<float> data)
    : rows_(rows), cols_(cols), data_(std::move(data)) {
  if (data_.size() != rows * cols) {
    throw std::invalid_argument("Matrix: data size does not match rows*cols");
  }
}

void Matrix::fill(float v) noexcept {
  for (auto& x : data_) x = v;
}

void Matrix::resize(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.assign(rows * cols, 0.0f);
}

void Matrix::reshape(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  // resize (not assign): existing elements are never re-zeroed, shrink keeps
  // capacity, and size()/flat() stay exactly rows*cols for consumers.
  data_.resize(rows * cols);
}

namespace {

std::atomic<util::ThreadPool*> g_parallel_pool{nullptr};

// Cache tiles for the blocked kernel. KC rows of B (KC*NC floats) stay hot in
// L1/L2 across the whole MC sweep; MC x KC of A is streamed once per tile.
constexpr std::size_t kMC = 64;
constexpr std::size_t kKC = 256;
constexpr std::size_t kNC = 512;
// Below this many multiply-adds the blocking/threading bookkeeping costs more
// than it saves; fall back to the plain kernel.
constexpr std::size_t kParallelFlopThreshold = 1 << 18;

// Register micro-kernel: a 4x16 tile of C is accumulated entirely in
// registers across the whole [k0, k1) sweep (8 SIMD accumulators under AVX2)
// and written back once — C traffic drops from O(kc) loads/stores per element
// to exactly one read-modify-write. Four C rows share each loaded B row.
//
// The kernels are templated on TransA: the same tiling serves C += A·B
// (TransA = false, A element at (mi, ki)) and C += Aᵀ·B (TransA = true,
// element at (ki, mi) — contiguous per k step, so the transposed load is
// actually the friendlier one).
constexpr std::size_t kNR = 16;

template <bool TransA>
inline float a_elem(ConstMatrixView a, std::size_t mi, std::size_t ki) {
  return TransA ? a.at(ki, mi) : a.at(mi, ki);
}

template <bool TransA>
inline void kernel_4x16(ConstMatrixView a, ConstMatrixView b, float alpha, MatrixView c,
                        std::size_t mi, std::size_t k0, std::size_t k1, std::size_t nt) {
  float acc0[kNR] = {}, acc1[kNR] = {}, acc2[kNR] = {}, acc3[kNR] = {};
  for (std::size_t ki = k0; ki < k1; ++ki) {
    const float* __restrict__ brow = b.row(ki) + nt;
    const float a0 = a_elem<TransA>(a, mi, ki);
    const float a1 = a_elem<TransA>(a, mi + 1, ki);
    const float a2 = a_elem<TransA>(a, mi + 2, ki);
    const float a3 = a_elem<TransA>(a, mi + 3, ki);
    for (std::size_t j = 0; j < kNR; ++j) {
      const float bv = brow[j];
      acc0[j] += a0 * bv;
      acc1[j] += a1 * bv;
      acc2[j] += a2 * bv;
      acc3[j] += a3 * bv;
    }
  }
  float* __restrict__ c0 = c.row(mi) + nt;
  float* __restrict__ c1 = c.row(mi + 1) + nt;
  float* __restrict__ c2 = c.row(mi + 2) + nt;
  float* __restrict__ c3 = c.row(mi + 3) + nt;
  for (std::size_t j = 0; j < kNR; ++j) {
    c0[j] += alpha * acc0[j];
    c1[j] += alpha * acc1[j];
    c2[j] += alpha * acc2[j];
    c3[j] += alpha * acc3[j];
  }
}

// Column-tail variant of kernel_4x16 for nc < 16 remainder columns.
template <bool TransA>
inline void kernel_4xN(ConstMatrixView a, ConstMatrixView b, float alpha, MatrixView c,
                       std::size_t mi, std::size_t k0, std::size_t k1, std::size_t n0,
                       std::size_t n1) {
  float* __restrict__ c0 = c.row(mi) + n0;
  float* __restrict__ c1 = c.row(mi + 1) + n0;
  float* __restrict__ c2 = c.row(mi + 2) + n0;
  float* __restrict__ c3 = c.row(mi + 3) + n0;
  const std::size_t nc = n1 - n0;
  for (std::size_t ki = k0; ki < k1; ++ki) {
    const float a0 = alpha * a_elem<TransA>(a, mi, ki);
    const float a1 = alpha * a_elem<TransA>(a, mi + 1, ki);
    const float a2 = alpha * a_elem<TransA>(a, mi + 2, ki);
    const float a3 = alpha * a_elem<TransA>(a, mi + 3, ki);
    const float* __restrict__ brow = b.row(ki) + n0;
    for (std::size_t ni = 0; ni < nc; ++ni) {
      const float bv = brow[ni];
      c0[ni] += a0 * bv;
      c1[ni] += a1 * bv;
      c2[ni] += a2 * bv;
      c3[ni] += a3 * bv;
    }
  }
}

// Single-row remainder of kernel_4xN.
template <bool TransA>
inline void kernel_1xN(ConstMatrixView a, ConstMatrixView b, float alpha, MatrixView c,
                       std::size_t mi, std::size_t k0, std::size_t k1, std::size_t n0,
                       std::size_t n1) {
  float* __restrict__ crow = c.row(mi) + n0;
  const std::size_t nc = n1 - n0;
  for (std::size_t ki = k0; ki < k1; ++ki) {
    const float aik = alpha * a_elem<TransA>(a, mi, ki);
    if (aik == 0.0f) continue;
    const float* __restrict__ brow = b.row(ki) + n0;
    for (std::size_t ni = 0; ni < nc; ++ni) crow[ni] += aik * brow[ni];
  }
}

// Blocked C += alpha * op(A) * B over the row range [m0, m1) — the unit of
// work one thread owns, so threading never splits a C row and results are
// bitwise-identical to the serial order.
template <bool TransA>
void gemm_nx_rows(ConstMatrixView a, ConstMatrixView b, float alpha, MatrixView c, std::size_t m0,
                  std::size_t m1) {
  const std::size_t k = TransA ? a.rows() : a.cols(), n = b.cols();
  for (std::size_t n0 = 0; n0 < n; n0 += kNC) {
    const std::size_t n1 = std::min(n, n0 + kNC);
    for (std::size_t k0 = 0; k0 < k; k0 += kKC) {
      const std::size_t k1 = std::min(k, k0 + kKC);
      for (std::size_t mb = m0; mb < m1; mb += kMC) {
        const std::size_t me = std::min(m1, mb + kMC);
        std::size_t mi = mb;
        for (; mi + 4 <= me; mi += 4) {
          std::size_t nt = n0;
          for (; nt + kNR <= n1; nt += kNR) kernel_4x16<TransA>(a, b, alpha, c, mi, k0, k1, nt);
          if (nt < n1) kernel_4xN<TransA>(a, b, alpha, c, mi, k0, k1, nt, n1);
        }
        for (; mi < me; ++mi) kernel_1xN<TransA>(a, b, alpha, c, mi, k0, k1, n0, n1);
      }
    }
  }
}

// Shared M-loop threading: row blocks rounded to a multiple of 4 so every row
// hits the same micro-kernel (4-row vs 1xN tail) as in the serial order —
// bitwise-identical results. A template, not a std::function parameter: the
// callers' [&] lambdas outgrow std::function's small buffer, so every GEMM
// would allocate; the pool path wraps a reference, which never allocates.
template <class RowsFn>
void thread_m_loop(std::size_t m, std::size_t k, std::size_t n, const RowsFn& rows_fn) {
  util::ThreadPool* pool = g_parallel_pool.load(std::memory_order_acquire);
  if (pool != nullptr && pool->size() > 1 && m > 1 && m * k * n >= kParallelFlopThreshold) {
    const std::size_t block = ((std::max<std::size_t>(4, m / (4 * pool->size())) + 3) / 4) * 4;
    pool->parallel_for_ranges(m, std::cref(rows_fn), block);
  } else {
    rows_fn(0, m);
  }
}

// --- A·Bᵀ ------------------------------------------------------------------
//
// C(mi, ni) = dot(A row mi, B row ni): both operands stream contiguously, but
// the strict-FP reduction would serialize on one accumulator, so each dot is
// striped across kStripe independent partial sums the compiler lifts to SIMD.
// The stripes recombine in a fixed pairwise order — results are deterministic
// (and, per C row, independent of the threading split).
constexpr std::size_t kStripe = 8;
// gemm_nt packing crossover. The packed path runs the 4x16 nn micro-kernel
// (~70–88 GF/s on the reference box vs ~42 for the dot kernels) but pays a
// Bᵀ transpose of k·n elements per call, worth ~15/m of the product time,
// plus the L2 pollution of the k·n scratch it leaves behind for whatever
// runs next. Standalone break-even lands near m ≈ 24, but inside a full
// layer fwd+bwd the pollution pushes it higher: batch-32 Linear measured
// net-slower packed, m=128 measured +76%. m ≥ 64 keeps both findings happy.
// Narrow C tiles (n < 32) spend half the nn kernel in its column tail and
// lose outright (8x576x25: 14 vs 47 GF/s), so they always take the dot
// kernels.
constexpr std::size_t kNtPackMinRows = 64;
constexpr std::size_t kNtPackMinCols = 32;
// B rows resident per block: kNtNB * kNtKC floats (~256 KB, L2-sized) stay
// hot across the whole [m0, m1) sweep. The k block is wider than the nn
// kernel's kKC because every block boundary costs a horizontal stripe
// reduction per C element.
constexpr std::size_t kNtNB = 64;
constexpr std::size_t kNtKC = 1024;

// GCC 12's SLP pass fails to vectorize a float[kStripe] accumulator pattern
// here (it emits per-lane scalar adds — measured ~4 GF/s vs ~25 for the other
// kernels), so the stripes use the GCC/Clang portable vector-extension type,
// which lowers to whatever SIMD the target has. The scalar #else branch keeps
// non-GNU compilers building; results are deterministic within either path
// (fixed accumulation and recombination order).
#if FEDSPARSE_VEC_EXT
#define FEDSPARSE_HAVE_VEC_EXT 1
static_assert(util::vec::kLanes == kStripe, "stripe kernels assume 8-lane vectors");
using util::vec::load8;
using util::vec::v8sf;
#endif

// Fixed pairwise recombination order — shared by both paths and by the scalar
// k tail, so dot results do not depend on the compiler branch taken.
inline float stripe_sum(const float s[kStripe]) {
  return ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]));
}

// Main micro-kernel: a 2x4 tile of C dots — two A rows against four B rows —
// with one 8-lane stripe per dot. Eight independent accumulator chains cover
// the FMA latency-throughput product, every loaded B stripe is reused by both
// A rows and every A stripe by all four B rows (~41 GF/s single core vs ~14
// for a 1x4 arrangement, which is L2-bound on its unshared B streams).
//
// Each C row's chains accumulate in exactly the order the single-row kernels
// below use, so per-row results are identical whichever kernel covers the row
// — threading may split the M loop anywhere without changing a bit.
inline void kernel_nt_2x4(const float* __restrict__ a0, const float* __restrict__ a1,
                          const float* __restrict__ b0, const float* __restrict__ b1,
                          const float* __restrict__ b2, const float* __restrict__ b3,
                          std::size_t kc, float alpha, float* __restrict__ c0,
                          float* __restrict__ c1) {
  float s00[kStripe] = {}, s01[kStripe] = {}, s02[kStripe] = {}, s03[kStripe] = {};
  float s10[kStripe] = {}, s11[kStripe] = {}, s12[kStripe] = {}, s13[kStripe] = {};
  std::size_t ki = 0;
#if FEDSPARSE_HAVE_VEC_EXT
  v8sf v00{}, v01{}, v02{}, v03{}, v10{}, v11{}, v12{}, v13{};
  for (; ki + kStripe <= kc; ki += kStripe) {
    const v8sf av0 = load8(a0 + ki);
    const v8sf av1 = load8(a1 + ki);
    const v8sf bv0 = load8(b0 + ki);
    const v8sf bv1 = load8(b1 + ki);
    const v8sf bv2 = load8(b2 + ki);
    const v8sf bv3 = load8(b3 + ki);
    v00 += av0 * bv0;
    v01 += av0 * bv1;
    v02 += av0 * bv2;
    v03 += av0 * bv3;
    v10 += av1 * bv0;
    v11 += av1 * bv1;
    v12 += av1 * bv2;
    v13 += av1 * bv3;
  }
  std::memcpy(s00, &v00, sizeof s00);
  std::memcpy(s01, &v01, sizeof s01);
  std::memcpy(s02, &v02, sizeof s02);
  std::memcpy(s03, &v03, sizeof s03);
  std::memcpy(s10, &v10, sizeof s10);
  std::memcpy(s11, &v11, sizeof s11);
  std::memcpy(s12, &v12, sizeof s12);
  std::memcpy(s13, &v13, sizeof s13);
#else
  for (; ki + kStripe <= kc; ki += kStripe) {
    for (std::size_t j = 0; j < kStripe; ++j) {
      const float av0 = a0[ki + j], av1 = a1[ki + j];
      s00[j] += av0 * b0[ki + j];
      s01[j] += av0 * b1[ki + j];
      s02[j] += av0 * b2[ki + j];
      s03[j] += av0 * b3[ki + j];
      s10[j] += av1 * b0[ki + j];
      s11[j] += av1 * b1[ki + j];
      s12[j] += av1 * b2[ki + j];
      s13[j] += av1 * b3[ki + j];
    }
  }
#endif
  for (; ki < kc; ++ki) {
    const float av0 = a0[ki], av1 = a1[ki];
    s00[0] += av0 * b0[ki];
    s01[0] += av0 * b1[ki];
    s02[0] += av0 * b2[ki];
    s03[0] += av0 * b3[ki];
    s10[0] += av1 * b0[ki];
    s11[0] += av1 * b1[ki];
    s12[0] += av1 * b2[ki];
    s13[0] += av1 * b3[ki];
  }
  c0[0] += alpha * stripe_sum(s00);
  c0[1] += alpha * stripe_sum(s01);
  c0[2] += alpha * stripe_sum(s02);
  c0[3] += alpha * stripe_sum(s03);
  c1[0] += alpha * stripe_sum(s10);
  c1[1] += alpha * stripe_sum(s11);
  c1[2] += alpha * stripe_sum(s12);
  c1[3] += alpha * stripe_sum(s13);
}

// One A row against four B rows — M-tail of kernel_nt_2x4 (same per-row op
// order).
inline void kernel_nt_1x4(const float* __restrict__ a, const float* __restrict__ b0,
                          const float* __restrict__ b1, const float* __restrict__ b2,
                          const float* __restrict__ b3, std::size_t kc, float alpha,
                          float* __restrict__ c) {
  float s0[kStripe] = {}, s1[kStripe] = {}, s2[kStripe] = {}, s3[kStripe] = {};
  std::size_t ki = 0;
#if FEDSPARSE_HAVE_VEC_EXT
  v8sf v0{}, v1{}, v2{}, v3{};
  for (; ki + kStripe <= kc; ki += kStripe) {
    const v8sf av = load8(a + ki);
    v0 += av * load8(b0 + ki);
    v1 += av * load8(b1 + ki);
    v2 += av * load8(b2 + ki);
    v3 += av * load8(b3 + ki);
  }
  std::memcpy(s0, &v0, sizeof s0);
  std::memcpy(s1, &v1, sizeof s1);
  std::memcpy(s2, &v2, sizeof s2);
  std::memcpy(s3, &v3, sizeof s3);
#else
  for (; ki + kStripe <= kc; ki += kStripe) {
    for (std::size_t j = 0; j < kStripe; ++j) {
      const float av = a[ki + j];
      s0[j] += av * b0[ki + j];
      s1[j] += av * b1[ki + j];
      s2[j] += av * b2[ki + j];
      s3[j] += av * b3[ki + j];
    }
  }
#endif
  for (; ki < kc; ++ki) {
    const float av = a[ki];
    s0[0] += av * b0[ki];
    s1[0] += av * b1[ki];
    s2[0] += av * b2[ki];
    s3[0] += av * b3[ki];
  }
  c[0] += alpha * stripe_sum(s0);
  c[1] += alpha * stripe_sum(s1);
  c[2] += alpha * stripe_sum(s2);
  c[3] += alpha * stripe_sum(s3);
}

// Two A rows against one B row — N-tail of kernel_nt_2x4.
inline void kernel_nt_2x1(const float* __restrict__ a0, const float* __restrict__ a1,
                          const float* __restrict__ b, std::size_t kc, float alpha,
                          float* __restrict__ c0, float* __restrict__ c1) {
  float s0[kStripe] = {}, s1[kStripe] = {};
  std::size_t ki = 0;
#if FEDSPARSE_HAVE_VEC_EXT
  v8sf v0{}, v1{};
  for (; ki + kStripe <= kc; ki += kStripe) {
    const v8sf bv = load8(b + ki);
    v0 += load8(a0 + ki) * bv;
    v1 += load8(a1 + ki) * bv;
  }
  std::memcpy(s0, &v0, sizeof s0);
  std::memcpy(s1, &v1, sizeof s1);
#else
  for (; ki + kStripe <= kc; ki += kStripe) {
    for (std::size_t j = 0; j < kStripe; ++j) {
      s0[j] += a0[ki + j] * b[ki + j];
      s1[j] += a1[ki + j] * b[ki + j];
    }
  }
#endif
  for (; ki < kc; ++ki) {
    s0[0] += a0[ki] * b[ki];
    s1[0] += a1[ki] * b[ki];
  }
  *c0 += alpha * stripe_sum(s0);
  *c1 += alpha * stripe_sum(s1);
}

// Single-dot remainder (M-tail x N-tail).
inline void kernel_nt_1x1(const float* __restrict__ a, const float* __restrict__ b, std::size_t kc,
                          float alpha, float* __restrict__ c) {
  float s[kStripe] = {};
  std::size_t ki = 0;
#if FEDSPARSE_HAVE_VEC_EXT
  v8sf v{};
  for (; ki + kStripe <= kc; ki += kStripe) v += load8(a + ki) * load8(b + ki);
  std::memcpy(s, &v, sizeof s);
#else
  for (; ki + kStripe <= kc; ki += kStripe) {
    for (std::size_t j = 0; j < kStripe; ++j) s[j] += a[ki + j] * b[ki + j];
  }
#endif
  for (; ki < kc; ++ki) s[0] += a[ki] * b[ki];
  *c += alpha * stripe_sum(s);
}

void gemm_nt_rows(ConstMatrixView a, ConstMatrixView b, float alpha, MatrixView c, std::size_t m0,
                  std::size_t m1) {
  const std::size_t k = a.cols(), n = b.rows();
  for (std::size_t n0 = 0; n0 < n; n0 += kNtNB) {
    const std::size_t n1 = std::min(n, n0 + kNtNB);
    for (std::size_t k0 = 0; k0 < k; k0 += kNtKC) {
      const std::size_t kc = std::min(k, k0 + kNtKC) - k0;
      std::size_t mi = m0;
      for (; mi + 2 <= m1; mi += 2) {
        const float* a0 = a.row(mi) + k0;
        const float* a1 = a.row(mi + 1) + k0;
        float* c0 = c.row(mi);
        float* c1 = c.row(mi + 1);
        std::size_t ni = n0;
        for (; ni + 4 <= n1; ni += 4) {
          kernel_nt_2x4(a0, a1, b.row(ni) + k0, b.row(ni + 1) + k0, b.row(ni + 2) + k0,
                        b.row(ni + 3) + k0, kc, alpha, c0 + ni, c1 + ni);
        }
        for (; ni < n1; ++ni) kernel_nt_2x1(a0, a1, b.row(ni) + k0, kc, alpha, c0 + ni, c1 + ni);
      }
      for (; mi < m1; ++mi) {
        const float* arow = a.row(mi) + k0;
        float* crow = c.row(mi);
        std::size_t ni = n0;
        for (; ni + 4 <= n1; ni += 4) {
          kernel_nt_1x4(arow, b.row(ni) + k0, b.row(ni + 1) + k0, b.row(ni + 2) + k0,
                        b.row(ni + 3) + k0, kc, alpha, crow + ni);
        }
        for (; ni < n1; ++ni) kernel_nt_1x1(arow, b.row(ni) + k0, kc, alpha, crow + ni);
      }
    }
  }
}

// C += alpha * A^T * B^T — rare; implemented via explicit index arithmetic.
void gemm_tt(ConstMatrixView a, ConstMatrixView b, float alpha, MatrixView c) {
  const std::size_t m = a.cols(), k = a.rows(), n = b.rows();
  for (std::size_t mi = 0; mi < m; ++mi) {
    float* crow = c.row(mi);
    for (std::size_t ni = 0; ni < n; ++ni) {
      float acc = 0.0f;
      for (std::size_t ki = 0; ki < k; ++ki) acc += a.at(ki, mi) * b.at(ni, ki);
      crow[ni] += alpha * acc;
    }
  }
}

void check_product_shape(const char* what, std::size_t m, std::size_t ka, std::size_t kb,
                         std::size_t n, MatrixView c) {
  if (ka != kb) throw std::invalid_argument(std::string(what) + ": inner dimensions do not match");
  if (c.rows() != m || c.cols() != n) {
    throw std::invalid_argument(std::string(what) + ": C has wrong shape");
  }
}

}  // namespace

void gemm_nn(ConstMatrixView a, ConstMatrixView b, float alpha, MatrixView c) {
  check_product_shape("gemm_nn", a.rows(), a.cols(), b.rows(), b.cols(), c);
  thread_m_loop(a.rows(), a.cols(), b.cols(), [&](std::size_t m0, std::size_t m1) {
    gemm_nx_rows<false>(a, b, alpha, c, m0, m1);
  });
}

void gemm_tn(ConstMatrixView a, ConstMatrixView b, float alpha, MatrixView c) {
  check_product_shape("gemm_tn", a.cols(), a.rows(), b.rows(), b.cols(), c);
  thread_m_loop(a.cols(), a.rows(), b.cols(), [&](std::size_t m0, std::size_t m1) {
    gemm_nx_rows<true>(a, b, alpha, c, m0, m1);
  });
}

void gemm_nt(ConstMatrixView a, ConstMatrixView b, float alpha, MatrixView c) {
  check_product_shape("gemm_nt", a.rows(), a.cols(), b.cols(), b.rows(), c);
  const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
  // Few A rows (single-sample probe forwards) or narrow C (tiny conv dW
  // shapes): the transpose pack would cost a meaningful fraction of the
  // product itself, so the striped dot kernels stay.
  if (m < kNtPackMinRows || n < kNtPackMinCols) {
    thread_m_loop(m, k, n, [&](std::size_t m0, std::size_t m1) {
      gemm_nt_rows(a, b, alpha, c, m0, m1);
    });
    return;
  }
  // Pack Bᵀ once (k x n row-major, blocked transpose) on the calling thread,
  // then run the exact nn row kernels over it — the same 4x16 register tile
  // that puts nn/tn around twice the dot kernels' FLOP rate. The packed
  // content is independent of the M split, and thread_m_loop's blocks stay
  // 4-aligned, so threaded results remain bitwise-identical to serial.
  thread_local std::vector<float> packed;
  packed.resize(k * n);
  constexpr std::size_t kTB = 32;  // transpose tile: both streams stay in L1
  for (std::size_t k0 = 0; k0 < k; k0 += kTB) {
    const std::size_t k1 = std::min(k, k0 + kTB);
    for (std::size_t n0 = 0; n0 < n; n0 += kTB) {
      const std::size_t n1 = std::min(n, n0 + kTB);
      for (std::size_t ki = k0; ki < k1; ++ki) {
        float* prow = packed.data() + ki * n;
        for (std::size_t ni = n0; ni < n1; ++ni) prow[ni] = b.at(ni, ki);
      }
    }
  }
  const ConstMatrixView packed_view(packed.data(), k, n);
  thread_m_loop(m, k, n, [&](std::size_t m0, std::size_t m1) {
    gemm_nx_rows<false>(a, packed_view, alpha, c, m0, m1);
  });
}

void set_parallel_pool(util::ThreadPool* pool) noexcept {
  g_parallel_pool.store(pool, std::memory_order_release);
}

util::ThreadPool* parallel_pool() noexcept {
  return g_parallel_pool.load(std::memory_order_acquire);
}

void gemm(const Matrix& a, bool trans_a, const Matrix& b, bool trans_b, float alpha, float beta,
          Matrix& c) {
  const std::size_t m = trans_a ? a.cols() : a.rows();
  const std::size_t ka = trans_a ? a.rows() : a.cols();
  const std::size_t kb = trans_b ? b.cols() : b.rows();
  const std::size_t n = trans_b ? b.rows() : b.cols();
  if (ka != kb) throw std::invalid_argument("gemm: inner dimensions do not match");
  if (c.rows() != m || c.cols() != n) {
    if (beta != 0.0f) throw std::invalid_argument("gemm: C has wrong shape for beta != 0");
    c.resize(m, n);
  }
  if (beta == 0.0f) {
    zero(c.flat());
  } else if (beta != 1.0f) {
    scale(beta, c.flat());
  }
  MatrixView cv(c);
  if (!trans_a && !trans_b) {
    gemm_nn(a, b, alpha, cv);
  } else if (!trans_a && trans_b) {
    gemm_nt(a, b, alpha, cv);
  } else if (trans_a && !trans_b) {
    gemm_tn(a, b, alpha, cv);
  } else {
    gemm_tt(a, b, alpha, cv);
  }
}

void axpy(float alpha, std::span<const float> x, std::span<float> y) {
  const std::size_t n = std::min(x.size(), y.size());
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void scale(float alpha, std::span<float> x) {
  for (auto& v : x) v *= alpha;
}

double dot(std::span<const float> x, std::span<const float> y) {
  double acc = 0.0;
  const std::size_t n = std::min(x.size(), y.size());
  for (std::size_t i = 0; i < n; ++i) acc += static_cast<double>(x[i]) * y[i];
  return acc;
}

double norm2(std::span<const float> x) { return std::sqrt(dot(x, x)); }

void zero(std::span<float> x) { std::memset(x.data(), 0, x.size() * sizeof(float)); }

}  // namespace fedsparse::tensor
