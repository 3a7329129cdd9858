// Tests for the sparsification library: top-k selection, the accumulator,
// FAB-top-k (fairness invariants + κ search), and every baseline method.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <unordered_set>

#include "fab_reference.h"
#include "reference_kernels.h"
#include "sparsify/accumulator.h"
#include "sparsify/fab_topk.h"
#include "sparsify/fedavg.h"
#include "sparsify/fub_topk.h"
#include "sparsify/keys.h"
#include "sparsify/method.h"
#include "sparsify/periodic_k.h"
#include "sparsify/sparse_vector.h"
#include "sparsify/topk.h"
#include "sparsify/unidirectional_topk.h"
#include "tensor/matrix.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace fedsparse::sparsify {
namespace {

std::vector<float> random_vector(std::size_t d, util::Rng& rng, double scale = 1.0) {
  std::vector<float> v(d);
  for (auto& x : v) x = static_cast<float>(rng.normal(0.0, scale));
  return v;
}

// Equal data weights for n clients.
std::vector<double> equal_weights(std::size_t n) {
  return std::vector<double>(n, 1.0 / static_cast<double>(n));
}

// Owns the data-weight vector so call sites may pass temporaries; converts
// implicitly to the RoundInput view the methods consume.
struct InputHolder {
  std::vector<double> weights;
  RoundInput in;
  operator const RoundInput&() const { return in; }  // NOLINT(google-explicit-constructor)
};

InputHolder make_input(const std::vector<std::vector<float>>& vecs, std::vector<double> weights,
                       std::size_t round = 1) {
  InputHolder h;
  h.weights = std::move(weights);
  h.in.dim = vecs.front().size();
  h.in.round = round;
  h.in.data_weights = {h.weights.data(), h.weights.size()};
  for (const auto& v : vecs) h.in.client_vectors.push_back({v.data(), v.size()});
  return h;
}

// ---------------------------------------------------------------- top-k ----

TEST(TopK, MatchesFullSortReference) {
  util::Rng rng(1);
  const auto v = random_vector(200, rng);
  for (std::size_t k : {1u, 5u, 50u, 200u}) {
    const auto got = top_k_indices({v.data(), v.size()}, k);
    // Reference: full sort by (|v| desc, idx asc).
    std::vector<std::int32_t> ref(v.size());
    std::iota(ref.begin(), ref.end(), 0);
    std::sort(ref.begin(), ref.end(), [&](std::int32_t a, std::int32_t b) {
      const float aa = std::fabs(v[a]), bb = std::fabs(v[b]);
      if (aa != bb) return aa > bb;
      return a < b;
    });
    ref.resize(k);
    EXPECT_EQ(got, ref) << "k=" << k;
  }
}

TEST(TopK, ClampsKToSize) {
  std::vector<float> v{3.0f, -1.0f};
  EXPECT_EQ(top_k_indices({v.data(), v.size()}, 10).size(), 2u);
  EXPECT_TRUE(top_k_indices({v.data(), v.size()}, 0).empty());
}

TEST(TopK, DeterministicTieBreakPrefersSmallIndex) {
  std::vector<float> v{1.0f, -1.0f, 1.0f, 0.5f};
  const auto idx = top_k_indices({v.data(), v.size()}, 2);
  EXPECT_EQ(idx[0], 0);
  EXPECT_EQ(idx[1], 1);
}

// Selection path vs the retained seed heap: identical (index, value)
// sequences across dimension regimes (empty, single, k-boundary, prefilter
// territory), heavy ties, and k >= D.
TEST(TopK, QuickselectMatchesHeapAcrossSizes) {
  util::Rng rng(101);
  const std::size_t k = 37;
  for (const std::size_t d : {std::size_t{0}, std::size_t{1}, k, k + 1, 10 * k, std::size_t{8192},
                              std::size_t{100000}}) {
    const auto v = random_vector(d, rng);
    const std::span<const float> vs{v.data(), v.size()};
    EXPECT_EQ(top_k_entries(vs, k), reference::top_k_entries_heap(vs, k)) << "D=" << d;
  }
}

TEST(TopK, QuickselectMatchesHeapUnderTies) {
  util::Rng rng(103);
  for (const std::size_t d : {std::size_t{64}, std::size_t{5000}, std::size_t{20000}}) {
    // Quantize to a handful of magnitudes so the k-th boundary is a long tie
    // run and the index tie-break does real work.
    std::vector<float> v(d);
    for (auto& x : v) {
      x = static_cast<float>(rng.uniform_int(-3, 3));
    }
    const std::span<const float> vs{v.data(), v.size()};
    for (const std::size_t k : {std::size_t{1}, std::size_t{50}, d / 2, d, d + 5}) {
      EXPECT_EQ(top_k_entries(vs, k), reference::top_k_entries_heap(vs, k)) << "D=" << d << " k=" << k;
    }
  }
}

// Regression: a mostly-zero vector (the post-reset accumulator shape) makes
// the prefilter's sampled threshold 0.0, which used to admit every entry
// (|v| >= 0 always) — the selection stayed exact but the "prefilter" was a
// silent full copy. It must now bail to the dense path and, above all, still
// match the heap reference exactly, including index-ordered zero ties.
TEST(TopK, MostlyZeroVectorMatchesHeapReference) {
  util::Rng rng(109);
  const std::size_t d = 8192;  // >= the prefilter's minimum dimension
  std::vector<float> v(d, 0.0f);
  for (std::size_t i = 0; i < d / 100; ++i) {  // 99% zeros
    v[rng.uniform_u64(d)] = static_cast<float>(rng.normal());
  }
  const std::span<const float> vs{v.data(), v.size()};
  for (const std::size_t k : {std::size_t{10}, d / 100, std::size_t{500}, d / 2}) {
    EXPECT_EQ(top_k_entries(vs, k), reference::top_k_entries_heap(vs, k)) << "k=" << k;
  }
  // All-zero vector: pure tie-break territory.
  std::fill(v.begin(), v.end(), 0.0f);
  EXPECT_EQ(top_k_entries(vs, 64), reference::top_k_entries_heap(vs, 64));
}

// A persistent workspace carries the previous call's k-th magnitude as a
// prefilter seed. Whatever the hint's hit/miss pattern — vectors mutating
// between calls, entries zeroed (reset), k shrinking and growing — the
// selection must stay exactly the heap reference.
TEST(TopK, ThresholdHintStaysExactAcrossMutatingRounds) {
  util::Rng rng(113);
  const std::size_t d = 16384;
  std::vector<float> v(d);
  for (auto& x : v) x = static_cast<float>(rng.normal());
  const std::span<const float> vs{v.data(), v.size()};
  TopKWorkspace ws;
  SparseVector got;
  const std::size_t ks[] = {200, 200, 50, 400, 3, 400, 200};
  for (std::size_t round = 0; round < 20; ++round) {
    const std::size_t k = ks[round % (sizeof(ks) / sizeof(ks[0]))];
    top_k_entries(vs, k, ws, got);
    EXPECT_EQ(got, reference::top_k_entries_heap(vs, k)) << "round " << round << " k=" << k;
    // FAB-style mutation: zero the selected entries, accumulate fresh noise.
    for (const auto& e : got) v[static_cast<std::size_t>(e.index)] = 0.0f;
    for (auto& x : v) x += 0.2f * static_cast<float>(rng.normal());
  }
  // A hint surviving into a mostly-zero regime must still be exact.
  std::fill(v.begin(), v.end(), 0.0f);
  v[7] = 3.0f;
  v[9000] = -2.0f;
  top_k_entries(vs, 128, ws, got);
  EXPECT_EQ(got, reference::top_k_entries_heap(vs, 128));
}

// Threshold hints are keyed by stable client id, not by participant slot: a
// churned round must not hand client 7's hint to client 2.
TEST(TopK, UploadsKeyWorkspacesByClientId) {
  util::Rng rng(117);
  const std::size_t d = 8192, k = 64;
  std::vector<float> a = random_vector(d, rng), b = a;
  for (auto& x : b) x *= 100.0f;  // same landscape, 100x the magnitudes
  std::vector<TopKWorkspace> ws;
  std::vector<ClientHint> hints;
  std::vector<SparseVector> uploads;
  const std::size_t ids_ab[] = {2, 7};
  top_k_uploads({{a.data(), d}, {b.data(), d}}, {}, k, {ids_ab, 2}, ws, hints, uploads);
  ASSERT_GE(hints.size(), 8u);
  const float hint_a = hints[2].threshold;
  const float hint_b = hints[7].threshold;
  EXPECT_GT(hint_a, 0.0f);
  EXPECT_FLOAT_EQ(hint_b, 100.0f * hint_a);  // each hint tracks its client
  EXPECT_EQ(hints[2].k, k);
  EXPECT_EQ(hints[0].threshold, 0.0f);  // untouched slots stay empty
  // Next round only client 7 participates, in slot 0: it must reuse ITS hint
  // and stay exact.
  std::vector<SparseVector> uploads2;
  const std::size_t ids_b[] = {7};
  top_k_uploads({{b.data(), d}}, {}, k, {ids_b, 1}, ws, hints, uploads2);
  EXPECT_EQ(uploads2[0], reference::top_k_entries_heap({b.data(), d}, k));
  EXPECT_EQ(hints[2].threshold, hint_a);  // absent client's hint untouched
}

// top_k_uploads with a registered pool must reproduce the serial loop byte
// for byte: each client owns its hint and output slot, each pool slot its
// workspace. Two rounds, so the second runs on the hints the first stored.
TEST(TopK, PooledUploadsMatchSerial) {
  util::Rng rng(111);
  const std::size_t n = 8, d = 32768, k = 100;
  std::vector<std::vector<float>> vecs;
  for (std::size_t i = 0; i < n; ++i) vecs.push_back(random_vector(d, rng));
  std::vector<std::span<const float>> views;
  for (const auto& v : vecs) views.push_back({v.data(), v.size()});

  std::vector<TopKWorkspace> ws_serial, ws_pooled;
  std::vector<ClientHint> hints_serial, hints_pooled;
  std::vector<SparseVector> serial, pooled;
  util::ThreadPool pool(4);
  for (int round = 0; round < 2; ++round) {
    top_k_uploads(views, {}, k, {}, ws_serial, hints_serial, serial);
    tensor::set_parallel_pool(&pool);
    top_k_uploads(views, {}, k, {}, ws_pooled, hints_pooled, pooled);
    tensor::set_parallel_pool(nullptr);

    ASSERT_EQ(serial.size(), pooled.size());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(serial[i], pooled[i]) << "round " << round << " client " << i;
      EXPECT_EQ(serial[i], reference::top_k_entries_heap(views[i], k)) << "round " << round;
      EXPECT_EQ(hints_serial[i].threshold, hints_pooled[i].threshold) << "client " << i;
    }
    // FAB-style consumption between rounds.
    for (std::size_t i = 0; i < n; ++i) {
      for (const auto& e : serial[i]) vecs[i][static_cast<std::size_t>(e.index)] *= 0.5f;
    }
  }
}

TEST(TopK, ScratchApiStopsAllocatingAfterWarmup) {
  util::Rng rng(107);
  const std::size_t d = 50000, k = 500;
  TopKWorkspace ws;
  SparseVector out;
  std::vector<std::int32_t> idx_out;
  // Two distinct inputs; warm both so the workspace holds the max capacity
  // either needs, then assert repeated calls never touch the allocator again.
  const auto v1 = random_vector(d, rng);
  const auto v2 = random_vector(d, rng);
  for (const auto* v : {&v1, &v2}) {
    top_k_entries({v->data(), v->size()}, k, ws, out);
    top_k_indices({v->data(), v->size()}, k, ws, idx_out);
  }
  const std::size_t ws_cap = ws.capacity();
  const std::size_t out_cap = out.capacity();
  const SparseEntry* out_data = out.data();
  const std::size_t idx_cap = idx_out.capacity();
  for (int round = 0; round < 10; ++round) {
    const auto& v = (round % 2 == 0) ? v1 : v2;
    top_k_entries({v.data(), v.size()}, k, ws, out);
    top_k_indices({v.data(), v.size()}, k, ws, idx_out);
    EXPECT_EQ(ws.capacity(), ws_cap) << "workspace reallocated in round " << round;
    EXPECT_EQ(out.capacity(), out_cap);
    EXPECT_EQ(out.data(), out_data) << "output buffer reallocated in round " << round;
    EXPECT_EQ(idx_out.capacity(), idx_cap);
    ASSERT_EQ(out.size(), k);
  }
}

// ------------------------------------------------------- top_keys_desc ----

// The oracle: sort every key descending, keep the first k.
std::vector<std::uint64_t> sorted_top_keys(std::vector<std::uint64_t> keys, std::size_t k) {
  std::sort(keys.begin(), keys.end(), std::greater<std::uint64_t>());
  keys.resize(std::min(k, keys.size()));
  return keys;
}

// Runs the kernel at k ∈ {1, n/3, n−1, n} (and 0) on one reused scratch.
void expect_top_keys_match_oracle(const std::vector<std::uint64_t>& keys, TopKeys& t,
                                  const std::string& what) {
  const std::size_t n = keys.size();
  for (const std::size_t k : {std::size_t{0}, std::size_t{1}, n / 3, n > 0 ? n - 1 : 0, n,
                              n + 7}) {
    top_keys_desc(keys, k, t);
    ASSERT_EQ(t.out, sorted_top_keys(keys, k)) << what << " n=" << n << " k=" << k;
  }
}

std::vector<std::uint64_t> keys_of(const std::vector<float>& v) {
  std::vector<std::uint64_t> keys(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) keys[i] = make_key(v[i], i);
  return keys;
}

TEST(TopKeys, MatchesSortOracleAcrossSizes) {
  util::Rng rng(201);
  TopKeys t;
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{511},
                              std::size_t{512}, std::size_t{513}, std::size_t{4096},
                              std::size_t{60000}}) {
    std::vector<std::uint64_t> keys = keys_of(random_vector(n, rng));
    expect_top_keys_match_oracle(keys, t, "index order");
    // Keys in no particular order, as a shard's candidates arrive.
    for (std::size_t i = n; i > 1; --i) std::swap(keys[i - 1], keys[rng.uniform_u64(i)]);
    expect_top_keys_match_oracle(keys, t, "shuffled");
  }
}

TEST(TopKeys, EqualMagnitudesAndIdenticalKeysStayLinearithmic) {
  // One magnitude: the keys differ only in the index word. Identical keys:
  // the whole input is one bucket, which must be sorted, not insertion-
  // sorted (60,000² steps would take seconds here).
  TopKeys t;
  std::vector<float> v(60000);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = i % 3 == 0 ? -0.75f : 0.75f;
  expect_top_keys_match_oracle(keys_of(v), t, "equal magnitudes");
  const std::vector<std::uint64_t> same(60000, make_key(0.75f, 42));
  expect_top_keys_match_oracle(same, t, "identical keys");
}

TEST(TopKeys, SpecialValuesRankAsKeysHSays) {
  // ±0, subnormals, ±inf and NaN mixed into ordinary values. NaN's bits
  // rank above inf's; -0 and +0 tie on magnitude and break on index.
  util::Rng rng(203);
  const float inf = std::numeric_limits<float>::infinity();
  const float specials[] = {0.0f,
                            -0.0f,
                            std::numeric_limits<float>::denorm_min(),
                            -std::numeric_limits<float>::denorm_min(),
                            std::numeric_limits<float>::min() / 3.0f,
                            inf,
                            -inf,
                            std::numeric_limits<float>::quiet_NaN(),
                            -std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::max()};
  TopKeys t;
  for (const std::size_t n : {std::size_t{300}, std::size_t{4096}}) {
    std::vector<float> v = random_vector(n, rng);
    for (std::size_t i = 0; i < n; i += 5) v[i] = specials[rng.uniform_u64(std::size(specials))];
    expect_top_keys_match_oracle(keys_of(v), t, "specials");
    top_keys_desc(keys_of(v), 1, t);
    EXPECT_TRUE(std::isnan(v[key_index(t.out[0])])) << "NaN must rank first, n=" << n;
  }
}

TEST(TopKeys, MagnitudesSpanningTheExponentRange) {
  util::Rng rng(205);
  std::vector<float> v(60000);
  for (float& x : v) {
    const int e = static_cast<int>(rng.uniform_int(-149, 127));
    x = std::ldexp(static_cast<float>(rng.uniform(1.0, 2.0)), e);
    if (!std::isfinite(x)) x = std::numeric_limits<float>::max();
    if (rng.uniform() < 0.5) x = -x;
  }
  TopKeys t;
  expect_top_keys_match_oracle(keys_of(v), t, "exponent range");
}

TEST(TopKeys, DuplicateKeysComeOutAdjacent) {
  // FAB's fill: two clients can offer the same index with the same |v|,
  // giving bit-identical keys. They must come out next to each other (the
  // fill's first-occurrence dedup relies on it), as a full sort places them.
  util::Rng rng(207);
  TopKeys t;
  for (const std::size_t distinct : {std::size_t{100}, std::size_t{3000}}) {
    const std::vector<std::uint64_t> base = keys_of(random_vector(distinct, rng));
    std::vector<std::uint64_t> keys;
    for (const std::uint64_t key : base) {
      for (std::uint64_t c = rng.uniform_u64(3) + 1; c > 0; --c) keys.push_back(key);
    }
    for (std::size_t i = keys.size(); i > 1; --i) std::swap(keys[i - 1], keys[rng.uniform_u64(i)]);
    expect_top_keys_match_oracle(keys, t, "duplicates");
  }
}

TEST(TopK, EntriesCarryOriginalSignedValues) {
  std::vector<float> v{0.1f, -5.0f, 2.0f};
  const auto entries = top_k_entries({v.data(), v.size()}, 2);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].index, 1);
  EXPECT_FLOAT_EQ(entries[0].value, -5.0f);
  EXPECT_EQ(entries[1].index, 2);
  EXPECT_FLOAT_EQ(entries[1].value, 2.0f);
}

// --------------------------------------------------------- sparse vector ---

TEST(SparseVector, ToDenseAndAxpy) {
  SparseVector sv{{1, 2.0f}, {3, -1.0f}};
  const auto dense = to_dense(sv, 5);
  EXPECT_FLOAT_EQ(dense[1], 2.0f);
  EXPECT_FLOAT_EQ(dense[3], -1.0f);
  EXPECT_FLOAT_EQ(dense[0], 0.0f);

  std::vector<float> dst(5, 1.0f);
  axpy_sparse(2.0f, sv, {dst.data(), dst.size()});
  EXPECT_FLOAT_EQ(dst[1], 5.0f);
  EXPECT_FLOAT_EQ(dst[3], -1.0f);

  EXPECT_THROW(to_dense(SparseVector{{9, 1.0f}}, 5), std::out_of_range);
}

TEST(SparseVector, ToDenseAccumulatesDuplicateIndices) {
  // Contract: duplicated indices accumulate (matching axpy_sparse) — no
  // occurrence is silently dropped.
  SparseVector sv{{2, 1.5f}, {0, 1.0f}, {2, 2.0f}, {2, -0.5f}};
  const auto dense = to_dense(sv, 4);
  EXPECT_FLOAT_EQ(dense[2], 3.0f);
  EXPECT_FLOAT_EQ(dense[0], 1.0f);
  EXPECT_FLOAT_EQ(dense[1], 0.0f);

  std::vector<float> via_axpy(4, 0.0f);
  axpy_sparse(1.0f, sv, {via_axpy.data(), via_axpy.size()});
  for (std::size_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(dense[i], via_axpy[i]);
}

TEST(SparseVector, SubtractMergesUnion) {
  SparseVector a{{1, 2.0f}, {4, 1.0f}, {7, 3.0f}};
  SparseVector b{{1, 2.0f}, {5, -1.0f}};
  const auto d = sparse_subtract(a, b);
  // index 1 cancels exactly; 4 and 7 from a; 5 negated from b.
  ASSERT_EQ(d.size(), 3u);
  EXPECT_EQ(d[0].index, 4);
  EXPECT_FLOAT_EQ(d[0].value, 1.0f);
  EXPECT_EQ(d[1].index, 5);
  EXPECT_FLOAT_EQ(d[1].value, 1.0f);
  EXPECT_EQ(d[2].index, 7);
}

TEST(SparseVector, SubtractEmptyCases) {
  SparseVector a{{2, 1.0f}};
  EXPECT_EQ(sparse_subtract(a, {}).size(), 1u);
  EXPECT_EQ(sparse_subtract({}, a).size(), 1u);
  EXPECT_FLOAT_EQ(sparse_subtract({}, a)[0].value, -1.0f);
  EXPECT_TRUE(sparse_subtract({}, {}).empty());
}

// ------------------------------------------------------------ accumulator --

TEST(Accumulator, AddAndResetSemantics) {
  GradientAccumulator acc(4);
  std::vector<float> g{1, 2, 3, 4};
  acc.add({g.data(), g.size()});
  acc.add({g.data(), g.size()});
  EXPECT_FLOAT_EQ(acc.value()[2], 6.0f);
  const std::int32_t idx[] = {1, 3};
  acc.reset_indices({idx, 2});
  EXPECT_FLOAT_EQ(acc.value()[1], 0.0f);
  EXPECT_FLOAT_EQ(acc.value()[3], 0.0f);
  EXPECT_FLOAT_EQ(acc.value()[0], 2.0f);
  acc.reset_all();
  EXPECT_FLOAT_EQ(acc.value()[0], 0.0f);
}

TEST(Accumulator, ValidatesDimensions) {
  GradientAccumulator acc(3);
  std::vector<float> wrong{1, 2};
  EXPECT_THROW(acc.add({wrong.data(), wrong.size()}), std::invalid_argument);
  const std::int32_t bad[] = {5};
  EXPECT_THROW(acc.reset_indices({bad, 1}), std::out_of_range);
}

// Gradient-mass conservation, property-tested against a shadow model: after
// any interleaving of (possibly sparse) adds and resets, every added value
// is either still in value() or was consumed by the reset that transmitted
// it — i.e. the tiered store matches a plain element-wise array exactly.
// (±0 compare equal; the shadow uses the same +=, so even bits agree.)
TEST(Accumulator, TieredStoreConservesMassAgainstShadowModel) {
  util::Rng rng(41);
  for (const std::size_t dim : {std::size_t{1}, std::size_t{63}, std::size_t{64},
                                std::size_t{65}, std::size_t{1000}, std::size_t{8192}}) {
    GradientAccumulator acc(dim);
    std::vector<float> shadow(dim, 0.0f);
    std::vector<float> grad(dim);
    std::vector<std::int32_t> resets;
    for (int step = 0; step < 40; ++step) {
      const int op = static_cast<int>(rng.uniform_u64(4));
      if (op < 2) {
        // Dense or chunk-sparse add (sparse exercises the zero-group skip).
        const bool sparse = op == 1;
        for (std::size_t i = 0; i < dim; ++i) {
          const bool zero = sparse && (i / kAccumulatorChunk) % 3 != 0;
          grad[i] = zero ? 0.0f : static_cast<float>(rng.normal());
        }
        acc.add({grad.data(), grad.size()});
        for (std::size_t i = 0; i < dim; ++i) shadow[i] += grad[i];
      } else if (op == 2) {
        resets.clear();
        const std::size_t k = rng.uniform_u64(dim) + 1;
        for (std::size_t j = 0; j < k; ++j) {
          resets.push_back(static_cast<std::int32_t>(rng.uniform_u64(dim)));
        }
        acc.reset_indices({resets.data(), resets.size()});
        for (const std::int32_t idx : resets) shadow[static_cast<std::size_t>(idx)] = 0.0f;
      } else {
        acc.reset_all();
        std::fill(shadow.begin(), shadow.end(), 0.0f);
      }
      ASSERT_EQ(acc.value().size(), dim);
      for (std::size_t i = 0; i < dim; ++i) {
        ASSERT_EQ(acc.value()[i], shadow[i]) << "dim=" << dim << " step=" << step << " i=" << i;
      }
    }
  }
}

// Chunk-summary invariants under the same interleavings: every bound is a
// valid upper bound on its chunk's max |a| (exact right after an add touched
// the chunk, stale-high after resets), a zero bound means an all-zero chunk,
// the dirty count matches the bounds, and the dirty-range iterator covers
// every nonzero coordinate.
TEST(Accumulator, ChunkSummariesStayConsistentUnderInterleavedAddReset) {
  util::Rng rng(43);
  const std::size_t dim = 5000;  // 79 chunks with a partial tail
  GradientAccumulator acc(dim);
  std::vector<float> grad(dim);
  std::vector<std::int32_t> resets;
  const auto check = [&](const char* what, bool bounds_exact) {
    const auto v = acc.value();
    const auto cm = acc.chunk_max();
    ASSERT_EQ(cm.size(), accumulator_chunks(dim));
    std::size_t dirty = 0;
    for (std::size_t c = 0; c < cm.size(); ++c) {
      float mx = 0.0f;
      const std::size_t end = std::min(dim, (c + 1) * kAccumulatorChunk);
      for (std::size_t i = c * kAccumulatorChunk; i < end; ++i) {
        mx = std::max(mx, std::fabs(v[i]));
      }
      ASSERT_GE(cm[c], mx) << what << " chunk " << c << ": bound below actual max";
      if (bounds_exact) ASSERT_EQ(cm[c], mx) << what << " chunk " << c;
      if (cm[c] == 0.0f) ASSERT_EQ(mx, 0.0f) << what << " chunk " << c << ": zero bound, mass";
      dirty += cm[c] > 0.0f ? 1 : 0;
    }
    ASSERT_EQ(acc.dirty_chunks(), dirty) << what;
    // Dirty ranges must cover every nonzero coordinate exactly once.
    std::vector<bool> covered(dim, false);
    acc.for_each_dirty_range([&](std::size_t begin, std::size_t end) {
      ASSERT_LT(begin, end);
      for (std::size_t i = begin; i < end; ++i) {
        ASSERT_FALSE(covered[i]) << what << ": range overlap at " << i;
        covered[i] = true;
      }
    });
    for (std::size_t i = 0; i < dim; ++i) {
      if (v[i] != 0.0f) ASSERT_TRUE(covered[i]) << what << ": nonzero " << i << " uncovered";
    }
  };
  for (int round = 0; round < 15; ++round) {
    for (std::size_t i = 0; i < dim; ++i) {
      const bool zero = (i / kAccumulatorChunk) % 2 == round % 2;
      grad[i] = zero ? 0.0f : static_cast<float>(rng.normal());
    }
    acc.add({grad.data(), grad.size()});
    check("after add", /*bounds_exact=*/round == 0);
    resets.clear();
    for (std::size_t j = 0; j < 200; ++j) {
      resets.push_back(static_cast<std::int32_t>(rng.uniform_u64(dim)));
    }
    acc.reset_indices({resets.data(), resets.size()});
    check("after reset", /*bounds_exact=*/false);
  }
  acc.reset_all();
  check("after reset_all", /*bounds_exact=*/true);
  EXPECT_EQ(acc.dirty_chunks(), 0u);
}

// Fuzz add() through a randomized interleaving of dense adds, sparse adds,
// partial resets and full resets. At every step the store must match a dense
// shadow model bit-for-bit, the chunk bounds must stay valid upper bounds
// (zero only for all-zero chunks), and the chunk-pruned selection over those
// bounds, with a threshold hint persisted across steps, must equal the
// reference scan: a dense selection from a fresh workspace.
TEST(Accumulator, FuzzedAddScanMatchesReferenceScanAndShadow) {
  util::Rng rng(47);
  for (const std::size_t dim :
       {std::size_t{65}, std::size_t{1000}, std::size_t{4096}}) {
    GradientAccumulator acc(dim);
    std::vector<float> shadow(dim, 0.0f);
    std::vector<float> grad(dim);
    std::vector<std::int32_t> resets;
    TopKWorkspace ws;
    SparseVector pruned;
    for (int step = 0; step < 60; ++step) {
      const int op = static_cast<int>(rng.uniform_u64(8));
      if (op < 5) {
        // Dense or chunk-sparse add (sparse exercises the zero-group skip).
        const bool sparse = op & 1;
        for (std::size_t i = 0; i < dim; ++i) {
          const bool zero = sparse && (i / kAccumulatorChunk) % 3 != 0;
          grad[i] = zero ? 0.0f : static_cast<float>(rng.normal());
        }
        acc.add({grad.data(), grad.size()});
        for (std::size_t i = 0; i < dim; ++i) shadow[i] += grad[i];
      } else if (op < 7) {
        resets.clear();
        const std::size_t k = rng.uniform_u64(dim / 4) + 1;
        for (std::size_t j = 0; j < k; ++j) {
          resets.push_back(static_cast<std::int32_t>(rng.uniform_u64(dim)));
        }
        acc.reset_indices({resets.data(), resets.size()});
        for (const std::int32_t idx : resets) shadow[static_cast<std::size_t>(idx)] = 0.0f;
      } else {
        acc.reset_all();
        std::fill(shadow.begin(), shadow.end(), 0.0f);
      }
      for (std::size_t i = 0; i < dim; ++i) {
        ASSERT_EQ(acc.value()[i], shadow[i]) << "dim=" << dim << " step=" << step;
      }
      const auto cm = acc.chunk_max();
      ASSERT_EQ(cm.size(), accumulator_chunks(dim));
      std::size_t dirty = 0;
      for (std::size_t c = 0; c < cm.size(); ++c) {
        float mx = 0.0f;
        const std::size_t end = std::min(dim, (c + 1) * kAccumulatorChunk);
        for (std::size_t i = c * kAccumulatorChunk; i < end; ++i) {
          mx = std::max(mx, std::fabs(shadow[i]));
        }
        ASSERT_GE(cm[c], mx) << "dim=" << dim << " step=" << step << " chunk " << c;
        if (cm[c] == 0.0f) ASSERT_EQ(mx, 0.0f) << "dim=" << dim << " chunk " << c;
        dirty += cm[c] > 0.0f ? 1 : 0;
      }
      ASSERT_EQ(acc.dirty_chunks(), dirty) << "dim=" << dim << " step=" << step;
      const std::size_t k = rng.uniform_u64(dim / 8) + 1;
      top_k_entries(acc.value(), cm, k, ws, pruned);
      ASSERT_EQ(pruned, top_k_entries({shadow.data(), shadow.size()}, k))
          << "dim=" << dim << " step=" << step << " k=" << k;
    }
  }
}

// A NaN gradient entry (diverged run) must not fall out of the chunk bounds:
// max reductions silently drop NaN, so add() pins such chunks to an infinite
// bound — always dirty, never pruned — and reset_all still clears them.
TEST(Accumulator, NanGradientKeepsChunkDirty) {
  const std::size_t dim = 256;  // 4 chunks
  GradientAccumulator acc(dim);
  std::vector<float> grad(dim, 0.0f);
  grad[kAccumulatorChunk + 3] = std::numeric_limits<float>::quiet_NaN();
  acc.add({grad.data(), grad.size()});
  EXPECT_EQ(acc.dirty_chunks(), 1u);
  EXPECT_EQ(acc.chunk_max()[1], std::numeric_limits<float>::infinity());
  // The poisoned chunk is never pruned (inf >= any threshold), and the
  // zero-bound guarantee stays intact for its neighbours.
  EXPECT_EQ(acc.chunk_max()[0], 0.0f);
  acc.reset_all();
  for (const float v : acc.value()) EXPECT_EQ(v, 0.0f);  // NaN actually cleared
  EXPECT_EQ(acc.dirty_chunks(), 0u);
}

// The chunk-aware selection must equal the dense path (and so the heap
// reference) bit for bit in every regime: dense vectors, mostly-zero vectors
// (including k > #nonzeros, where the full sort pads with zeros in index
// order), stale-high bounds after resets, and hint hit/miss sequences.
TEST(TopK, ChunkAwareSelectionMatchesHeapEverywhere) {
  util::Rng rng(47);
  const std::size_t d = 16384;
  GradientAccumulator acc(d);
  std::vector<float> grad(d);
  TopKWorkspace ws_tiered, ws_dense;
  SparseVector got_tiered, got_dense;
  const std::size_t ks[] = {1, 64, 500, 120, 2000, d, d + 7};
  for (int round = 0; round < 24; ++round) {
    // Rotate density: fully dense, chunk-sparse, almost-empty.
    const int mode = round % 3;
    for (std::size_t i = 0; i < d; ++i) {
      const std::size_t c = i / kAccumulatorChunk;
      const bool zero = (mode == 1 && c % 7 != 0) || (mode == 2 && c != 3 && c != 200);
      grad[i] = zero ? 0.0f : static_cast<float>(rng.normal());
    }
    acc.add({grad.data(), grad.size()});
    for (const std::size_t k : ks) {
      top_k_entries(acc.value(), acc.chunk_max(), k, ws_tiered, got_tiered);
      top_k_entries(acc.value(), k, ws_dense, got_dense);
      ASSERT_EQ(got_tiered, got_dense) << "round " << round << " k=" << k;
      ASSERT_EQ(got_tiered, reference::top_k_entries_heap(acc.value(), k)) << "round " << round << " k=" << k;
    }
    // FAB-style consumption leaves stale-high bounds behind.
    std::vector<std::int32_t> consumed;
    for (const auto& e : got_tiered) consumed.push_back(e.index);
    acc.reset_indices({consumed.data(), consumed.size()});
    top_k_entries(acc.value(), acc.chunk_max(), 300, ws_tiered, got_tiered);
    ASSERT_EQ(got_tiered, reference::top_k_entries_heap(acc.value(), 300)) << "post-reset round " << round;
  }
}

TEST(TopK, ChunkAwareRejectsMismatchedSummary) {
  std::vector<float> v(1000, 1.0f);
  std::vector<float> bad_summary(3, 1.0f);  // needs accumulator_chunks(1000) = 16
  TopKWorkspace ws;
  SparseVector out;
  EXPECT_THROW(top_k_entries({v.data(), v.size()}, {bad_summary.data(), bad_summary.size()}, 5,
                             ws, out),
               std::invalid_argument);
}

// From 2.5·k >= D on the sampled prefilter would keep almost every entry, so
// the selection goes straight to the dense collection. Just below (0.39·D)
// and above that line, with and without chunk summaries and with a hint
// from another depth, the uploads equal a sort-then-truncate oracle.
TEST(TopK, LargeKSelectionMatchesSortOracle) {
  util::Rng rng(71);
  const std::size_t d = 20000;
  for (const bool with_zeros : {false, true}) {
    std::vector<float> v = random_vector(d, rng);
    if (with_zeros) {
      for (std::size_t i = 0; i < d; i += 3) v[i] = 0.0f;
    }
    GradientAccumulator acc(d);
    acc.add({v.data(), d});
    std::vector<std::int32_t> order(d);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&v](std::int32_t a, std::int32_t b) {
      const float fa = std::fabs(v[static_cast<std::size_t>(a)]);
      const float fb = std::fabs(v[static_cast<std::size_t>(b)]);
      return fa != fb ? fa > fb : a < b;
    });
    TopKWorkspace ws_dense, ws_tiered;
    SparseVector got_dense, got_tiered;
    for (const std::size_t k : {d * 39 / 100, d * 2 / 5, d * 3 / 5, d - 1, d / 10}) {
      const std::string label = "zeros " + std::to_string(with_zeros) + " k=" + std::to_string(k);
      SparseVector want(k);
      for (std::size_t p = 0; p < k; ++p) {
        want[p] = SparseEntry{order[p], v[static_cast<std::size_t>(order[p])]};
      }
      TopKWorkspace fresh;
      SparseVector got;
      top_k_entries({v.data(), d}, k, fresh, got);
      EXPECT_EQ(got, want) << label;
      // The persistent workspaces carry the previous depth's hint.
      top_k_entries(acc.value(), k, ws_dense, got_dense);
      EXPECT_EQ(got_dense, want) << label << " hinted";
      top_k_entries(acc.value(), acc.chunk_max(), k, ws_tiered, got_tiered);
      EXPECT_EQ(got_tiered, want) << label << " chunk-aware";
    }
  }
}

// -------------------------------------------------------------- FAB-top-k --

// Hash-set κ oracle: given per-client uploads sorted strongest-first, the
// largest κ ∈ [0, k] with |∪_i J_i^κ| ≤ k. The union size is nondecreasing
// in κ, so binary search works.
std::size_t find_kappa(const std::vector<SparseVector>& uploads, std::size_t k) {
  const auto union_size = [&uploads](std::size_t kappa) {
    std::unordered_set<std::int32_t> seen;
    for (const auto& up : uploads) {
      const std::size_t take = std::min(kappa, up.size());
      for (std::size_t j = 0; j < take; ++j) seen.insert(up[j].index);
    }
    return seen.size();
  };
  std::size_t lo = 0, hi = k;  // invariant: union_size(lo) <= k
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo + 1) / 2;
    if (union_size(mid) <= k) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return lo;
}

// The oracle's κ against a brute-force union, and FabTopK::round's downlink
// against the oracle: J contains every client's κ strongest uploads, is
// filled from the (κ+1)-th layer only, and reaches k whenever κ < k.
TEST(FabTopK, KappaSearchMatchesBruteForce) {
  util::Rng rng(3);
  const std::size_t dim = 64;
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 1 + rng.uniform_u64(5);
    const std::size_t k = 1 + rng.uniform_u64(20);
    std::vector<std::vector<float>> vecs;
    std::vector<SparseVector> uploads(n);
    for (auto& up : uploads) {
      vecs.push_back(random_vector(dim, rng));
      up = top_k_entries({vecs.back().data(), dim}, k);
    }
    const std::size_t kappa = find_kappa(uploads, k);
    const auto prefix_union = [&](std::size_t kk) {
      std::set<std::int32_t> s;
      for (const auto& up : uploads) {
        for (std::size_t j = 0; j < std::min(kk, up.size()); ++j) s.insert(up[j].index);
      }
      return s;
    };
    EXPECT_LE(prefix_union(kappa).size(), k);
    if (kappa < k) {
      EXPECT_GT(prefix_union(kappa + 1).size(), k);
    }

    FabTopK method(dim);
    const auto out = method.round(make_input(vecs, equal_weights(n)), k);
    std::set<std::int32_t> selected;
    for (const auto& e : out.update) selected.insert(e.index);
    for (const std::int32_t j : prefix_union(kappa)) {
      EXPECT_EQ(selected.count(j), 1u) << "trial " << trial << " index " << j;
    }
    const auto layer = prefix_union(kappa + 1);
    for (const std::int32_t j : selected) {
      EXPECT_EQ(layer.count(j), 1u) << "trial " << trial << " index " << j;
    }
    if (kappa < k) {
      EXPECT_EQ(selected.size(), k) << "trial " << trial;
    }
  }
}

struct FabCase {
  std::size_t n, dim, k;
};

class FabTopKProperty : public ::testing::TestWithParam<FabCase> {};

TEST_P(FabTopKProperty, FairnessAndSizeInvariants) {
  const auto [n, dim, k] = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(n * 1000 + dim * 10 + k));
  std::vector<std::vector<float>> vecs;
  // Adversarial scale spread: client 0's gradients dwarf everyone else's, the
  // situation where fairness matters.
  for (std::size_t i = 0; i < n; ++i) {
    vecs.push_back(random_vector(dim, rng, i == 0 ? 100.0 : 1.0));
  }
  const auto weights = equal_weights(n);
  FabTopK method(dim);
  const auto out = method.round(make_input(vecs, weights), k);

  // Downlink has exactly min(k, #distinct uploadable) entries, unique indices.
  EXPECT_LE(out.update.size(), std::min(k, dim));
  std::set<std::int32_t> uniq;
  for (const auto& e : out.update) uniq.insert(e.index);
  EXPECT_EQ(uniq.size(), out.update.size());
  if (n * k >= k && k <= dim) {
    EXPECT_EQ(out.update.size(), std::min(k, dim));
  }

  // Fairness: every client contributes at least ⌊k/N⌋ elements.
  const std::size_t guaranteed = std::min(k, dim) / n;
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_GE(out.contributed[i], guaranteed) << "client " << i;
    EXPECT_EQ(out.contributed[i], out.reset_for(i).size());
  }
  EXPECT_EQ(out.uplink_values, 2.0 * static_cast<double>(std::min(k, dim)));
  EXPECT_EQ(out.downlink_values, 2.0 * static_cast<double>(out.update.size()));
}

INSTANTIATE_TEST_SUITE_P(Sweep, FabTopKProperty,
                         ::testing::Values(FabCase{1, 50, 10}, FabCase{3, 50, 10},
                                           FabCase{4, 100, 4}, FabCase{5, 100, 3},
                                           FabCase{8, 64, 64}, FabCase{10, 200, 20},
                                           FabCase{7, 128, 1}, FabCase{2, 32, 32}));

TEST(FabTopK, AggregationUsesDataWeightsAndUploadMembership) {
  // 2 clients, D=4. Client 0 uploads indices {0,1}; client 1 uploads {1,2}.
  // With weights (0.75, 0.25): b_0 = .75*a00, b_1 = .75*a01+.25*a11, b_2=.25*a12.
  std::vector<std::vector<float>> vecs{{4.0f, 3.0f, 0.0f, 0.1f}, {0.1f, 8.0f, 6.0f, 0.0f}};
  std::vector<double> weights{0.75, 0.25};
  FabTopK method(4);
  const auto out = method.round(make_input(vecs, weights), 2);
  // kappa=1: top-1 of each client = {0} and {1}, union={0,1} size 2 == k.
  ASSERT_EQ(out.update.size(), 2u);
  EXPECT_EQ(out.update[0].index, 0);
  EXPECT_FLOAT_EQ(out.update[0].value, 0.75f * 4.0f);
  EXPECT_EQ(out.update[1].index, 1);
  EXPECT_FLOAT_EQ(out.update[1].value, 0.75f * 3.0f + 0.25f * 8.0f);
  // Client 0 contributed {0,1}, client 1 contributed {1}.
  EXPECT_EQ(out.contributed[0], 2u);
  EXPECT_EQ(out.contributed[1], 1u);
}

TEST(FabTopK, SingleClientEqualsPlainTopK) {
  util::Rng rng(9);
  const auto v = random_vector(100, rng);
  std::vector<std::vector<float>> vecs{v};
  FabTopK method(100);
  const auto out = method.round(make_input(vecs, equal_weights(1)), 10);
  auto expected = top_k_entries({v.data(), v.size()}, 10);
  sort_by_index(expected);
  ASSERT_EQ(out.update.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(out.update[i].index, expected[i].index);
    EXPECT_FLOAT_EQ(out.update[i].value, expected[i].value);
  }
}

TEST(FabTopK, KEqualsDimSelectsEverything) {
  util::Rng rng(11);
  std::vector<std::vector<float>> vecs{random_vector(16, rng), random_vector(16, rng)};
  FabTopK method(16);
  const auto out = method.round(make_input(vecs, equal_weights(2)), 16);
  EXPECT_EQ(out.update.size(), 16u);
}

TEST(FabTopK, FairnessBeatsFubUnderScaleSkew) {
  // With one dominant client, FUB excludes the weak client entirely while FAB
  // guarantees it ⌊k/N⌋ elements — the Fig. 4 (right) story. Deterministic
  // construction: the two clients' important coordinates are disjoint.
  const std::size_t dim = 256, k = 16;
  std::vector<std::vector<float>> vecs(2, std::vector<float>(dim, 0.0f));
  for (std::size_t j = 0; j < 32; ++j) vecs[0][j] = 100.0f;        // strong: 0..31
  for (std::size_t j = 32; j < 64; ++j) vecs[1][j] = 0.01f;        // weak:  32..63
  const auto weights = equal_weights(2);
  FabTopK fab(dim);
  const auto fab_out = fab.round(make_input(vecs, weights), k);
  EXPECT_GE(fab_out.contributed[1], k / 2);

  auto fub = make_method("fub_topk", dim);
  const auto fub_out = fub->round(make_input(vecs, weights), k);
  EXPECT_EQ(fub_out.contributed[1], 0u);  // weak client fully ignored
}

// ------------------------------------------------------- derived k′ probe --

// Bitwise equality of two updates: same indices, same value bits.
void expect_same_update(const SparseVector& got, const SparseVector& want,
                        const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t p = 0; p < got.size(); ++p) {
    ASSERT_EQ(got[p].index, want[p].index) << label << " entry " << p;
    ASSERT_EQ(std::bit_cast<std::uint32_t>(got[p].value),
              std::bit_cast<std::uint32_t>(want[p].value))
        << label << " entry " << p;
  }
}

// Max |v| per accumulator chunk, as GradientAccumulator::chunk_max keeps it.
std::vector<float> chunk_summary(const std::vector<float>& v) {
  std::vector<float> cm(accumulator_chunks(v.size()), 0.0f);
  for (std::size_t i = 0; i < v.size(); ++i) {
    float& c = cm[i / kAccumulatorChunk];
    c = std::max(c, std::fabs(v[i]));
  }
  return cm;
}

// Two rounds over five clients with stable, non-slot ids. Slot 3 has only
// a few non-zeros, so its uploads end in zero padding and a probe at most
// depths keeps fewer than k′ of its non-zeros.
struct ProbeScene {
  static constexpr std::size_t kDim = 6000;
  static constexpr std::size_t kK = 600;
  std::vector<std::vector<float>> first, second;
  std::vector<std::size_t> ids{7, 2, 11, 4, 9};
  std::vector<double> weights{0.3, 0.1, 0.25, 0.15, 0.2};
  std::vector<std::vector<float>> chunk_max;

  ProbeScene() {
    util::Rng rng(41);
    for (auto* vecs : {&first, &second}) {
      for (std::size_t s = 0; s < ids.size(); ++s) {
        if (s == 3) {
          std::vector<float> v(kDim, 0.0f);
          for (std::size_t j = 0; j < 5; ++j) v[rng.uniform_u64(kDim)] = 3.0f;
          vecs->push_back(std::move(v));
        } else {
          vecs->push_back(random_vector(kDim, rng, 1.0 + static_cast<double>(s)));
        }
      }
    }
    for (const auto& v : second) chunk_max.push_back(chunk_summary(v));
  }

  RoundInput input(const std::vector<std::vector<float>>& vecs, std::size_t round) const {
    RoundInput in;
    in.dim = kDim;
    in.round = round;
    in.data_weights = {weights.data(), weights.size()};
    in.client_ids = {ids.data(), ids.size()};
    for (const auto& v : vecs) in.client_vectors.push_back({v.data(), v.size()});
    return in;
  }

  // The second round's input, with chunk summaries.
  RoundInput second_input() const {
    RoundInput in = input(second, 2);
    for (const auto& cm : chunk_max) in.client_chunk_max.push_back({cm.data(), cm.size()});
    return in;
  }

  // Every client's persisted hint, read at the depths a probe touches.
  std::vector<float> hints(const Method& m, std::size_t k_probe) const {
    std::vector<float> out;
    for (const std::size_t id : ids) {
      out.push_back(m.upload_threshold_hint(id, kK));
      out.push_back(m.upload_threshold_hint(id, k_probe));
    }
    return out;
  }
};

// The probe depths the derived path must get right: k′ = 1, ⌊k/N⌋, a k′
// whose κ′ equals the round's κ (the probe differs from the round only in
// the fill), a middle depth, and k − 1.
std::vector<std::size_t> probe_depths(const ProbeScene& scene) {
  const std::size_t k = ProbeScene::kK;
  std::vector<SparseVector> uploads;
  for (const auto& v : scene.second) uploads.push_back(top_k_entries({v.data(), v.size()}, k));
  const std::size_t kappa = find_kappa(uploads, k);
  std::set<std::int32_t> prefix;
  for (const auto& up : uploads) {
    for (std::size_t j = 0; j < kappa; ++j) prefix.insert(up[j].index);
  }
  EXPECT_GE(k - prefix.size(), 2u) << "scene has no fill to split";
  const std::size_t fill_only = prefix.size() + (k - prefix.size()) / 2;
  std::vector<SparseVector> cut = uploads;
  for (auto& up : cut) up.resize(fill_only);
  EXPECT_EQ(find_kappa(cut, fill_only), kappa);
  return {1, k / scene.ids.size(), fill_only, k / 3, k - 1};
}

// round(in, k) then probe_round(in, k′) against round(in, k′) on a second
// FabTopK with the same history: the same update bits, and the probe leaves
// every client's hint where the round put it. The probe outcome carries no
// contributions, which marks the derived path.
TEST(FabTopKProbe, DerivedProbeMatchesRoundAtKPrime) {
  ProbeScene scene;
  const std::size_t k = ProbeScene::kK;
  const std::vector<std::size_t> depths = probe_depths(scene);
  util::ThreadPool pool(3);
  for (const std::size_t shards : {1u, 3u}) {
    if (shards > 1) tensor::set_parallel_pool(&pool);
    for (const std::size_t kp : depths) {
      const std::string label =
          "shards " + std::to_string(shards) + " k' " + std::to_string(kp);
      FabTopK a(ProbeScene::kDim), b(ProbeScene::kDim);
      a.set_sharding(shards);
      b.set_sharding(shards);
      (void)a.round(scene.input(scene.first, 1), k);
      (void)b.round(scene.input(scene.first, 1), k);
      const RoundInput in = scene.second_input();
      (void)a.round(in, k);
      (void)b.round(in, k);
      const std::vector<float> hints = scene.hints(a, kp);

      const RoundOutcome probe = a.probe_round(in, kp);
      const RoundOutcome want = b.round(in, kp);
      EXPECT_TRUE(probe.contributed.empty()) << label << ": the probe was not derived";
      expect_same_update(probe.update, want.update, label);
      EXPECT_EQ(scene.hints(a, kp), hints) << label;
      // A second probe from the same round derives again.
      expect_same_update(a.probe_round(in, kp).update, want.update, label + " (again)");
    }
    tensor::set_parallel_pool(nullptr);
  }
}

// Pure in (round, client, payload): doubles client 2's values.
class DoublingTamper final : public UploadTamper {
 public:
  void apply(std::size_t, std::size_t client_id, SparseVector& payload) const override {
    if (client_id != 2) return;
    for (auto& e : payload) e.value *= 2.0f;
  }
};

// Outside the derived path's basis the probe is round(in, k′) itself — minus
// the hint updates. Each case runs a probe the basis does not cover: another
// round number, other client ids, a tamper hook, screening, robust sums.
TEST(FabTopKProbe, FallsBackToTheRoundOutsideItsBasis) {
  ProbeScene scene;
  const std::size_t k = ProbeScene::kK, kp = 200;
  const DoublingTamper tamper;
  std::vector<std::size_t> other_ids{7, 2, 11, 4, 10};
  for (const std::string c : {"round", "ids", "tamper", "screening", "robust"}) {
    FabTopK a(ProbeScene::kDim), b(ProbeScene::kDim);
    for (FabTopK* m : {&a, &b}) {
      if (c == "screening") m->set_validation(ValidationConfig{.enabled = true});
      if (c == "robust") m->set_robust(RobustConfig{.enabled = true});
    }
    RoundInput in = scene.input(scene.second, 2);
    if (c == "tamper") in.tamper = &tamper;
    (void)a.round(in, k);
    (void)b.round(in, k);
    RoundInput probe_in = in;
    if (c == "round") probe_in.round = 3;
    if (c == "ids") probe_in.client_ids = {other_ids.data(), other_ids.size()};
    const std::vector<float> hints = scene.hints(a, kp);

    const RoundOutcome probe = a.probe_round(probe_in, kp);
    const RoundOutcome want = b.round(probe_in, kp);
    EXPECT_FALSE(probe.contributed.empty()) << c << ": the probe was derived";
    expect_same_update(probe.update, want.update, c);
    EXPECT_EQ(scene.hints(a, kp), hints) << c;
  }
}

// A probe far below k makes the hinted selection bail at its survivor cap
// (k′ < (k − 64)/8); the round it replaces then rewrites the client's hint
// for the shallow depth, which costs the next round's hinted scan a
// fallback pass. No top-k method's probe may do that, on the derived path or
// off it.
TEST(FabTopKProbe, ProbeKeepsSelectionHints) {
  const std::size_t dim = 60000, n = 3, k = 8000, kp = 900;
  util::Rng rng(43);
  std::vector<std::vector<float>> vecs;
  for (std::size_t i = 0; i < n; ++i) vecs.push_back(random_vector(dim, rng));
  for (const char* name : {"fab_topk", "fub_topk", "unidirectional_topk"}) {
    for (const bool screening : {false, true}) {
      auto m = make_method(name, dim);
      m->set_validation(ValidationConfig{.enabled = screening});
      const auto in = make_input(vecs, equal_weights(n));
      (void)m->round(in, k);
      (void)m->round(in, k);  // the second round scans with the hint
      std::vector<float> before;
      for (std::size_t c = 0; c < n; ++c) before.push_back(m->upload_threshold_hint(c, k));
      ASSERT_GT(before[0], 0.0f) << name;
      (void)m->probe_round(in, kp);
      for (std::size_t c = 0; c < n; ++c) {
        EXPECT_EQ(m->upload_threshold_hint(c, k), before[c])
            << name << " screening " << screening << " client " << c;
      }
    }
  }
}

// ------------------------------------------------- FAB κ walk, early exit ---
//
// Scenes built so κ spans ⌊k/N⌋ .. k. Client i ranks [0, D) in its own order
// and holds magnitude D − r at rank r, so its upload is that order's first k
// entries (shorter where a tamper cuts it). Integer magnitudes and dyadic
// weights make every sum exact in float, so the reference's double sums
// compare bitwise. κ is pinned on the reference (the scene is built to have
// it); J, the resets and the update pin FabTopK against the reference.

struct ExitScene {
  std::size_t dim = 256, k = 40;
  std::vector<std::vector<std::int32_t>> ranks;  // per client: indices, strongest first
  std::vector<std::size_t> upload_len;           // per client cut; empty = uncut
};

// A ranking of [0, dim): `head` first, then the remaining indices shuffled.
std::vector<std::int32_t> ranking(std::size_t dim, std::vector<std::int32_t> head,
                                  util::Rng& rng) {
  std::vector<char> used(dim, 0);
  for (const std::int32_t j : head) used[static_cast<std::size_t>(j)] = 1;
  std::vector<std::int32_t> rest;
  for (std::size_t j = 0; j < dim; ++j) {
    if (used[j] == 0) rest.push_back(static_cast<std::int32_t>(j));
  }
  rng.shuffle(rest);
  head.insert(head.end(), rest.begin(), rest.end());
  return head;
}

// Client i's k strongest indices are the block [b·k, (b+1)·k), b = N − 1 − i,
// shuffled: equal-magnitude fill candidates then favour the clients the walk
// meets last at the exit depth.
std::vector<std::vector<std::int32_t>> disjoint_ranks(std::size_t n, std::size_t dim,
                                                      std::size_t k, util::Rng& rng) {
  std::vector<std::vector<std::int32_t>> ranks;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<std::int32_t> head(k);
    std::iota(head.begin(), head.end(), static_cast<std::int32_t>((n - 1 - i) * k));
    rng.shuffle(head);
    ranks.push_back(ranking(dim, std::move(head), rng));
  }
  return ranks;
}

// Every client's strongest `pool` entries are its own shuffle of [0, pool).
std::vector<std::vector<std::int32_t>> overlapping_ranks(std::size_t n, std::size_t dim,
                                                         std::size_t pool, util::Rng& rng) {
  std::vector<std::vector<std::int32_t>> ranks;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<std::int32_t> head(pool);
    std::iota(head.begin(), head.end(), 0);
    rng.shuffle(head);
    ranks.push_back(ranking(dim, std::move(head), rng));
  }
  return ranks;
}

// |∪_i (client i's first c ranked indices)|.
std::size_t prefix_union(const std::vector<std::vector<std::int32_t>>& ranks, std::size_t c) {
  std::set<std::int32_t> u;
  for (const auto& r : ranks) u.insert(r.begin(), r.begin() + static_cast<std::ptrdiff_t>(c));
  return u.size();
}

// Pure in (round, client, payload): cuts client i's upload to len[i].
class CuttingTamper final : public UploadTamper {
 public:
  explicit CuttingTamper(std::vector<std::size_t> len) : len_(std::move(len)) {}
  void apply(std::size_t, std::size_t client_id, SparseVector& payload) const override {
    payload.resize(std::min(payload.size(), len_[client_id]));
  }

 private:
  std::vector<std::size_t> len_;
};

// FabTopK::round against reference::fab_topk_from_uploads at shards 1 and 8,
// then probe_round(in, k′) against a fresh round(in, k′) for k′ ∈ {1,
// ⌊k/N⌋, κ, k − 1}. Returns the reference's κ.
std::size_t expect_round_matches_reference(const ExitScene& sc) {
  const std::size_t n = sc.ranks.size(), dim = sc.dim, k = sc.k;
  std::vector<std::vector<float>> vecs(n, std::vector<float>(dim));
  std::vector<double> weights(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t r = 0; r < dim; ++r) {
      const float mag = static_cast<float>(dim - r);
      vecs[i][static_cast<std::size_t>(sc.ranks[i][r])] = r % 2 == 0 ? mag : -mag;
    }
    weights[i] = std::ldexp(1.0, -static_cast<int>(std::min(i + 1, n - 1)));
  }
  const CuttingTamper tamper(sc.upload_len);

  std::vector<SparseVector> uploads;
  for (std::size_t i = 0; i < n; ++i) {
    uploads.push_back(reference::top_k_entries_heap({vecs[i].data(), dim}, k));
    if (!sc.upload_len.empty()) tamper.apply(1, i, uploads.back());
  }
  const reference::FabTopKResult ref = reference::fab_topk_from_uploads(uploads, weights, k);

  util::ThreadPool pool(3);
  for (const std::size_t shards : {1u, 8u}) {
    if (shards > 1) tensor::set_parallel_pool(&pool);
    const std::string label = "shards " + std::to_string(shards);
    InputHolder h = make_input(vecs, weights);
    if (!sc.upload_len.empty()) h.in.tamper = &tamper;
    FabTopK a(dim);
    a.set_sharding(shards);
    const RoundOutcome out = a.round(h, k);

    EXPECT_EQ(out.update.size(), ref.downlink.size()) << label;
    auto want = ref.downlink.begin();
    for (std::size_t p = 0; p < out.update.size() && want != ref.downlink.end(); ++p, ++want) {
      EXPECT_EQ(out.update[p].index, want->first) << label << " entry " << p;
      EXPECT_EQ(std::bit_cast<std::uint32_t>(out.update[p].value),
                std::bit_cast<std::uint32_t>(static_cast<float>(want->second)))
          << label << " entry " << p;
    }
    for (std::size_t i = 0; i < n; ++i) {
      const auto got = out.reset_for(i);
      EXPECT_EQ(std::set<std::int32_t>(got.begin(), got.end()), ref.reset[i])
          << label << " client " << i;
    }

    for (const std::size_t kp : {std::size_t{1}, k / n, ref.kappa, k - 1}) {
      const std::string at = label + " k' " + std::to_string(kp);
      FabTopK b(dim);
      b.set_sharding(shards);
      const RoundOutcome probe = a.probe_round(h, kp);
      const RoundOutcome fresh = b.round(h, kp);
      const bool derived = sc.upload_len.empty() && std::max<std::size_t>(kp, 1) < k;
      EXPECT_EQ(probe.contributed.empty(), derived) << at;
      expect_same_update(probe.update, fresh.update, at);
    }
    tensor::set_parallel_pool(nullptr);
  }
  return ref.kappa;
}

// Every client uploads the same top-k: the union never outgrows k, so the
// walk visits every depth and κ = k.
TEST(FabTopKEarlyExit, IdenticalUploadsWalkEveryDepth) {
  util::Rng rng(61);
  ExitScene sc;
  sc.ranks.assign(4, ranking(sc.dim, {}, rng));
  EXPECT_EQ(expect_round_matches_reference(sc), sc.k);
}

// Pairwise-disjoint uploads grow the union by N per depth: κ = ⌊k/N⌋, and
// the fill picks k mod N of the N equal-magnitude depth-κ candidates.
TEST(FabTopKEarlyExit, DisjointUploadsExitAtTheFairnessFloor) {
  util::Rng rng(62);
  ExitScene sc;
  sc.k = 42;
  sc.ranks = disjoint_ranks(4, sc.dim, sc.k, rng);
  EXPECT_EQ(expect_round_matches_reference(sc), sc.k / 4);
}

// k equals the union at depth κ, which the next depth overflows: the walk
// exits there, J is exactly the prefix union and nothing is filled. Once
// with overlapping uploads, once with disjoint ones (k = N·κ).
TEST(FabTopKEarlyExit, UnionReachesKExactlyAtTheExitDepth) {
  util::Rng rng(63);
  ExitScene sc;
  sc.ranks = overlapping_ranks(4, sc.dim, 64, rng);
  std::size_t kappa = 0;
  while (prefix_union(sc.ranks, kappa + 1) <= 40) ++kappa;
  sc.k = prefix_union(sc.ranks, kappa);
  ASSERT_GT(prefix_union(sc.ranks, kappa + 1), sc.k);
  EXPECT_EQ(expect_round_matches_reference(sc), kappa);

  sc.k = 40;
  sc.ranks = disjoint_ranks(4, sc.dim, sc.k, rng);
  EXPECT_EQ(expect_round_matches_reference(sc), 10u);
}

// Two of four disjoint uploads cut to 3 and 5 entries: the union at depth c
// is 2c + min(c, 3) + min(c, 5), 40 at c = 16 and 42 at c = 17, so κ = 16
// and one of the two depth-16 candidates fills J to k = 41.
TEST(FabTopKEarlyExit, ShortUploadsStopGrowingTheUnion) {
  util::Rng rng(64);
  ExitScene sc;
  sc.k = 41;
  sc.ranks = disjoint_ranks(4, sc.dim, sc.k, rng);
  sc.upload_len = {sc.k, 3, sc.k, 5};
  EXPECT_EQ(expect_round_matches_reference(sc), 16u);
}

// Every upload shorter than k. With 23 entries in all the union never
// outgrows k: the walk ends at the longest upload and κ is k. With four
// 20-entry uploads it overflows k = 42 at depth 11: κ = 10 and a fill of 2.
TEST(FabTopKEarlyExit, AllUploadsShorterThanK) {
  util::Rng rng(65);
  ExitScene sc;
  sc.ranks = disjoint_ranks(4, sc.dim, sc.k, rng);
  sc.upload_len = {5, 9, 2, 7};
  EXPECT_EQ(expect_round_matches_reference(sc), sc.k);

  sc.k = 42;
  sc.ranks = disjoint_ranks(4, sc.dim, sc.k, rng);
  sc.upload_len.assign(4, 20);
  EXPECT_EQ(expect_round_matches_reference(sc), 10u);
}

// One client: its upload is J, κ = k.
TEST(FabTopKEarlyExit, SingleClient) {
  util::Rng rng(66);
  ExitScene sc;
  sc.ranks.push_back(ranking(sc.dim, {}, rng));
  EXPECT_EQ(expect_round_matches_reference(sc), sc.k);
}

// Uploads drawn from a shared pool of 2k indices land κ strictly between
// the two ends.
TEST(FabTopKEarlyExit, PartialOverlapExitsBetweenTheEnds) {
  util::Rng rng(67);
  ExitScene sc;
  sc.ranks = overlapping_ranks(4, sc.dim, 2 * sc.k, rng);
  const std::size_t kappa = expect_round_matches_reference(sc);
  EXPECT_GT(kappa, sc.k / 4);
  EXPECT_LT(kappa, sc.k);
}

// ------------------------------------------------------------- baselines ---

TEST(FubTopK, SelectsGlobalTopKOfAggregate) {
  std::vector<std::vector<float>> vecs{{5.0f, 0.0f, 1.0f, 0.0f}, {-5.0f, 0.0f, 1.0f, 2.0f}};
  auto fub = make_method("fub_topk", 4);
  const auto out = fub->round(make_input(vecs, equal_weights(2)), 2);
  // Aggregates: idx0 = 0 (cancels), idx2 = 1, idx3 = 1. Uploads: each client's
  // top-2 = {0,3?} client0 uploads {0,2}, client1 uploads {0,3}.
  // Aggregate over uploads: idx0: .5*5-.5*5=0, idx2: .5*1, idx3: .5*2.
  ASSERT_EQ(out.update.size(), 2u);
  EXPECT_EQ(out.update[0].index, 2);
  EXPECT_EQ(out.update[1].index, 3);
}

TEST(UnidirectionalTopK, DownlinkIsUnionAndResetsEverything) {
  util::Rng rng(17);
  const std::size_t dim = 64, k = 8, n = 4;
  std::vector<std::vector<float>> vecs;
  for (std::size_t i = 0; i < n; ++i) vecs.push_back(random_vector(dim, rng));
  auto uni = make_method("unidirectional_topk", dim);
  const auto out = uni->round(make_input(vecs, equal_weights(n)), k);
  EXPECT_GE(out.update.size(), k);
  EXPECT_LE(out.update.size(), k * n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(out.reset_for(i).size(), k);
    EXPECT_EQ(out.contributed[i], k);
  }
  EXPECT_EQ(out.downlink_values, 2.0 * static_cast<double>(out.update.size()));
}

// Every top-k method's round must be bitwise-reproducible when the per-client
// selections run across a thread pool: identical update/reset/contributed
// payloads and identical timing charges.
TEST(TopKMethods, PooledRoundMatchesSerialByteForByte) {
  util::Rng rng(23);
  const std::size_t dim = 16384, n = 6, k = 150;
  std::vector<std::vector<float>> vecs;
  for (std::size_t i = 0; i < n; ++i) vecs.push_back(random_vector(dim, rng, i == 0 ? 50.0 : 1.0));
  const auto weights = equal_weights(n);

  for (const char* name : {"fab_topk", "fub_topk", "unidirectional_topk"}) {
    auto serial_method = make_method(name, dim);
    const auto serial = serial_method->round(make_input(vecs, weights), k);

    util::ThreadPool pool(4);
    tensor::set_parallel_pool(&pool);
    auto pooled_method = make_method(name, dim);
    const auto pooled = pooled_method->round(make_input(vecs, weights), k);
    tensor::set_parallel_pool(nullptr);

    EXPECT_EQ(pooled.update, serial.update) << name;
    EXPECT_EQ(pooled.reset_kind, serial.reset_kind) << name;
    EXPECT_EQ(pooled.reset_indices, serial.reset_indices) << name;
    EXPECT_EQ(pooled.reset_offsets, serial.reset_offsets) << name;
    EXPECT_EQ(pooled.contributed, serial.contributed) << name;
    EXPECT_EQ(pooled.uplink_values, serial.uplink_values) << name;
    EXPECT_EQ(pooled.downlink_values, serial.downlink_values) << name;
  }
}

TEST(PeriodicK, CoversAllCoordinatesWithinOnePass) {
  const std::size_t dim = 40, k = 7;
  util::Rng rng(21);
  std::vector<std::vector<float>> vecs{random_vector(dim, rng)};
  PeriodicK periodic(dim, 5);
  std::set<std::int32_t> seen;
  const std::size_t rounds = (dim + k - 1) / k;  // one full pass
  for (std::size_t m = 1; m <= rounds; ++m) {
    const auto out = periodic.round(make_input(vecs, equal_weights(1), m), k);
    for (const auto& e : out.update) seen.insert(e.index);
  }
  EXPECT_EQ(seen.size(), dim);  // every coordinate aggregated at least once
}

TEST(PeriodicK, ProbeRoundDoesNotAdvanceState) {
  const std::size_t dim = 30, k = 6;
  util::Rng rng(23);
  std::vector<std::vector<float>> vecs{random_vector(dim, rng)};
  PeriodicK a(dim, 9), b(dim, 9);
  // a: probe twice then real round; b: real round directly. Must match.
  (void)a.probe_round(make_input(vecs, equal_weights(1)), k);
  (void)a.probe_round(make_input(vecs, equal_weights(1)), k);
  const auto out_a = a.round(make_input(vecs, equal_weights(1)), k);
  const auto out_b = b.round(make_input(vecs, equal_weights(1)), k);
  ASSERT_EQ(out_a.update.size(), out_b.update.size());
  for (std::size_t i = 0; i < out_a.update.size(); ++i) {
    EXPECT_EQ(out_a.update[i].index, out_b.update[i].index);
  }
}

TEST(SendAll, DenseAggregateAndFullCost) {
  std::vector<std::vector<float>> vecs{{1.0f, 2.0f}, {3.0f, 4.0f}};
  auto sa = make_method("send_all", 2);
  const auto out = sa->round(make_input(vecs, equal_weights(2)), 1);
  EXPECT_EQ(out.kind, RoundOutcome::Kind::kDenseUpdate);
  ASSERT_EQ(out.dense.size(), 2u);
  EXPECT_FLOAT_EQ(out.dense[0], 2.0f);
  EXPECT_FLOAT_EQ(out.dense[1], 3.0f);
  EXPECT_EQ(out.uplink_values, 2.0);   // D values, no index overhead
  EXPECT_EQ(out.downlink_values, 2.0);
}

TEST(FedAvg, PeriodMatchesCommunicationBudget) {
  FedAvg fedavg(1000);
  EXPECT_EQ(fedavg.period(100), 5u);   // ⌊1000/200⌋
  EXPECT_EQ(fedavg.period(500), 1u);
  EXPECT_EQ(fedavg.period(1), 500u);
  EXPECT_EQ(fedavg.period(100000), 1u);  // k clamped to D
}

TEST(FedAvg, AggregatesOnlyOnPeriodBoundaries) {
  const std::size_t dim = 8;
  std::vector<std::vector<float>> weights_vec{{1, 1, 1, 1, 1, 1, 1, 1},
                                              {3, 3, 3, 3, 3, 3, 3, 3}};
  std::vector<double> dw{0.5, 0.5};
  FedAvg fedavg(dim);
  const std::size_t k = 2;  // period = 8/(2*2) = 2
  const auto r1 = fedavg.round(make_input(weights_vec, dw, 1), k);
  EXPECT_EQ(r1.kind, RoundOutcome::Kind::kLocalOnly);
  EXPECT_EQ(r1.uplink_values, 0.0);
  const auto r2 = fedavg.round(make_input(weights_vec, dw, 2), k);
  EXPECT_EQ(r2.kind, RoundOutcome::Kind::kWeightAverage);
  EXPECT_FLOAT_EQ(r2.dense[0], 2.0f);
  EXPECT_EQ(r2.uplink_values, static_cast<double>(dim));
}

// ----------------------------------------------------------- validation ----

TEST(MethodFactory, BuildsAllAndRejectsUnknown) {
  for (const char* name : {"fab_topk", "fub_topk", "unidirectional_topk", "periodic", "send_all",
                           "fedavg"}) {
    EXPECT_EQ(make_method(name, 10)->name(), name);
  }
  EXPECT_THROW(make_method("nope", 10), std::invalid_argument);
}

TEST(RoundInputValidation, CatchesBadInputs) {
  std::vector<std::vector<float>> vecs{{1.0f, 2.0f}};
  const auto good = make_input(vecs, equal_weights(1));
  EXPECT_NO_THROW(validate_round_input(good));

  auto bad = make_input(vecs, {0.5});  // does not sum to 1
  EXPECT_THROW(validate_round_input(bad), std::invalid_argument);

  auto negative = make_input(vecs, {2.0, -1.0});  // negative weight
  negative.in.client_vectors.push_back(negative.in.client_vectors[0]);
  EXPECT_THROW(validate_round_input(negative), std::invalid_argument);

  auto mismatched = make_input(vecs, equal_weights(1));
  mismatched.in.dim = 5;  // client vectors have 2 entries, not 5
  EXPECT_THROW(validate_round_input(mismatched), std::invalid_argument);

  RoundInput empty;
  empty.dim = 2;
  std::vector<double> no_w;
  empty.data_weights = {no_w.data(), no_w.size()};
  EXPECT_THROW(validate_round_input(empty), std::invalid_argument);
}

TEST(AllGsMethods, GradientMassConservation) {
  // Whatever a method resets, it must have actually consumed: indices reset at
  // a client must be a subset of that client's uploaded (or globally selected)
  // set, and the downlink values must match the weighted aggregate.
  util::Rng rng(31);
  const std::size_t dim = 128, k = 16, n = 5;
  std::vector<std::vector<float>> vecs;
  for (std::size_t i = 0; i < n; ++i) vecs.push_back(random_vector(dim, rng));
  const auto weights = equal_weights(n);
  for (const char* name : {"fab_topk", "fub_topk", "unidirectional_topk", "periodic"}) {
    auto method = make_method(name, dim, 3);
    const auto out = method->round(make_input(vecs, weights), k);
    // Downlink indices unique and within range.
    std::set<std::int32_t> downlink;
    for (const auto& e : out.update) {
      EXPECT_GE(e.index, 0);
      EXPECT_LT(e.index, static_cast<std::int32_t>(dim));
      downlink.insert(e.index);
    }
    EXPECT_EQ(downlink.size(), out.update.size()) << name;
    // Resets are a subset of the downlink set (an element is only consumed if
    // it was aggregated into the global sparse gradient).
    for (std::size_t i = 0; i < n; ++i) {
      for (const auto idx : out.reset_for(i)) {
        EXPECT_TRUE(downlink.count(idx)) << name << " client " << i;
      }
    }
  }
}

}  // namespace
}  // namespace fedsparse::sparsify
