// Heap-allocation budget of the round's hot paths. This executable replaces
// the global operator new with a counting one, so it stays separate from the
// other suites: after warm-up, a local step (Client::compute_round_gradient),
// an evaluation forward on a bound workspace and a round of client top-k
// uploads must not allocate at all. Shapes: the fleet MLP 64-32-10, batch 32,
// 16-sample clients; the paper's 23 clients at D = 54,270.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "data/dataset.h"
#include "fl/client.h"
#include "nn/models.h"
#include "sparsify/topk.h"
#include "util/rng.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_news{0};

void* counted_alloc(std::size_t n, std::size_t align) {
  if (g_counting.load(std::memory_order_relaxed)) g_news.fetch_add(1, std::memory_order_relaxed);
  if (n == 0) n = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(n)
                : std::aligned_alloc(align, (n + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n, 0); }
void* operator new[](std::size_t n) { return counted_alloc(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace fedsparse {
namespace {

constexpr std::size_t kFeatures = 64;
constexpr std::size_t kClasses = 10;
constexpr std::size_t kSamples = 16;
constexpr std::size_t kBatch = 32;

data::Dataset fleet_client_data(std::uint64_t seed) {
  util::Rng rng(seed);
  data::Dataset ds;
  ds.num_classes = kClasses;
  ds.height = 8;
  ds.width = 8;
  ds.x.resize(kSamples, kFeatures);
  for (float& v : ds.x.flat()) v = static_cast<float>(rng.normal(0.0, 1.0));
  for (std::size_t i = 0; i < kSamples; ++i) {
    ds.y.push_back(static_cast<int>(rng.uniform_u64(kClasses)));
  }
  return ds;
}

// A workspace as the simulation keeps one: bound to an external weight store.
struct BoundWorkspace {
  BoundWorkspace() {
    util::Rng rng(7);
    model = nn::mlp(kFeatures, {32}, kClasses)(rng);
    weights.assign(model->weights().begin(), model->weights().end());
    model->bind_weights(weights);
  }
  std::unique_ptr<nn::Sequential> model;
  std::vector<float> weights;
};

// Heap allocations made by `fn`.
template <class Fn>
std::size_t count_news(Fn&& fn) {
  g_news.store(0);
  g_counting.store(true);
  fn();
  g_counting.store(false);
  return g_news.load();
}

TEST(AllocationFree, LocalStepAfterWarmup) {
  BoundWorkspace ws;
  fl::Client client(0, fleet_client_data(1), ws.model->dim(), 42);
  std::size_t round = 1;
  for (; round <= 3; ++round) client.compute_round_gradient(*ws.model, round, kBatch);
  double loss = 0.0;
  const std::size_t news = count_news([&] {
    for (const std::size_t end = round + 5; round < end; ++round) {
      loss += client.compute_round_gradient(*ws.model, round, kBatch);
    }
  });
  EXPECT_TRUE(std::isfinite(loss));
  EXPECT_EQ(news, 0u) << "heap allocations over 5 local steps";
}

TEST(AllocationFree, EvaluationForwardAfterWarmup) {
  BoundWorkspace ws;
  const data::Dataset ds = fleet_client_data(2);
  ws.model->forward_loss(ds.x, ds.y);
  ws.model->accuracy(ds.x, ds.y);
  double sum = 0.0;
  const std::size_t news = count_news([&] {
    for (int rep = 0; rep < 5; ++rep) {
      sum += ws.model->forward_loss(ds.x, ds.y);
      sum += ws.model->accuracy(ds.x, ds.y);
    }
  });
  EXPECT_TRUE(std::isfinite(sum));
  EXPECT_EQ(news, 0u) << "heap allocations over 5 evaluation forwards + accuracies";
}

TEST(AllocationFree, TopKUploadsAfterWarmup) {
  // The paper_adaptive shape: 23 clients, D = 54,270, k walking below the
  // largest k the controller can ask (k = D). Warm-up at that k sizes every
  // workspace buffer, hint slot and upload; after it, rounds at any smaller
  // k — hinted, resampled or dense — reuse them.
  constexpr std::size_t kClients = 23;
  constexpr std::size_t kDim = 54270;
  util::Rng rng(11);
  std::vector<std::vector<float>> acc(kClients, std::vector<float>(kDim));
  for (auto& v : acc) {
    for (float& x : v) x = static_cast<float>(rng.normal(0.0, 1.0));
  }
  std::vector<std::span<const float>> vecs;
  for (const auto& v : acc) vecs.emplace_back(v.data(), v.size());
  std::vector<std::size_t> ids(kClients);
  for (std::size_t s = 0; s < kClients; ++s) ids[s] = 3 * s;  // a partial-participation id set
  std::vector<sparsify::TopKWorkspace> workspaces;
  std::vector<sparsify::ClientHint> hints;
  std::vector<sparsify::SparseVector> uploads;
  const auto round = [&](std::size_t k) {
    sparsify::top_k_uploads(vecs, {}, k, ids, workspaces, hints, uploads);
    // Grow the accumulators a little, as a round's new gradient would.
    for (auto& v : acc) {
      for (std::size_t j = 0; j < kDim; j += 7) v[j] *= 1.01f;
    }
  };
  round(kDim);
  round(kDim);
  std::size_t selected = 0;
  const std::size_t news = count_news([&] {
    for (const std::size_t k : {13700u, 13900u, 3000u, 108u, 30000u, 25667u, 54269u, 13700u}) {
      round(k);
      for (const auto& up : uploads) selected += up.size();
    }
  });
  EXPECT_EQ(selected, kClients * (13700u + 13900u + 3000u + 108u + 30000u + 25667u + 54269u +
                                  13700u));
  EXPECT_EQ(news, 0u) << "heap allocations over 8 rounds of 23 top-k uploads";
}

}  // namespace
}  // namespace fedsparse
