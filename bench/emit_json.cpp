// Emits BENCH_micro.json: before/after timings of every kernel this repo's
// per-round hot path runs — top-k selection (seed heap vs quickselect), GEMM
// (seed scalar triple loop vs blocked 4x-unrolled kernel), Linear and Conv2d
// forward+backward (seed scalar loops vs the GEMM-routed layers), accumulator
// adds, and the FAB-top-k server round. Self-contained (std::chrono, no
// google benchmark) so CI can produce the JSON artifact on any box.
//
// Usage: emit_json [output_path] [--quick]
//   output_path defaults to BENCH_micro.json in the current directory.
//   --quick shrinks the measurement budget (CI smoke).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#define FEDSPARSE_HAVE_RUSAGE 1
#endif

#include "data/synthetic.h"
#include "fl/simulation.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/models.h"
#include "online/controller.h"
#include "reference_kernels.h"
#include "sparsify/accumulator.h"
#include "sparsify/fab_topk.h"
#include "sparsify/method.h"
#include "sparsify/sparse_vector.h"
#include "sparsify/topk.h"
#include "tensor/im2col.h"
#include "tensor/matrix.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using namespace fedsparse;
using Clock = std::chrono::steady_clock;

double g_budget_seconds = 0.5;  // per kernel; --quick shrinks it

template <typename T>
inline void do_not_optimize(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

struct KernelResult {
  std::string name;
  std::string baseline;  // empty when this kernel IS a baseline
  double ns_per_op = 0.0;
  double items_per_s = 0.0;
  std::size_t iterations = 0;
  double peak_rss_mb = 0.0;  // process peak RSS after this kernel (0 = untracked)
};

/// Process peak resident set size in MB (0 when the platform lacks rusage).
/// Monotone over the process lifetime, so sweeps that care about it order
/// their cheap configurations first.
double peak_rss_mb() {
#if FEDSPARSE_HAVE_RUSAGE
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
#if defined(__APPLE__)
  return static_cast<double>(ru.ru_maxrss) / (1024.0 * 1024.0);  // macOS: bytes
#else
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KB
#endif
#else
  return 0.0;
#endif
}

/// Runs fn repeatedly until the time budget is spent (at least 3 iterations)
/// and reports mean ns/op. `items` is the per-op work amount for items/s.
KernelResult measure(const std::string& name, const std::string& baseline, double items,
                     const std::function<void()>& fn) {
  fn();  // warmup (also warms scratch-buffer capacities)
  std::size_t iters = 0;
  const auto start = Clock::now();
  double elapsed = 0.0;
  do {
    fn();
    ++iters;
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  } while (elapsed < g_budget_seconds || iters < 3);
  KernelResult r;
  r.name = name;
  r.baseline = baseline;
  r.iterations = iters;
  r.ns_per_op = elapsed * 1e9 / static_cast<double>(iters);
  r.items_per_s = items * static_cast<double>(iters) / elapsed;
  std::printf("  %-28s %12.0f ns/op  %10.3e items/s  (%zu iters)\n", name.c_str(), r.ns_per_op,
              r.items_per_s, iters);
  return r;
}

std::vector<float> random_vec(std::size_t d, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> v(d);
  for (auto& x : v) x = static_cast<float>(rng.normal());
  return v;
}

void bench_topk(std::vector<KernelResult>& out) {
  const std::size_t d = 1u << 20;  // 1M — the acceptance-criteria point
  const std::size_t k = 1000;
  const auto v = random_vec(d, 1);
  const std::span<const float> vs{v.data(), v.size()};
  out.push_back(measure("topk_heap_D1M_k1000", "", static_cast<double>(d), [&] {
    do_not_optimize(reference::top_k_entries_heap(vs, k));
  }));
  sparsify::TopKWorkspace ws;
  sparsify::SparseVector result;
  out.push_back(measure("topk_quickselect_D1M_k1000", "topk_heap_D1M_k1000",
                        static_cast<double>(d), [&] {
                          sparsify::top_k_entries(vs, k, ws, result);
                          do_not_optimize(result);
                        }));
}

void bench_gemm(std::vector<KernelResult>& out) {
  const std::size_t n = 256;  // MLP-layer scale used by nn/models
  tensor::Matrix a(n, n), b(n, n), c(n, n);
  util::Rng rng(7);
  for (auto& x : a.flat()) x = static_cast<float>(rng.normal());
  for (auto& x : b.flat()) x = static_cast<float>(rng.normal());
  const double flops = 2.0 * static_cast<double>(n) * n * n;
  out.push_back(measure("gemm_reference_256", "", flops, [&] {
    tensor::zero(c.flat());
    reference::gemm_nn(a, b, 1.0f, c);
    do_not_optimize(c);
  }));
  out.push_back(measure("gemm_blocked_256", "gemm_reference_256", flops, [&] {
    tensor::gemm(a, false, b, false, 1.0f, 0.0f, c);
    do_not_optimize(c);
  }));

  // A·Bᵀ at the same scale: the packed-transpose path (B repacked once, then
  // the 4x16 nn micro-kernel) against a scalar rows-dot-rows reference.
  out.push_back(measure("gemm_nt_reference_256", "", flops, [&] {
    for (std::size_t mi = 0; mi < n; ++mi) {
      const float* arow = a.row(mi);
      float* crow = c.row(mi);
      for (std::size_t ni = 0; ni < n; ++ni) {
        const float* brow = b.row(ni);
        float acc = 0.0f;
        for (std::size_t ki = 0; ki < n; ++ki) acc += arow[ki] * brow[ki];
        crow[ni] = acc;
      }
    }
    do_not_optimize(c);
  }));
  out.push_back(measure("gemm_nt_packed_256", "gemm_nt_reference_256", flops, [&] {
    tensor::zero(c.flat());
    tensor::gemm_nt(a, b, 1.0f, c);
    do_not_optimize(c);
  }));
}

// --- layer forward+backward: seed scalar loops vs the GEMM-routed layers ---
//
// The "before" side replicates the seed Linear/Conv2d triple loops verbatim
// (per-row dot products, per-channel column sweeps); the "after" side runs
// the live layers, which now route through gemm_nt / gemm_tn / gemm_nn.
// Shapes are the acceptance-criteria points: batch 32, 784->128 linear and a
// 1x28x28 -> 8ch k=5 conv.

void linear_fwd_bwd_scalar(const tensor::Matrix& x, const tensor::Matrix& dy,
                           std::span<const float> w, std::span<const float> b,
                           std::span<float> gw, std::span<float> gb, tensor::Matrix& y,
                           tensor::Matrix& dx, std::size_t in, std::size_t out_f) {
  const std::size_t batch = x.rows();
  y.reshape(batch, out_f);
  for (std::size_t r = 0; r < batch; ++r) {
    const float* xr = x.row(r);
    float* yr = y.row(r);
    for (std::size_t o = 0; o < out_f; ++o) {
      const float* wr = w.data() + o * in;
      float acc = b[o];
      for (std::size_t i = 0; i < in; ++i) acc += xr[i] * wr[i];
      yr[o] = acc;
    }
  }
  for (std::size_t r = 0; r < batch; ++r) {
    const float* dyr = dy.row(r);
    const float* xr = x.row(r);
    for (std::size_t o = 0; o < out_f; ++o) {
      const float d = dyr[o];
      if (d == 0.0f) continue;
      float* gwr = gw.data() + o * in;
      for (std::size_t i = 0; i < in; ++i) gwr[i] += d * xr[i];
      gb[o] += d;
    }
  }
  dx.reshape(batch, in);
  for (std::size_t r = 0; r < batch; ++r) {
    const float* dyr = dy.row(r);
    float* dxr = dx.row(r);
    for (std::size_t i = 0; i < in; ++i) dxr[i] = 0.0f;
    for (std::size_t o = 0; o < out_f; ++o) {
      const float d = dyr[o];
      if (d == 0.0f) continue;
      const float* wr = w.data() + o * in;
      for (std::size_t i = 0; i < in; ++i) dxr[i] += d * wr[i];
    }
  }
}

void bench_linear(std::vector<KernelResult>& out) {
  const std::size_t batch = 32, in = 784, out_f = 128;
  util::Rng rng(11);
  nn::Linear layer(in, out_f);
  std::vector<float> weights(layer.param_count()), grads(layer.param_count(), 0.0f);
  layer.bind({weights.data(), weights.size()}, {grads.data(), grads.size()});
  layer.init_params(rng);
  tensor::Matrix x(batch, in), dy(batch, out_f), y, dx;
  for (auto& v : x.flat()) v = static_cast<float>(rng.normal());
  for (auto& v : dy.flat()) v = static_cast<float>(rng.normal());
  // fwd (batch*in*out) + bwd dW (same) + bwd dx (same) multiply-adds.
  const double flops = 3.0 * 2.0 * static_cast<double>(batch) * in * out_f;
  const std::span<float> gw{grads.data(), in * out_f};
  const std::span<float> gb{grads.data() + in * out_f, out_f};
  out.push_back(measure("linear_fwd_bwd_scalar", "", flops, [&] {
    std::fill(grads.begin(), grads.end(), 0.0f);
    linear_fwd_bwd_scalar(x, dy, {weights.data(), in * out_f},
                          {weights.data() + in * out_f, out_f}, gw, gb, y, dx, in, out_f);
    do_not_optimize(dx);
  }));
  out.push_back(measure("linear_fwd_bwd", "linear_fwd_bwd_scalar", flops, [&] {
    std::fill(grads.begin(), grads.end(), 0.0f);
    layer.forward(x, y);
    layer.backward(dy, dx);
    do_not_optimize(dx);
  }));
}

void conv2d_fwd_bwd_scalar(const tensor::Matrix& x, const tensor::Matrix& dy,
                           const tensor::ConvGeometry& g, std::size_t out_ch,
                           std::span<const float> w, std::span<const float> b,
                           std::span<float> gw, std::span<float> gb, tensor::Matrix& y,
                           tensor::Matrix& dx, tensor::Matrix& cols, tensor::Matrix& dcols) {
  const std::size_t batch = x.rows();
  const std::size_t spatial = g.col_cols(), ckk = g.col_rows();
  y.reshape(batch, out_ch * spatial);
  for (std::size_t s = 0; s < batch; ++s) {
    tensor::im2col(x.row(s), g, cols);
    float* ys = y.row(s);
    for (std::size_t o = 0; o < out_ch; ++o) {
      const float* wr = w.data() + o * ckk;
      float* yrow = ys + o * spatial;
      for (std::size_t p = 0; p < spatial; ++p) yrow[p] = b[o];
      for (std::size_t r = 0; r < ckk; ++r) {
        const float wv = wr[r];
        if (wv == 0.0f) continue;
        const float* crow = cols.row(r);
        for (std::size_t p = 0; p < spatial; ++p) yrow[p] += wv * crow[p];
      }
    }
  }
  dx.reshape(batch, g.image_size());
  tensor::zero(dx.flat());
  for (std::size_t s = 0; s < batch; ++s) {
    tensor::im2col(x.row(s), g, cols);
    const float* dys = dy.row(s);
    for (std::size_t o = 0; o < out_ch; ++o) {
      const float* dyrow = dys + o * spatial;
      float* gwr = gw.data() + o * ckk;
      double bsum = 0.0;
      for (std::size_t p = 0; p < spatial; ++p) bsum += dyrow[p];
      gb[o] += static_cast<float>(bsum);
      for (std::size_t r = 0; r < ckk; ++r) {
        const float* crow = cols.row(r);
        float acc = 0.0f;
        for (std::size_t p = 0; p < spatial; ++p) acc += dyrow[p] * crow[p];
        gwr[r] += acc;
      }
    }
    dcols.reshape(ckk, spatial);
    tensor::zero(dcols.flat());
    for (std::size_t o = 0; o < out_ch; ++o) {
      const float* dyrow = dys + o * spatial;
      const float* wr = w.data() + o * ckk;
      for (std::size_t r = 0; r < ckk; ++r) {
        const float wv = wr[r];
        if (wv == 0.0f) continue;
        float* drow = dcols.row(r);
        for (std::size_t p = 0; p < spatial; ++p) drow[p] += wv * dyrow[p];
      }
    }
    tensor::col2im(dcols, g, dx.row(s));
  }
}

void bench_conv2d(std::vector<KernelResult>& out) {
  const std::size_t batch = 32, ch = 1, h = 28, wdt = 28, out_ch = 8, ks = 5;
  util::Rng rng(13);
  nn::Conv2d layer(ch, h, wdt, out_ch, ks);
  std::vector<float> weights(layer.param_count()), grads(layer.param_count(), 0.0f);
  layer.bind({weights.data(), weights.size()}, {grads.data(), grads.size()});
  layer.init_params(rng);
  const tensor::ConvGeometry& g = layer.geometry();
  const std::size_t spatial = g.col_cols(), ckk = g.col_rows();
  tensor::Matrix x(batch, ch * h * wdt), dy(batch, out_ch * spatial), y, dx, cols, dcols;
  for (auto& v : x.flat()) v = static_cast<float>(rng.normal());
  for (auto& v : dy.flat()) v = static_cast<float>(rng.normal());
  // fwd + bwd dW + bwd dcols GEMM-equivalent multiply-adds per sample.
  const double flops = 3.0 * 2.0 * static_cast<double>(batch) * out_ch * ckk * spatial;
  const std::span<float> gw{grads.data(), out_ch * ckk};
  const std::span<float> gb{grads.data() + out_ch * ckk, out_ch};
  out.push_back(measure("conv2d_fwd_bwd_scalar", "", flops, [&] {
    std::fill(grads.begin(), grads.end(), 0.0f);
    conv2d_fwd_bwd_scalar(x, dy, g, out_ch, {weights.data(), out_ch * ckk},
                          {weights.data() + out_ch * ckk, out_ch}, gw, gb, y, dx, cols, dcols);
    do_not_optimize(dx);
  }));
  out.push_back(measure("conv2d_fwd_bwd", "conv2d_fwd_bwd_scalar", flops, [&] {
    std::fill(grads.begin(), grads.end(), 0.0f);
    layer.forward(x, y);
    layer.backward(dy, dx);
    do_not_optimize(dx);
  }));
}

void bench_accumulator(std::vector<KernelResult>& out) {
  const std::size_t d = 1u << 20;
  sparsify::GradientAccumulator acc(d);
  const auto g = random_vec(d, 3);
  out.push_back(measure("accumulator_add_D1M", "", static_cast<double>(d), [&] {
    acc.add({g.data(), g.size()});
    do_not_optimize(acc.value().data());
  }));
  // Mostly-zero source (the post-reset / sparse-task gradient shape): the
  // 8-lane add skips all-zero source groups without touching the
  // destination, so this runs at read-only speed over g.
  sparsify::GradientAccumulator sparse_acc(d);
  auto gs = random_vec(d, 5);
  for (std::size_t i = 0; i < d; ++i) {
    if ((i / sparsify::kAccumulatorChunk) % 100 != 0) gs[i] = 0.0f;
  }
  out.push_back(measure("accumulator_add_sparse1_D1M", "", static_cast<double>(d), [&] {
    sparse_acc.add({gs.data(), gs.size()});
    do_not_optimize(sparse_acc.value().data());
  }));
}

void bench_fab_round(std::vector<KernelResult>& out) {
  const std::size_t n = 10, d = 1u << 17;
  const std::size_t k = d / 100 + 1;
  std::vector<std::vector<float>> vecs;
  for (std::size_t i = 0; i < n; ++i) vecs.push_back(random_vec(d, i + 1));
  std::vector<double> weights(n, 1.0 / static_cast<double>(n));
  sparsify::RoundInput in;
  in.dim = d;
  in.round = 1;
  in.data_weights = {weights.data(), weights.size()};
  for (const auto& v : vecs) in.client_vectors.push_back({v.data(), v.size()});
  sparsify::FabTopK method(d);
  out.push_back(measure("fab_server_round_N10_D128k", "", static_cast<double>(n * d), [&] {
    do_not_optimize(method.round(in, k));
  }));
}

// --- shared-store round engine: server round + apply-path scaling -----------
//
// The synchronized methods hold one global weight vector, so the broadcast
// update is applied ONCE in O(k). The round_apply_perreplica_* baselines
// apply the identical update to n separate vectors — the per-client model
// layout the engine does not have, timed here as the alternative it
// replaces. The sweep pins the claim that round time stops scaling with n
// on the apply path (speedup vs per-replica ~ n, which is machine-portable
// and CI-gateable), and the printed peak-RSS trail shows the per-replica
// layout paying O(n·D) weight memory the shared store never allocates.

void bench_round_engine(std::vector<KernelResult>& out) {
  const std::size_t d = 1u << 17;   // 128k
  const std::size_t k = d / 100 + 1;
  const float lr = 0.05f;

  // Apply-path scaling sweep, N ∈ {10, 100, 1000}. ru_maxrss is monotone
  // over the process lifetime, so the sweep runs before the ~52 MB
  // server_round block below, ALL shared points run before ANY per-replica
  // point (shared readings never include a freed replica allocation), and
  // the per-replica points run in ascending n (each point's peak is
  // dominated by its own replicas).
  sparsify::SparseVector update;
  update.reserve(k);
  util::Rng urng(99);
  const std::size_t stride = d / k;
  for (std::size_t j = 0; j < k; ++j) {
    update.push_back(sparsify::SparseEntry{static_cast<std::int32_t>(j * stride),
                                           static_cast<float>(urng.normal())});
  }
  const std::size_t sweep[] = {10, 100, 1000};
  for (const std::size_t n : sweep) {
    const std::string shared_name = "round_apply_shared_N" + std::to_string(n) + "_D128k";
    auto w = random_vec(d, 301);
    const std::span<float> ws{w.data(), w.size()};
    out.push_back(measure(shared_name,
                          "round_apply_perreplica_N" + std::to_string(n) + "_D128k",
                          static_cast<double>(k), [&] {
                            sparsify::axpy_sparse(-lr, update, ws);
                            do_not_optimize(w.data());
                          }));
    out.back().peak_rss_mb = peak_rss_mb();
    std::printf("    peak RSS after %-34s %8.1f MB\n", shared_name.c_str(), peak_rss_mb());
  }
  for (const std::size_t n : sweep) {
    const std::string replica_name = "round_apply_perreplica_N" + std::to_string(n) + "_D128k";
    std::vector<std::vector<float>> replicas;
    replicas.reserve(n);
    for (std::size_t i = 0; i < n; ++i) replicas.push_back(random_vec(d, 400 + i));
    out.push_back(measure(replica_name, "", static_cast<double>(n * k), [&] {
      for (auto& r : replicas) sparsify::axpy_sparse(-lr, update, {r.data(), r.size()});
      do_not_optimize(replicas.data());
    }));
    out.back().peak_rss_mb = peak_rss_mb();
    std::printf("    peak RSS after %-34s %8.1f MB\n", replica_name.c_str(), peak_rss_mb());
  }

  // End-to-end server round (selection + aggregation) at N=100 — ten times
  // the client count of fab_server_round_N10_D128k — through the live path:
  // tiered accumulators whose chunk summaries ride along in the RoundInput.
  // Runs after the sweep so its 100 x D client vectors cannot pollute the
  // sweep's RSS trail (its own peak_rss_mb would read the sweep's 500 MB
  // high-water mark, so none is recorded).
  {
    const std::size_t n = 100;
    std::vector<sparsify::GradientAccumulator> accs;
    accs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const auto grad = random_vec(d, i + 1);
      accs.emplace_back(d);
      accs.back().add({grad.data(), grad.size()});
    }
    std::vector<double> weights(n, 1.0 / static_cast<double>(n));
    sparsify::RoundInput in;
    in.dim = d;
    in.round = 1;
    in.data_weights = {weights.data(), weights.size()};
    for (const auto& acc : accs) {
      in.client_vectors.push_back(acc.value());
      in.client_chunk_max.push_back(acc.chunk_max());
    }
    sparsify::FabTopK method(d);
    out.push_back(measure("server_round_N100_D128k", "", static_cast<double>(n * d), [&] {
      do_not_optimize(method.round(in, k));
    }));
  }
}

// --- chunk-tiered accumulators: N=1000 rounds and the dirty-fraction sweep --
//
// SparsyFed-scale server rounds: selection + aggregation over 1000 clients.
// Every configuration is measured twice from the same accumulators — the
// tiered path (chunk summaries in the RoundInput, scans prune clean/quiet
// chunks) against a forced-dense run of the same build (summaries withheld)
// — so the gated speedup ratio isolates the traversal change and transfers
// across machines. The dirty-fraction sweep is the churn story: a client
// that sat out rounds has accumulated gradient only in the chunks its last
// few local batches touched, so at 1% dirty the tiered scan reads summaries
// plus ~5 KB instead of the full 512 KB per client. k = 128 for the churn
// points (the small-k regime the adaptive controller settles into under
// churn-heavy scenarios, and small enough that 1%-dirty clients still hold
// >= k nonzeros — selections stay in the hinted-threshold fast path both
// sides). Outcomes are asserted byte-identical between the two runs.

void bench_tiered_rounds(std::vector<KernelResult>& out) {
  const std::size_t d = 1u << 17;  // 128k
  const std::size_t n = 1000;
  struct Config {
    const char* label;
    std::size_t dirty_pct;  // % of chunks holding accumulated gradient
    std::size_t k;
  };
  const Config configs[] = {
      {"server_round_N1000_D128k", 100, d / 100 + 1},
      {"server_round_churn10_N1000_D128k", 10, 128},
      {"server_round_churn1_N1000_D128k", 1, 128},
  };
  std::vector<float> grad(d);
  for (const Config& cfg : configs) {
    // One accumulator set per configuration, freed before the next so peak
    // RSS stays one fleet (~512 MB at N=1000, D=128k).
    std::vector<sparsify::GradientAccumulator> accs;
    accs.reserve(n);
    const std::size_t chunks = sparsify::accumulator_chunks(d);
    const std::size_t dirty = std::max<std::size_t>(1, chunks * cfg.dirty_pct / 100);
    const std::size_t stride = chunks / dirty;
    for (std::size_t i = 0; i < n; ++i) {
      util::Rng rng(1000 + i);
      std::fill(grad.begin(), grad.end(), 0.0f);
      // Evenly spread dirty chunks: client gradients concentrated in a
      // dirty_pct fraction of the coordinate space, zero elsewhere.
      for (std::size_t c = 0; c < dirty; ++c) {
        const std::size_t begin = (c * stride) * sparsify::kAccumulatorChunk;
        const std::size_t end = std::min(d, begin + sparsify::kAccumulatorChunk);
        for (std::size_t j = begin; j < end; ++j) grad[j] = static_cast<float>(rng.normal());
      }
      accs.emplace_back(d);
      accs.back().add({grad.data(), grad.size()});
    }
    std::vector<double> weights(n, 1.0 / static_cast<double>(n));
    sparsify::RoundInput in;
    in.dim = d;
    in.round = 1;
    in.data_weights = {weights.data(), weights.size()};
    for (const auto& acc : accs) in.client_vectors.push_back(acc.value());

    const std::string dense_name = std::string(cfg.label) + "_dense";
    sparsify::FabTopK dense_method(d);
    out.push_back(measure(dense_name, "", static_cast<double>(n * d), [&] {
      do_not_optimize(dense_method.round(in, cfg.k));
    }));

    for (const auto& acc : accs) in.client_chunk_max.push_back(acc.chunk_max());
    sparsify::FabTopK tiered_method(d);
    out.push_back(measure(cfg.label, dense_name, static_cast<double>(n * d), [&] {
      do_not_optimize(tiered_method.round(in, cfg.k));
    }));

    // The tiered traversal must be a pure reordering: same selection, same
    // aggregate, byte for byte.
    const sparsify::RoundOutcome tiered_out = dense_method.round(in, cfg.k);
    in.client_chunk_max.clear();
    const sparsify::RoundOutcome dense_out = dense_method.round(in, cfg.k);
    if (tiered_out.update != dense_out.update ||
        tiered_out.reset_indices != dense_out.reset_indices) {
      std::fprintf(stderr, "FATAL: tiered round diverged from dense on %s\n", cfg.label);
      std::exit(1);
    }
  }
}

// --- sharded mega-fleet rounds ----------------------------------------------
//
// The sharded engine's pitch: per-thread shard fleets with thread-local
// arenas, per-slot workspaces + 8-byte per-client hints (instead of one
// multi-KB workspace per client), and fixed-order tree merges — so server
// rounds scale to N=10^5 participants. Each point measures the sharded
// configuration (thread pool registered, one shard per slot capped at 16)
// against the same engine at one shard with no pool (the `_singleshard`
// baseline), asserts the outcomes byte-identical, and records peak RSS. The
// baseline runs LAST within each scale (ru_maxrss is monotone).
//
// The absent-client sweep is the participation-sparsity story: at Markov
// stationary π_on, only π_on·N clients appear in a round, and the server's
// cost must track the touched clients, not N. π_on = 0.27 is the
// churn_heavy scenario's stationary point; 0.05 is a SparsyFed-scale
// longtail. Sweep rows also land in BENCH_fleet_sweep.csv for the CI
// artifact. N clients share `distinct` rotating accumulator buffers so the
// fleet costs O(distinct·D) memory instead of O(N·D) — selection/aggregation
// work per client is unchanged (the round path never compares clients).

struct FleetInput {
  std::vector<sparsify::GradientAccumulator> accs;
  std::vector<double> weights;
  std::vector<std::size_t> ids;
  sparsify::RoundInput in;

  FleetInput(std::size_t n, std::size_t d, std::size_t distinct) {
    std::vector<float> grad(d);
    accs.reserve(distinct);
    for (std::size_t i = 0; i < distinct; ++i) {
      util::Rng rng(9000 + i);
      for (auto& x : grad) x = static_cast<float>(rng.normal());
      accs.emplace_back(d);
      accs.back().add({grad.data(), grad.size()});
    }
    weights.assign(n, 1.0 / static_cast<double>(n));
    ids.resize(n);
    for (std::size_t i = 0; i < n; ++i) ids[i] = i;
    in.dim = d;
    in.round = 1;
    in.data_weights = {weights.data(), weights.size()};
    in.client_ids = {ids.data(), ids.size()};
    for (std::size_t i = 0; i < n; ++i) {
      in.client_vectors.push_back(accs[i % distinct].value());
      in.client_chunk_max.push_back(accs[i % distinct].chunk_max());
    }
  }

  /// A participant subset of ceil(pi_on * n) clients, stride-spread over the
  /// id space (Markov-off clients are not clustered), weights renormalized.
  void subset(double pi_on, std::vector<double>& w_scratch, std::vector<std::size_t>& id_scratch,
              sparsify::RoundInput& sub) const {
    const std::size_t n = ids.size();
    const auto m = std::max<std::size_t>(
        1, static_cast<std::size_t>(pi_on * static_cast<double>(n) + 0.5));
    const std::size_t stride = n / m;
    id_scratch.clear();
    for (std::size_t j = 0; j < m; ++j) id_scratch.push_back(j * stride);
    w_scratch.assign(m, 1.0 / static_cast<double>(m));
    sub = sparsify::RoundInput{};
    sub.dim = in.dim;
    sub.round = 1;
    sub.data_weights = {w_scratch.data(), w_scratch.size()};
    sub.client_ids = {id_scratch.data(), id_scratch.size()};
    for (const std::size_t i : id_scratch) {
      sub.client_vectors.push_back(in.client_vectors[i]);
      sub.client_chunk_max.push_back(in.client_chunk_max[i]);
    }
  }
};

struct SweepRow {
  std::string kernel;
  double pi_on;
  std::size_t participants;
  double ns_per_op;
  double peak_rss_mb;
  double uplink_values = 0.0;  // realized fleet uplink of one round
  double uplink_bytes = 0.0;   // fl::values_to_bytes of the same
};

/// Total realized uplink of one round outcome across its participants.
double total_uplink_values(const sparsify::RoundOutcome& o, std::size_t participants) {
  if (!o.client_uplink_values.empty()) {
    double t = 0.0;
    for (const double v : o.client_uplink_values) t += v;
    return t;
  }
  return o.uplink_values * static_cast<double>(participants);
}

void bench_fleet_scale(std::vector<KernelResult>& out, std::vector<SweepRow>& sweep,
                       std::size_t n, std::size_t d, const std::string& label) {
  const std::size_t k = d / 100 + 1;
  FleetInput fleet(n, d, /*distinct=*/256);
  sparsify::RoundOutcome sharded_ref, single_ref;

  // Sharded side: pool registered, one shard per slot (the simulation's auto
  // policy). Sweep points run cheapest-first so their RSS trail is clean.
  {
    util::ThreadPool pool;
    tensor::set_parallel_pool(&pool);
    sparsify::FabTopK method(d);
    method.set_sharding(std::min<std::size_t>(16, pool.slot_count()));
    std::vector<double> w_scratch;
    std::vector<std::size_t> id_scratch;
    sparsify::RoundInput sub;
    for (const double pi_on : {0.05, 0.27}) {
      fleet.subset(pi_on, w_scratch, id_scratch, sub);
      char name[96];
      std::snprintf(name, sizeof(name), "%s_pi%02d", label.c_str(),
                    static_cast<int>(pi_on * 100));
      out.push_back(measure(name, "", static_cast<double>(sub.client_vectors.size()) * d, [&] {
        do_not_optimize(method.round(sub, k));
      }));
      out.back().peak_rss_mb = peak_rss_mb();
      const double up = total_uplink_values(method.round(sub, k), sub.client_vectors.size());
      sweep.push_back({name, pi_on, sub.client_vectors.size(), out.back().ns_per_op,
                       out.back().peak_rss_mb, up, fl::values_to_bytes(up)});
    }
    out.push_back(measure(label, label + "_singleshard", static_cast<double>(n) * d, [&] {
      do_not_optimize(method.round(fleet.in, k));
    }));
    out.back().peak_rss_mb = peak_rss_mb();
    const double telemetry_off_ns = out.back().ns_per_op;
    std::printf("    peak RSS after %-34s %8.1f MB\n", label.c_str(), peak_rss_mb());
    sharded_ref = method.round(fleet.in, k);
    const double up_full = total_uplink_values(sharded_ref, n);
    sweep.push_back({label, 1.0, n, telemetry_off_ns, out.back().peak_rss_mb, up_full,
                     fl::values_to_bytes(up_full)});

    if (label == "server_round_N10000_D128k") {
      // Telemetry overhead gate: the SAME kernel with the registry + span
      // layer live (spans recorded per shard task and drained per iteration,
      // as the simulation does per round) must stay within 3% of telemetry
      // off. Sequential A-then-B timing is useless here — by this point the
      // bench has held every core busy for minutes and turbo decay alone
      // skews a later measurement by ~4% — so the gate interleaves the two:
      // alternating off/on iterations share whatever frequency the box is
      // at, and the median per-pair ratio cancels the drift. Nine measured
      // pairs follow the warm-up pair: with three, host slow periods moved
      // the median past the limit in 2 of 6 full runs on a shared 4-vCPU
      // VM; with nine, in none of 6.
      util::SpanSink::instance().discard();
      std::vector<util::Span> spans;
      std::vector<double> ratios;
      for (int pair = 0; pair < 10; ++pair) {
        const auto t0 = Clock::now();
        do_not_optimize(method.round(fleet.in, k));
        const auto t1 = Clock::now();
        util::set_telemetry_enabled(true);
        const auto t2 = Clock::now();
        do_not_optimize(method.round(fleet.in, k));
        spans.clear();
        util::SpanSink::instance().drain(spans);
        const auto t3 = Clock::now();
        util::set_telemetry_enabled(false);
        if (pair == 0) continue;  // warmup pair
        const double off_s = std::chrono::duration<double>(t1 - t0).count();
        const double on_s = std::chrono::duration<double>(t3 - t2).count();
        ratios.push_back(on_s / off_s);
      }
      util::SpanSink::instance().discard();
      std::sort(ratios.begin(), ratios.end());
      const double ratio = ratios[ratios.size() / 2];
      // The JSON entry carries the paired ratio scaled onto the off kernel's
      // ns/op, so bench_compare's speedup-vs-baseline for this pair is
      // exactly 1/ratio in every run — comparable across boxes.
      KernelResult r;
      r.name = label + "_telemetry";
      r.baseline = label;
      r.iterations = ratios.size();
      r.ns_per_op = telemetry_off_ns * ratio;
      r.items_per_s = static_cast<double>(n) * d * 1e9 / r.ns_per_op;
      out.push_back(r);
      std::printf("  %-28s %12.0f ns/op  %10.3e items/s  (%zu pairs)\n", r.name.c_str(),
                  r.ns_per_op, r.items_per_s, ratios.size());
      std::printf("    telemetry overhead on %-28s %+6.2f%% (median of %zu interleaved pairs)\n",
                  label.c_str(), 100.0 * (ratio - 1.0), ratios.size());
      if (ratio > 1.03) {
        std::fprintf(stderr,
                     "FATAL: telemetry-on %s is %.2f%% slower than telemetry-off "
                     "(limit 3%%, median of %zu interleaved pairs)\n",
                     label.c_str(), 100.0 * (ratio - 1.0), ratios.size());
        std::exit(1);
      }
    }
    tensor::set_parallel_pool(nullptr);
  }

  // Baseline: the same round engine at one shard with no pool registered —
  // serial selection through one workspace + the per-client hint store, and
  // every server pass over a single shard. Runs last so the sharded points'
  // RSS readings never include it.
  {
    sparsify::FabTopK method(d);
    method.set_sharding(1);
    out.push_back(measure(label + "_singleshard", "", static_cast<double>(n) * d, [&] {
      do_not_optimize(method.round(fleet.in, k));
    }));
    out.back().peak_rss_mb = peak_rss_mb();
    std::printf("    peak RSS after %-34s %8.1f MB\n", (label + "_singleshard").c_str(),
                peak_rss_mb());
    single_ref = method.round(fleet.in, k);
  }

  // The shard count must be a pure execution-strategy choice.
  if (sharded_ref.update != single_ref.update ||
      sharded_ref.reset_indices != single_ref.reset_indices ||
      sharded_ref.reset_offsets != single_ref.reset_offsets ||
      sharded_ref.contributed != single_ref.contributed) {
    std::fprintf(stderr, "FATAL: sharded round diverged from single-shard on %s\n",
                 label.c_str());
    std::exit(1);
  }
}

void write_sweep_csv(const std::vector<SweepRow>& sweep, const std::string& path) {
  std::ofstream f(path);
  f << "kernel,pi_on,participants,ns_per_op,ns_per_participant,peak_rss_mb,uplink_values,"
       "uplink_bytes\n";
  for (const auto& r : sweep) {
    f << r.kernel << "," << r.pi_on << "," << r.participants << "," << r.ns_per_op << ","
      << (r.participants > 0 ? r.ns_per_op / static_cast<double>(r.participants) : 0.0) << ","
      << r.peak_rss_mb << "," << r.uplink_values << "," << r.uplink_bytes << "\n";
  }
}

// --- event-driven round engine: buffered-async vs synchronized wall-clock ---
//
// The headline claim of the event-driven engine: under a long-tail mobile
// network the buffered-async aggregation (flush after the first M arrivals,
// deferred uploads folded into the next flush with staleness-discounted
// weight) reaches the same global loss in less *simulated* wall-clock than
// the synchronized barrier, which pays the slowest sampled straggler every
// round. Each point is one deterministic Simulation run — fixed seeds,
// simulated time units — so ns_per_op here holds the simulated
// time-to-target-loss, not a measured duration, and the async/sync ratio
// transfers across machines like any within-run speedup. The buffer sweep
// (M ∈ {25, 50, 75} of 100 sampled clients) lands in BENCH_async_sweep.csv.

struct AsyncSweepRow {
  std::string label;
  std::size_t buffer_size;  // 0 = synchronized barrier
  std::size_t rounds_run;
  double total_sim_time;
  double time_to_target;
  double best_eval_loss;
  double mean_staleness;    // averaged over rounds
  double uplink_values = 0.0;  // run-total realized client uplink
  double uplink_bytes = 0.0;
};

fl::SimulationResult run_longtail_engine(std::size_t buffer_size) {
  data::SyntheticConfig dc;
  dc.num_classes = 4;
  dc.channels = 1;
  dc.height = 4;
  dc.width = 4;
  dc.num_clients = 1000;
  dc.samples_per_client = 2;
  dc.test_samples = 64;
  dc.seed = 21;
  fl::SimulationConfig cfg;
  cfg.batch = 2;
  cfg.max_rounds = 60;
  cfg.eval_every = 5;
  cfg.eval_samples_per_client = 1;
  cfg.eval_test_samples = 32;
  cfg.participation = 0.1;  // 100 sampled clients per round
  cfg.threads = 2;
  cfg.seed = 21;
  fl::apply_scenario(fl::make_scenario("longtail_mobile", dc.num_clients, cfg.seed), cfg);
  if (buffer_size > 0) {
    cfg.aggregation = fl::AggregationMode::kBufferedAsync;
    cfg.async.buffer_size = buffer_size;
    cfg.async.staleness_lambda = 0.25;
  }
  auto factory = nn::mlp(16, {12}, 4);
  util::Rng probe(1);
  const std::size_t dim = factory(probe)->dim();
  fl::Simulation sim(cfg, data::make_synthetic(dc), factory,
                     sparsify::make_method("fab_topk", dim, 5),
                     std::make_unique<online::FixedK>(20.0));
  return sim.run();
}

double best_eval_loss(const fl::SimulationResult& res) {
  double best = std::numeric_limits<double>::infinity();
  for (const auto& r : res.records) {
    if (!std::isnan(r.global_loss)) best = std::min(best, r.global_loss);
  }
  return best;
}

/// Simulated time at which the run's evaluated global loss first reached
/// `target` (total time when it never did — the gate then shows no win).
double time_to_loss(const fl::SimulationResult& res, double target) {
  for (const auto& r : res.records) {
    if (!std::isnan(r.global_loss) && r.global_loss <= target) return r.time;
  }
  return res.total_time;
}

void bench_async_engine(std::vector<KernelResult>& out, std::vector<AsyncSweepRow>& sweep) {
  const std::size_t buffers[] = {0, 25, 50, 75};  // 0 = synchronized barrier
  std::vector<fl::SimulationResult> runs;
  for (const std::size_t b : buffers) runs.push_back(run_longtail_engine(b));

  // Common target: the worst best-loss across all points, so every point
  // reached it and time-to-target is well defined everywhere.
  double target = 0.0;
  for (const auto& res : runs) target = std::max(target, best_eval_loss(res));

  for (std::size_t p = 0; p < runs.size(); ++p) {
    const fl::SimulationResult& res = runs[p];
    AsyncSweepRow row;
    row.label = buffers[p] == 0 ? "sync_barrier" : "async_M" + std::to_string(buffers[p]);
    row.buffer_size = buffers[p];
    row.rounds_run = res.rounds_run;
    row.total_sim_time = res.total_time;
    row.time_to_target = time_to_loss(res, target);
    row.best_eval_loss = best_eval_loss(res);
    row.mean_staleness = 0.0;
    for (const auto& r : res.records) row.mean_staleness += r.mean_staleness;
    if (!res.records.empty()) row.mean_staleness /= static_cast<double>(res.records.size());
    for (const double v : res.client_uplink_values) row.uplink_values += v;
    row.uplink_bytes = fl::values_to_bytes(row.uplink_values);
    std::printf("  %-28s time-to-loss(%.4f) = %10.1f  (%zu rounds, mean staleness %.2f)\n",
                row.label.c_str(), target, row.time_to_target, row.rounds_run,
                row.mean_staleness);
    sweep.push_back(row);
  }

  // The gated pair: sync barrier vs the headline M=50 point (half the
  // sampled cohort — flush at the median arrival instead of the tail).
  KernelResult sync_kr;
  sync_kr.name = "loss_vs_wallclock_sync_N1000_longtail";
  sync_kr.ns_per_op = sweep[0].time_to_target;  // simulated units, see above
  sync_kr.iterations = 1;
  out.push_back(sync_kr);
  KernelResult async_kr;
  async_kr.name = "loss_vs_wallclock_async_N1000_longtail";
  async_kr.baseline = sync_kr.name;
  async_kr.ns_per_op = sweep[2].time_to_target;
  async_kr.iterations = 1;
  out.push_back(async_kr);

  if (!(async_kr.ns_per_op < sync_kr.ns_per_op)) {
    std::fprintf(stderr,
                 "FATAL: buffered-async (M=50) did not reach loss %.4f in less simulated "
                 "wall-clock than the synchronized barrier (%.1f vs %.1f)\n",
                 target, async_kr.ns_per_op, sync_kr.ns_per_op);
    std::exit(1);
  }
}

void write_async_csv(const std::vector<AsyncSweepRow>& sweep, const std::string& path) {
  std::ofstream f(path);
  f << "label,buffer_size,rounds_run,total_sim_time,time_to_target,best_eval_loss,"
       "mean_staleness,uplink_values,uplink_bytes\n";
  for (const auto& r : sweep) {
    f << r.label << "," << r.buffer_size << "," << r.rounds_run << "," << r.total_sim_time << ","
      << r.time_to_target << "," << r.best_eval_loss << "," << r.mean_staleness << ","
      << r.uplink_values << "," << r.uplink_bytes << "\n";
  }
}

// --- Byzantine attack sweep: robust aggregation must restore the ordering ---
//
// Three deterministic runs of the same FAB/FixedK task (identical seeds, so
// the clean run is byte-identical to the pre-robust engine): clean, attacked
// with the defense off, attacked with the trimmed-mean robust reduce on. The
// gate pins the headline robustness claim: under a 20% colluding sign-flip
// cohort the defended run's final loss stays within 10% of the clean run,
// while the undefended mean is measurably worse than the defended one. Both
// orderings FATAL when inverted — a regression in either the adversary model
// (attack stopped biting) or the robust stage (defense stopped working).
// ns_per_op holds the final evaluated loss (a deterministic simulated metric,
// like the async-engine gate); no baseline key, so the speedup comparisons in
// CI skip these kernels.

fl::SimulationResult run_byzantine_point(bool attacked, bool defended) {
  data::SyntheticConfig dc;
  dc.num_classes = 4;
  dc.channels = 1;
  dc.height = 4;
  dc.width = 4;
  dc.num_clients = 50;
  dc.samples_per_client = 4;
  dc.test_samples = 64;
  dc.seed = 23;
  fl::SimulationConfig cfg;
  cfg.batch = 2;
  cfg.max_rounds = 60;
  cfg.eval_every = 5;
  cfg.eval_samples_per_client = 2;
  cfg.eval_test_samples = 32;
  cfg.threads = 2;
  cfg.seed = 23;
  if (attacked) {
    cfg.faults.adversary.attack = fl::AttackKind::kSignFlip;
    cfg.faults.adversary.byzantine_fraction = 0.2;
    // Cohort seed chosen so the realized cohort is exactly 10/50 — the draw
    // is per-client Bernoulli, so an unlucky seed can realize 30% and turn
    // the gate into a data-mass comparison instead of a defense comparison.
    cfg.faults.adversary.cohort_seed = 17;
    cfg.validation.enabled = true;  // both attacked points get the screen
    // Reputation quarantine holds for the whole run: a caught sign-flipper
    // contributes nothing ever again (its data is unrecoverable anyway —
    // every upload it will ever send is flipped).
    cfg.validation.quarantine_rounds = cfg.max_rounds;
  }
  if (defended) {
    cfg.robust.enabled = true;
    cfg.robust.kind = sparsify::RobustKind::kTrimmedMean;
    cfg.robust.trim_fraction = 0.25;
  }
  auto factory = nn::mlp(16, {12}, 4);
  util::Rng probe(1);
  const std::size_t dim = factory(probe)->dim();
  // k = 48 of D = 256 keeps per-coordinate support around n·k/D ≈ 9 of the
  // 50-client flush — deep enough that trimming both ends still leaves a
  // usable honest majority per coordinate.
  fl::Simulation sim(cfg, data::make_synthetic(dc), factory,
                     sparsify::make_method("fab_topk", dim, 5),
                     std::make_unique<online::FixedK>(48.0));
  return sim.run();
}

void bench_byzantine(std::vector<KernelResult>& out) {
  const fl::SimulationResult clean = run_byzantine_point(/*attacked=*/false, /*defended=*/false);
  const fl::SimulationResult undefended =
      run_byzantine_point(/*attacked=*/true, /*defended=*/false);
  const fl::SimulationResult defended = run_byzantine_point(/*attacked=*/true, /*defended=*/true);

  const double clean_loss = clean.final_loss;
  const double undefended_loss = undefended.final_loss;
  const double defended_loss = defended.final_loss;
  std::printf("  %-36s final loss %.4f\n", "byzantine_clean", clean_loss);
  std::printf("  %-36s final loss %.4f\n", "byzantine_attacked_undefended", undefended_loss);
  std::printf("  %-36s final loss %.4f\n", "byzantine_attacked_trimmed_mean", defended_loss);

  for (const auto& [name, loss] :
       {std::pair<const char*, double>{"byzantine_clean_loss", clean_loss},
        {"byzantine_undefended_loss", undefended_loss},
        {"byzantine_trimmed_mean_loss", defended_loss}}) {
    KernelResult r;
    r.name = name;
    r.ns_per_op = loss;  // simulated metric, see above
    r.iterations = 1;
    out.push_back(r);
  }

  if (!(defended_loss <= 1.10 * clean_loss)) {
    std::fprintf(stderr,
                 "FATAL: trimmed-mean under 20%% sign-flip cohort lost more than 10%% vs the "
                 "clean run (%.4f vs clean %.4f)\n",
                 defended_loss, clean_loss);
    std::exit(1);
  }
  if (!(undefended_loss > defended_loss)) {
    std::fprintf(stderr,
                 "FATAL: undefended mean under the sign-flip cohort was not worse than the "
                 "trimmed-mean defense (%.4f vs defended %.4f)\n",
                 undefended_loss, defended_loss);
    std::exit(1);
  }
}

void bench_parallel_for(std::vector<KernelResult>& out) {
  util::ThreadPool pool;
  const std::size_t n = 1u << 20;
  std::vector<float> x(n, 1.0f);
  out.push_back(measure("parallel_for_chunked_1M", "", static_cast<double>(n), [&] {
    pool.parallel_for(n, [&](std::size_t i) { x[i] *= 1.0000001f; });
    do_not_optimize(x.data());
  }));
}

double find_ns(const std::vector<KernelResult>& rs, const std::string& name) {
  for (const auto& r : rs) {
    if (r.name == name) return r.ns_per_op;
  }
  return 0.0;
}

void write_json(const std::vector<KernelResult>& rs, const std::string& path) {
  std::ofstream f(path);
  f << "{\n  \"schema\": 1,\n  \"kernels\": [\n";
  for (std::size_t i = 0; i < rs.size(); ++i) {
    const auto& r = rs[i];
    f << "    {\"name\": \"" << r.name << "\", \"ns_per_op\": " << r.ns_per_op
      << ", \"items_per_s\": " << r.items_per_s << ", \"iterations\": " << r.iterations;
    if (r.peak_rss_mb > 0.0) f << ", \"peak_rss_mb\": " << r.peak_rss_mb;
    if (!r.baseline.empty()) {
      const double base = find_ns(rs, r.baseline);
      f << ", \"baseline\": \"" << r.baseline
        << "\", \"speedup_vs_baseline\": " << (r.ns_per_op > 0.0 ? base / r.ns_per_op : 0.0);
    }
    f << "}" << (i + 1 < rs.size() ? "," : "") << "\n";
  }
  f << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string path = "BENCH_micro.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      g_budget_seconds = 0.05;
    } else {
      path = argv[i];
    }
  }
  const bool quick = g_budget_seconds < 0.5;
  std::printf("fedsparse kernel microbenchmarks (budget %.2fs/kernel)\n", g_budget_seconds);
  std::vector<KernelResult> results;
  std::vector<SweepRow> sweep;
  std::vector<AsyncSweepRow> async_sweep;
  bench_topk(results);
  bench_gemm(results);
  bench_linear(results);
  bench_conv2d(results);
  bench_accumulator(results);
  bench_fab_round(results);
  bench_round_engine(results);
  bench_tiered_rounds(results);
  bench_fleet_scale(results, sweep, 10000, 1u << 17, "server_round_N10000_D128k");
  if (!quick) {
    // N=100k client vectors over 256 shared buffers plus 100k uploads per
    // round: hundreds of MB. Full runs only, so --quick CI smoke stays lean.
    bench_fleet_scale(results, sweep, 100000, 1u << 16, "server_round_N100000_D64k");
  }
  std::printf("  buffered-async vs synchronized wall-clock (deterministic, simulated time):\n");
  bench_async_engine(results, async_sweep);
  std::printf("  byzantine attack sweep (deterministic, final evaluated loss):\n");
  bench_byzantine(results);
  bench_parallel_for(results);
  write_json(results, path);
  const std::size_t slash = path.find_last_of('/');
  const std::string sweep_path =
      (slash == std::string::npos ? std::string() : path.substr(0, slash + 1)) +
      "BENCH_fleet_sweep.csv";
  write_sweep_csv(sweep, sweep_path);
  const std::string async_path =
      (slash == std::string::npos ? std::string() : path.substr(0, slash + 1)) +
      "BENCH_async_sweep.csv";
  write_async_csv(async_sweep, async_path);
  std::printf("wrote %s\n", path.c_str());
  std::printf("wrote %s\n", sweep_path.c_str());
  std::printf("wrote %s\n", async_path.c_str());
  return 0;
}
