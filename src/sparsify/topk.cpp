#include "sparsify/topk.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <limits>
#include <stdexcept>

#include "sparsify/accumulator.h"
#include "sparsify/keys.h"
#include "tensor/matrix.h"
#include "util/thread_pool.h"
#include "util/vec_ext.h"

namespace fedsparse::sparsify {

namespace {

constexpr std::size_t kSampleSize = 512;

// Below this dimension the prefilter's sampling pass is not worth its scan;
// selecting over all D entries is already cheap.
constexpr std::size_t kTopKPrefilterMinDim = 4096;

// Survivor cap of the hinted threshold scan for a depth-k selection.
constexpr std::size_t topk_hint_cap(std::size_t k) { return 8 * k + 64; }

// Appends the key of every entry in [begin, end) with |v[i]| >= threshold,
// in index order. Returns false (leaving keys valid but incomplete) as soon
// as a survivor would exceed `cap` — the hinted filter's bail-out.
//
// Vectorized in 16-element strides (util/vec_ext.h): two 8-lane
// compares fold into one survivor bitmask, walked bit-by-bit with ctz, so
// the common no-survivor stride costs two compares and one well-predicted
// branch instead of 16 fabs tests. The |v| >= t predicate is evaluated as
// (v >= t) | (v <= -t) — identical for every float including ±0 (and NaN,
// which fails both forms) — and survivors append in ascending index order
// either way, so the collected key sequence matches the scalar loop exactly.
bool threshold_scan_range_append(const float* v, std::size_t begin, std::size_t end,
                                 float threshold, std::size_t cap,
                                 std::vector<std::uint64_t>& keys) {
  std::size_t i = begin;
#if FEDSPARSE_VEC_EXT
  namespace vec = util::vec;
  using vec::load8;
  using vec::v8sf;
  const v8sf tv = {threshold, threshold, threshold, threshold,
                   threshold, threshold, threshold, threshold};
  const v8sf ntv = -tv;
  for (; i + 2 * vec::kLanes <= end; i += 2 * vec::kLanes) {
    const v8sf x0 = load8(v + i);
    const v8sf x1 = load8(v + i + vec::kLanes);
    const int m0 = vec::lane_mask((x0 >= tv) | (x0 <= ntv));
    const int m1 = vec::lane_mask((x1 >= tv) | (x1 <= ntv));
    int mask = m0 | (m1 << vec::kLanes);
    while (mask != 0) {
      const auto lane = static_cast<std::size_t>(__builtin_ctz(static_cast<unsigned>(mask)));
      mask &= mask - 1;
      if (keys.size() >= cap) return false;
      keys.push_back(make_key(v[i + lane], i + lane));
    }
  }
#endif
  for (; i < end; ++i) {
    if (std::fabs(v[i]) >= threshold) {
      if (keys.size() >= cap) return false;
      keys.push_back(make_key(v[i], i));
    }
  }
  return true;
}

// Chunk-pruned threshold scan: chunks whose |v| upper bound is below the
// threshold contain no survivor by construction and cost one compare for
// their kAccumulatorChunk entries. Exact: pruning only skips entries a
// positive threshold already excludes, and surviving chunks are scanned in
// ascending order, so the appended key sequence is identical to the dense
// scan's.
bool threshold_scan_append(std::span<const float> v, std::span<const float> chunk_max,
                           float threshold, std::size_t cap, std::vector<std::uint64_t>& keys) {
  if (chunk_max.empty()) {
    return threshold_scan_range_append(v.data(), 0, v.size(), threshold, cap, keys);
  }
  // Pruning policy: the chunk walk only pays when chunks actually skip — at
  // high survivor fractions its data-dependent skip branch mispredicts
  // (~50/50 on a dense Gaussian accumulator with k = D/100, measured +7%
  // per selection) while saving nothing, so a strided sample of the bounds
  // estimates the surviving fraction and sends near-dense vectors down the
  // straight linear scan. Policy only: both paths collect the identical key
  // sequence, this picks the cheaper traversal.
  std::size_t sampled = 0, passing = 0;
  for (std::size_t c = 0; c < chunk_max.size(); c += 8) {
    ++sampled;
    passing += chunk_max[c] >= threshold ? 1 : 0;
  }
  if (10 * passing >= 4 * sampled) {
    return threshold_scan_range_append(v.data(), 0, v.size(), threshold, cap, keys);
  }
  for (std::size_t c = 0; c < chunk_max.size(); ++c) {
    if (chunk_max[c] < threshold) continue;
    const std::size_t begin = c * kAccumulatorChunk;
    const std::size_t end = std::min(v.size(), begin + kAccumulatorChunk);
    if (!threshold_scan_range_append(v.data(), begin, end, threshold, cap, keys)) return false;
  }
  return true;
}

// Estimates an |value| threshold from a strided sample such that roughly
// 2.5*k of the D entries survive, then keeps only entries >= threshold.
// Returns false when fewer than k survive (threshold overshot) — the caller
// falls back to scanning everything — and, without sampling, when 2.5*k >= D:
// the filter would keep almost every entry, so the dense collection is the
// same work without the sampling pass. Exactness: if >= k entries pass the
// filter, the k-th largest |v| overall is >= threshold, so every true top-k
// entry passed the filter too.
bool prefilter(std::span<const float> v, std::size_t k, std::span<const float> chunk_max,
               std::vector<std::uint64_t>& keys) {
  if (5 * k >= 2 * v.size()) return false;
  float sample[kSampleSize];
  const std::size_t stride = v.size() / kSampleSize;
  for (std::size_t s = 0; s < kSampleSize; ++s) sample[s] = std::fabs(v[s * stride]);
  const double frac = 2.5 * static_cast<double>(k) / static_cast<double>(v.size());
  const auto rank = static_cast<std::size_t>(frac * static_cast<double>(kSampleSize));
  std::nth_element(sample, sample + rank, sample + kSampleSize, std::greater<float>());
  const float threshold = sample[rank];
  // A zero threshold admits every entry (|v| >= 0 always holds) — e.g. a
  // post-reset accumulator that is mostly exact zeros — silently turning the
  // "prefilter" into a full copy plus a wasted sampling pass. Bail out to the
  // dense path instead.
  if (threshold <= 0.0f) return false;

  keys.clear();
  threshold_scan_append(v, chunk_max, threshold, std::numeric_limits<std::size_t>::max(), keys);
  if (keys.size() >= k) return true;
  keys.clear();
  return false;
}

// Threshold scan seeded by the caller's previous k-th magnitude: no sampling
// pass, and a threshold that tracks the true cut instead of aiming at 2.5k
// survivors. The hint is used as-is: accumulated gradients mostly grow
// between rounds, so last round's k-th magnitude usually still admits >= k
// entries, and when it does not (accumulator reset shifted the cut upward,
// or k grew) the sampled prefilter takes over. Loosening the threshold
// instead would drown in the distribution's bulk — on Gaussian-ish tails
// even a 2x margin admits a large fraction of D. The cap bails out when the
// landscape shifted the other way (k shrank a lot). Conservative-exact like
// prefilter(): success requires >= k survivors, which implies every true
// top-k entry passed.
bool hint_filter(std::span<const float> v, std::size_t k, float hint,
                 std::span<const float> chunk_max, std::vector<std::uint64_t>& keys) {
  if (hint <= 0.0f) return false;
  const std::size_t cap = topk_hint_cap(k);
  keys.clear();
  if (!threshold_scan_append(v, chunk_max, hint, cap, keys)) {
    keys.clear();
    return false;
  }
  if (keys.size() >= k) return true;
  keys.clear();
  return false;
}

// Sorting a short run costs less than one pass of bucket bookkeeping.
constexpr std::size_t kBucketMinKeys = 512;
// Buckets above this size are sorted by std::sort instead of the final
// insertion pass, so a run of equal magnitudes cannot go quadratic.
constexpr std::size_t kInsertionMaxRun = 16;
// 2^16 four-byte counters: the histogram stays in L2 at any n.
constexpr unsigned kMaxLogBuckets = 16;

// Insertion sort, descending. Linear on the bucketed output: every key is at
// most its bucket's width away from its place.
void insertion_sort_desc(std::uint64_t* a, std::size_t n) {
  for (std::size_t i = 1; i < n; ++i) {
    const std::uint64_t x = a[i];
    std::size_t j = i;
    for (; j > 0 && a[j - 1] < x; --j) a[j] = a[j - 1];
    a[j] = x;
  }
}

}  // namespace

// One histogram-and-scatter pass over [min key, max key]: 2^b buckets with
// 2^b in (n, 2n] (at most 2^16), a key's bucket its offset from the minimum
// shifted right by a common amount, so bucket order is key order. Buckets
// at or above the cut bucket (the one holding the k-th largest key) scatter
// in descending bucket order; keys below it are dropped. The float bit
// pattern is logarithmic in |v|, so even a dense vector's keys spread over
// many buckets. Inside a bucket keys keep input order: oversized buckets get
// std::sort (the cut bucket nth_element first), and one insertion pass
// orders the rest. Equal keys share a bucket and come out adjacent.
void top_keys_desc(std::span<const std::uint64_t> keys, std::size_t k, TopKeys& t) {
  const std::size_t n = keys.size();
  k = std::min(k, n);
  std::vector<std::uint64_t>& out = t.out;
  if (k == 0) {
    out.clear();
    return;
  }
  if (n < kBucketMinKeys) {
    out.assign(keys.begin(), keys.end());
    if (k < n) {
      std::nth_element(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(k), out.end(),
                       std::greater<std::uint64_t>());
      out.resize(k);
    }
    std::sort(out.begin(), out.end(), std::greater<std::uint64_t>());
    return;
  }
  std::uint64_t lo = ~std::uint64_t{0}, hi = 0;
  for (std::size_t i = 0; i < n; ++i) {
    lo = keys[i] < lo ? keys[i] : lo;
    hi = keys[i] > hi ? keys[i] : hi;
  }
  const auto log_buckets = std::min(static_cast<unsigned>(std::bit_width(n)), kMaxLogBuckets);
  const auto range_bits = static_cast<unsigned>(std::bit_width(hi - lo));
  const unsigned shift = range_bits > log_buckets ? range_bits - log_buckets : 0;
  const auto top = static_cast<std::size_t>((hi - lo) >> shift);
  std::vector<std::uint32_t>& count = t.count;
  count.reserve(std::size_t{1} << log_buckets);  // by n alone, so warm-up covers it
  count.assign(top + 1, 0);
  for (const std::uint64_t key : keys) ++count[(key - lo) >> shift];

  // Walk down from the top bucket to the cut bucket (the one holding the
  // k-th largest key), turning counts into write cursors.
  std::size_t cut = top, pos = 0, widest = 0;
  for (;; --cut) {
    const std::size_t c = count[cut];
    count[cut] = static_cast<std::uint32_t>(pos);
    widest = std::max(widest, c);
    pos += c;
    if (pos >= k) break;
  }
  // Keys below the cut all land on out[pos], and the choice is a mask, not
  // a branch: about half the keys of a hinted selection fall below the cut,
  // in no predictable order. A below-cut counter is overwritten unread.
  out.resize(pos + 1);
  std::uint64_t* o = out.data();
  const auto drop = static_cast<std::uint32_t>(pos);
  for (const std::uint64_t key : keys) {
    const auto b = static_cast<std::size_t>((key - lo) >> shift);
    const std::uint32_t keep = b >= cut ? 1 : 0;
    const std::uint32_t at = (count[b] & (0u - keep)) | (drop & (keep - 1));
    o[at] = key;
    count[b] = at + keep;
  }
  // count[b] is now bucket b's end, and bucket b+1's end its begin.
  std::size_t sorted_to = pos;  // the insertion pass's extent
  if (widest > kInsertionMaxRun) {
    std::size_t begin = 0;
    for (std::size_t b = top + 1; b-- > cut;) {
      const std::size_t end = count[b];
      if (end - begin > kInsertionMaxRun) {
        // A run that arrives sorted (exact zeros, keyed in index order, as
        // the dense paths collect them) stays as it is.
        if (!std::is_sorted(o + begin, o + end, std::greater<std::uint64_t>())) {
          const std::size_t last = b == cut ? k : end;
          if (last < end) {
            std::nth_element(o + begin, o + last, o + end, std::greater<std::uint64_t>());
          }
          std::sort(o + begin, o + last, std::greater<std::uint64_t>());
        }
        if (b == cut) sorted_to = k;
      }
      begin = end;
    }
  }
  insertion_sort_desc(o, sorted_to);
  out.resize(k);
}

namespace {

// Dense fallback when summaries exist: clean chunks (bound 0) hold only
// (±)zeros, so collect every |v| > 0 entry from the dirty chunks first —
// O(dirty) instead of O(D). If fewer than k such entries exist the full
// sort's tail is zeros in ascending index order (|0| ties break on index),
// which the pad loop reproduces exactly, reading the stored value so even a
// -0.0 entry round-trips bit-for-bit.
void collect_tiered_dense(std::span<const float> v, std::span<const float> chunk_max,
                          std::size_t k, std::vector<std::uint64_t>& keys) {
  keys.clear();
  for (std::size_t c = 0; c < chunk_max.size(); ++c) {
    if (chunk_max[c] <= 0.0f) continue;
    const std::size_t begin = c * kAccumulatorChunk;
    const std::size_t end = std::min(v.size(), begin + kAccumulatorChunk);
    for (std::size_t i = begin; i < end; ++i) {
      if (key_abs_bits(v[i]) != 0) keys.push_back(make_key(v[i], i));
    }
  }
  if (keys.size() >= k) return;
  // Every positive-|v| entry is selected; pad with the smallest-index zeros.
  std::size_t need = k - keys.size();
  for (std::size_t c = 0; c < chunk_max.size() && need > 0; ++c) {
    const std::size_t begin = c * kAccumulatorChunk;
    const std::size_t end = std::min(v.size(), begin + kAccumulatorChunk);
    if (chunk_max[c] <= 0.0f) {
      for (std::size_t i = begin; i < end && need > 0; ++i, --need) {
        keys.push_back(make_key(v[i], i));
      }
    } else {
      for (std::size_t i = begin; i < end && need > 0; ++i) {
        if (key_abs_bits(v[i]) == 0) {
          keys.push_back(make_key(v[i], i));
          --need;
        }
      }
    }
  }
}

// Returns the k strongest entries' keys, strongest first (a view of ws.top).
std::span<const std::uint64_t> select(std::span<const float> v, std::span<const float> chunk_max,
                                      std::size_t k, TopKWorkspace& ws) {
  if (!chunk_max.empty() && chunk_max.size() != accumulator_chunks(v.size())) {
    throw std::invalid_argument("top_k: chunk summary size does not cover the vector");
  }
  k = std::min(k, v.size());
  std::vector<std::uint64_t>& keys = ws.keys;
  keys.clear();
  if (k == 0) return {};

  bool hint_ok = false;
  bool filtered = false;
  if (k < v.size() && v.size() >= kTopKPrefilterMinDim) {
    hint_ok = hint_filter(v, k, ws.threshold_hint, chunk_max, keys);
    filtered = hint_ok || prefilter(v, k, chunk_max, keys);
  }
  if (!filtered) {
    if (!chunk_max.empty()) {
      collect_tiered_dense(v, chunk_max, k, keys);
    } else {
      for (std::size_t i = 0; i < v.size(); ++i) keys.push_back(make_key(v[i], i));
    }
  }
  top_keys_desc(keys, k, ws.top);
  const std::span<const std::uint64_t> top = ws.top.out;
  // Replace the hint when this selection is at least as deep as the one that
  // produced it, or when the stored hint just failed (it drifted stale — low
  // thresholds self-correct here after a cap bail-out). A successful
  // shallower pass keeps the deeper hint intact.
  if (!hint_ok || k >= ws.hint_k) {
    ws.threshold_hint = top.empty() ? 0.0f : std::fabs(v[key_index(top.back())]);
    ws.hint_k = k;
  }
  return top;
}

void write_entries(std::span<const float> v, std::span<const std::uint64_t> top,
                   SparseVector& out) {
  out.resize(top.size());
  for (std::size_t i = 0; i < top.size(); ++i) {
    const std::size_t idx = key_index(top[i]);
    out[i] = SparseEntry{static_cast<std::int32_t>(idx), v[idx]};
  }
}

}  // namespace

void top_k_entries(std::span<const float> v, std::size_t k, TopKWorkspace& ws, SparseVector& out) {
  write_entries(v, select(v, /*chunk_max=*/{}, k, ws), out);
}

void top_k_entries(std::span<const float> v, std::span<const float> chunk_max, std::size_t k,
                   TopKWorkspace& ws, SparseVector& out) {
  write_entries(v, select(v, chunk_max, k, ws), out);
}

void top_k_indices(std::span<const float> v, std::size_t k, TopKWorkspace& ws,
                   std::vector<std::int32_t>& out) {
  const std::span<const std::uint64_t> top = select(v, /*chunk_max=*/{}, k, ws);
  out.resize(top.size());
  for (std::size_t i = 0; i < top.size(); ++i) {
    out[i] = static_cast<std::int32_t>(key_index(top[i]));
  }
}

void top_k_uploads(const std::vector<std::span<const float>>& vecs,
                   const std::vector<std::span<const float>>& chunk_maxes, std::size_t k,
                   std::span<const std::size_t> ids, std::vector<TopKWorkspace>& slot_workspaces,
                   std::vector<ClientHint>& hints, std::vector<SparseVector>& uploads) {
  const std::size_t n = vecs.size();
  if (!chunk_maxes.empty() && chunk_maxes.size() != n) {
    throw std::invalid_argument("top_k_uploads: chunk_maxes size mismatch");
  }
  uploads.resize(n);
  std::size_t hints_needed = n;
  for (const std::size_t id : ids) hints_needed = std::max(hints_needed, id + 1);
  if (hints.size() < hints_needed) hints.resize(hints_needed);
  util::ThreadPool* pool = tensor::parallel_pool();
  const std::size_t slots = pool != nullptr ? pool->slot_count() : 1;
  if (slot_workspaces.size() < slots) slot_workspaces.resize(slots);
  const auto select_slot = [&](std::size_t s) {
    // The workspace is pure scratch except for (threshold_hint, hint_k);
    // round-tripping that pair through the per-client store makes this
    // byte-identical to a dedicated per-client workspace.
    TopKWorkspace& ws = slot_workspaces[pool != nullptr ? pool->current_slot() : 0];
    ClientHint& hint = hints[ids.empty() ? s : ids[s]];
    ws.threshold_hint = hint.threshold;
    ws.hint_k = hint.k;
    top_k_entries(vecs[s], chunk_maxes.empty() ? std::span<const float>{} : chunk_maxes[s], k,
                  ws, uploads[s]);
    hint.threshold = ws.threshold_hint;
    hint.k = static_cast<std::uint32_t>(ws.hint_k);
  };
  // Below ~64k total elements the pool dispatch costs more than the
  // selections; the FAB round this threads (N=10, D=128k) is far above it.
  constexpr std::size_t kParallelElemThreshold = 1u << 16;
  std::size_t total = 0;
  for (const auto& v : vecs) total += v.size();
  if (pool != nullptr && pool->size() > 1 && n > 1 && total >= kParallelElemThreshold) {
    pool->parallel_for(n, select_slot, /*grain=*/1);
  } else {
    for (std::size_t s = 0; s < n; ++s) select_slot(s);
  }
}

std::vector<std::int32_t> top_k_indices(std::span<const float> v, std::size_t k) {
  TopKWorkspace ws;
  std::vector<std::int32_t> out;
  top_k_indices(v, k, ws, out);
  return out;
}

SparseVector top_k_entries(std::span<const float> v, std::size_t k) {
  TopKWorkspace ws;
  SparseVector out;
  top_k_entries(v, k, ws, out);
  return out;
}

}  // namespace fedsparse::sparsify
