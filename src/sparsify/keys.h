// 64-bit selection keys shared by the top-k kernel and the sharded round
// engine.
//
// A candidate entry (index, value) packs into one uint64: the |value| bits in
// the high word, the complemented index in the low word. IEEE-754 magnitude
// order equals unsigned integer order on the absolute-value bits (for non-NaN
// inputs), so plain descending uint64 order IS the selection's total order —
// (|v| desc, index asc) — and every partition/merge step compares one integer
// instead of two fabs() floats plus a tie branch. Because the order is total
// on distinct keys, per-shard key runs sorted by top_keys_desc (topk.h) merge
// into the global order with a plain two-pointer walk: the property the
// sharded engine's tree reduction relies on (shard_engine.h).
#pragma once

#include <cstdint>
#include <cstring>

namespace fedsparse::sparsify {

/// |v|'s IEEE bit pattern (sign cleared). NaNs rank above +inf's bits.
inline std::uint32_t key_abs_bits(float v) {
  std::uint32_t b;
  std::memcpy(&b, &v, sizeof b);
  return b & 0x7fffffffu;
}

/// (|value| bits << 32) | ~index. Descending uint64 = (|v| desc, index asc).
inline std::uint64_t make_key(float v, std::size_t i) {
  return (static_cast<std::uint64_t>(key_abs_bits(v)) << 32) |
         (~static_cast<std::uint32_t>(i));
}

/// Recovers the index from a key.
inline std::size_t key_index(std::uint64_t key) {
  return static_cast<std::size_t>(~static_cast<std::uint32_t>(key));
}

}  // namespace fedsparse::sparsify
