#include "fl/replay.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>

namespace fedsparse::fl {

namespace {

constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001B3ULL;

void fnv(std::uint64_t& h, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
}

template <typename T>
void fnv_vec(std::uint64_t& h, const std::vector<T>& v) {
  const std::uint64_t n = v.size();
  fnv(h, &n, sizeof n);
  if (!v.empty()) fnv(h, v.data(), v.size() * sizeof(T));
}

// --- binary io ------------------------------------------------------------

// "FRL3": v2 appended AdversaryConfig to FaultConfig and RobustConfig to the
// header — both POD-serialized, so the struct layouts are part of the format;
// v3 records the fleet size after dim, so loading can bound client ids.
constexpr std::uint32_t kMagic = 0x46524C33;

struct Writer {
  std::FILE* f;
  void raw(const void* p, std::size_t n) {
    if (std::fwrite(p, 1, n, f) != n) throw std::runtime_error("replay log: short write");
  }
  template <typename T>
  void pod(const T& v) {
    raw(&v, sizeof v);
  }
  template <typename T>
  void vec(const std::vector<T>& v) {
    pod(static_cast<std::uint64_t>(v.size()));
    if (!v.empty()) raw(v.data(), v.size() * sizeof(T));
  }
  void str(const std::string& s) {
    pod(static_cast<std::uint64_t>(s.size()));
    if (!s.empty()) raw(s.data(), s.size());
  }
};

// Reads an untrusted file: every length prefix is bounded by the bytes left,
// so a flipped length bit throws instead of asking for exabytes (and
// n * sizeof(T) cannot overflow).
struct Reader {
  std::FILE* f;
  std::uint64_t left;  // bytes not yet read
  void raw(void* p, std::size_t n) {
    if (n > left || std::fread(p, 1, n, f) != n) {
      throw std::runtime_error("replay log: short read");
    }
    left -= n;
  }
  template <typename T>
  void pod(T& v) {
    raw(&v, sizeof v);
  }
  std::uint64_t count(std::size_t elem_bytes) {
    std::uint64_t n = 0;
    pod(n);
    if (n > left / elem_bytes) throw std::runtime_error("replay log: length exceeds file");
    return n;
  }
  template <typename T>
  void vec(std::vector<T>& v) {
    const std::uint64_t n = count(sizeof(T));
    v.resize(n);
    if (n != 0) raw(v.data(), n * sizeof(T));
  }
  void str(std::string& s) {
    const std::uint64_t n = count(1);
    s.resize(n);
    if (n != 0) raw(s.data(), n);
  }
};

// Smallest serialized round: round + k, seven empty vector prefixes, digest.
constexpr std::size_t kMinRoundBytes = 2 * sizeof(std::uint32_t) + 7 * sizeof(std::uint64_t) +
                                       sizeof(std::uint64_t);

// Structural checks replay() relies on to index a round's CSR safely.
void check_round(const ReplayRound& r, std::uint64_t dim, std::uint64_t fleet) {
  const auto bad = [&r](const char* what) {
    throw std::runtime_error("replay log: round " + std::to_string(r.round) + ": " + what);
  };
  const std::size_t n = r.client_ids.size();
  if (r.data_weights.size() != n) bad("data_weights and client_ids differ in size");
  for (std::size_t s = 0; s < n; ++s) {
    if (s > 0 && r.client_ids[s] <= r.client_ids[s - 1]) bad("client ids not strictly increasing");
    if (r.client_ids[s] >= fleet) bad("client id not below the fleet size");
  }
  if (r.vec_offsets.size() != n + 1) bad("vec_offsets needs one entry per client plus one");
  if (r.vec_offsets.front() != 0) bad("vec_offsets does not start at 0");
  for (std::size_t s = 0; s < n; ++s) {
    if (r.vec_offsets[s + 1] < r.vec_offsets[s]) bad("vec_offsets decreases");
  }
  if (r.vec_offsets.back() != r.vec_indices.size() ||
      r.vec_offsets.back() != r.vec_values.size()) {
    bad("vec_offsets does not end at the size of vec_indices and vec_values");
  }
  for (const std::int32_t j : r.vec_indices) {
    if (j < 0 || static_cast<std::uint64_t>(j) >= dim) bad("vector index out of [0, dim)");
  }
}

// dim > 0, and small enough for the int32 vector indices to address; the
// fleet holds at least one client and no more than uint32 ids can name.
void check_header(std::uint64_t dim, std::uint64_t fleet) {
  if (dim == 0 || dim > (std::uint64_t{1} << 31)) {
    throw std::runtime_error("replay log: dim must be in [1, 2^31]");
  }
  if (fleet == 0 || fleet > (std::uint64_t{1} << 32)) {
    throw std::runtime_error("replay log: fleet must be in [1, 2^32]");
  }
}

}  // namespace

std::uint64_t outcome_digest(const sparsify::RoundOutcome& out) {
  std::uint64_t h = kFnvOffset;
  const auto kind = static_cast<std::uint32_t>(out.kind);
  fnv(h, &kind, sizeof kind);
  fnv_vec(h, out.update);
  fnv_vec(h, out.dense);
  const auto reset = static_cast<std::uint32_t>(out.reset_kind);
  fnv(h, &reset, sizeof reset);
  fnv_vec(h, out.reset_indices);
  fnv_vec(h, out.reset_offsets);
  fnv_vec(h, out.uniform_reset);
  fnv_vec(h, out.contributed);
  return h;
}

RoundRecorder::RoundRecorder(std::size_t dim, std::size_t fleet, std::string method,
                             std::uint64_t seed, const FaultConfig& faults,
                             const sparsify::ValidationConfig& validation,
                             const sparsify::RobustConfig& robust) {
  log_.dim = dim;
  log_.fleet = fleet;
  log_.seed = seed;
  log_.method = std::move(method);
  log_.fault_config = faults;
  log_.validation = validation;
  log_.robust = robust;
}

void RoundRecorder::record(const sparsify::RoundInput& in, std::size_t k,
                           std::span<const FaultEvent> faults, std::span<const Event> timeline,
                           const sparsify::RoundOutcome& out) {
  ReplayRound r;
  r.round = static_cast<std::uint32_t>(in.round);
  r.k = static_cast<std::uint32_t>(k);
  const std::size_t n = in.client_vectors.size();
  r.client_ids.reserve(n);
  for (std::size_t s = 0; s < n; ++s) {
    r.client_ids.push_back(
        static_cast<std::uint32_t>(in.client_ids.empty() ? s : in.client_ids[s]));
  }
  r.data_weights.assign(in.data_weights.begin(), in.data_weights.end());
  r.vec_offsets.reserve(n + 1);
  r.vec_offsets.push_back(0);
  for (std::size_t s = 0; s < n; ++s) {
    const auto vec = in.client_vectors[s];
    for (std::size_t j = 0; j < vec.size(); ++j) {
      if (vec[j] != 0.0f) {
        r.vec_indices.push_back(static_cast<std::int32_t>(j));
        r.vec_values.push_back(vec[j]);
      }
    }
    r.vec_offsets.push_back(r.vec_indices.size());
  }
  r.faults.assign(faults.begin(), faults.end());
  r.timeline.assign(timeline.begin(), timeline.end());
  r.digest = outcome_digest(out);
  log_.rounds.push_back(std::move(r));
}

void ReplayLog::save(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) throw std::runtime_error("replay log: cannot open " + path);
  try {
    Writer w{f};
    w.pod(kMagic);
    w.pod(dim);
    w.pod(fleet);
    w.pod(seed);
    w.str(method);
    w.pod(fault_config);
    w.pod(validation);
    w.pod(robust);
    w.pod(static_cast<std::uint64_t>(rounds.size()));
    for (const ReplayRound& r : rounds) {
      w.pod(r.round);
      w.pod(r.k);
      w.vec(r.client_ids);
      w.vec(r.data_weights);
      w.vec(r.vec_offsets);
      w.vec(r.vec_indices);
      w.vec(r.vec_values);
      w.vec(r.faults);
      w.vec(r.timeline);
      w.pod(r.digest);
    }
  } catch (...) {
    std::fclose(f);
    throw;
  }
  std::fclose(f);
}

ReplayLog ReplayLog::load(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) throw std::runtime_error("replay log: cannot open " + path);
  ReplayLog log;
  try {
    std::uint64_t size = 0;
    if (std::fseek(f, 0, SEEK_END) == 0) {
      const long end = std::ftell(f);
      if (end > 0) size = static_cast<std::uint64_t>(end);
    }
    std::rewind(f);
    Reader rd{f, size};
    std::uint32_t magic = 0;
    rd.pod(magic);
    if (magic != kMagic) throw std::runtime_error("replay log: bad magic in " + path);
    rd.pod(log.dim);
    rd.pod(log.fleet);
    check_header(log.dim, log.fleet);
    rd.pod(log.seed);
    rd.str(log.method);
    rd.pod(log.fault_config);
    rd.pod(log.validation);
    rd.pod(log.robust);
    log.rounds.resize(rd.count(kMinRoundBytes));
    for (ReplayRound& r : log.rounds) {
      rd.pod(r.round);
      rd.pod(r.k);
      rd.vec(r.client_ids);
      rd.vec(r.data_weights);
      rd.vec(r.vec_offsets);
      rd.vec(r.vec_indices);
      rd.vec(r.vec_values);
      rd.vec(r.faults);
      rd.vec(r.timeline);
      rd.pod(r.digest);
      check_round(r, log.dim, log.fleet);
    }
  } catch (...) {
    std::fclose(f);
    throw;
  }
  std::fclose(f);
  return log;
}

ReplayResult replay(const ReplayLog& log, std::size_t shards) {
  check_header(log.dim, log.fleet);
  for (const ReplayRound& r : log.rounds) {
    check_round(r, log.dim, log.fleet);
    // check_round bounds n by the fleet (≤ 2^32) and dim ≤ 2^31, so the
    // product cannot wrap. The cap holds before the method or the round's
    // vectors are allocated.
    const std::uint64_t n = r.client_ids.size();
    if (std::max<std::uint64_t>(n, 1) * log.dim > kReplayMaxDenseFloats) {
      throw std::runtime_error("replay log: round " + std::to_string(r.round) + " needs " +
                               std::to_string(n) + " clients x dim " + std::to_string(log.dim) +
                               " dense floats, above the cap of " +
                               std::to_string(kReplayMaxDenseFloats));
    }
  }
  auto method = sparsify::make_method(log.method, log.dim, log.seed);
  method->set_sharding(shards);
  method->set_validation(log.validation);
  method->set_robust(log.robust);
  // dim flows into the FaultModel so targeted-coordinate poisoning lands on
  // the same coordinates it hit during recording.
  const FaultModel faults(log.fault_config, log.seed, log.dim);

  ReplayResult res;
  std::vector<float> dense;                       // slot-major dense vectors
  std::vector<std::size_t> ids;
  sparsify::RoundInput in;
  for (const ReplayRound& r : log.rounds) {
    const std::size_t n = r.client_ids.size();
    dense.assign(n * log.dim, 0.0f);
    for (std::size_t s = 0; s < n; ++s) {
      float* vec = dense.data() + s * log.dim;
      for (std::uint64_t p = r.vec_offsets[s]; p < r.vec_offsets[s + 1]; ++p) {
        vec[static_cast<std::size_t>(r.vec_indices[p])] = r.vec_values[p];
      }
    }
    ids.assign(r.client_ids.begin(), r.client_ids.end());
    in.client_vectors.clear();
    for (std::size_t s = 0; s < n; ++s) {
      in.client_vectors.emplace_back(dense.data() + s * log.dim, log.dim);
    }
    in.data_weights = {r.data_weights.data(), r.data_weights.size()};
    in.client_ids = {ids.data(), ids.size()};
    in.client_chunk_max.clear();
    in.tamper = faults.trivial() ? nullptr : &faults;
    in.dim = log.dim;
    in.round = r.round;
    const sparsify::RoundOutcome out = method->round(in, r.k);
    const std::uint64_t d = outcome_digest(out);
    res.digests.push_back(d);
    if (d != r.digest) ++res.mismatches;
    ++res.rounds;
  }
  return res;
}

}  // namespace fedsparse::fl
