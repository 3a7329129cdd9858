// Golden round digests: absolute behaviour pins for a small config matrix.
//
// Every other equivalence test in the suite is pairwise (A ≡ B), so two code
// paths could drift together and stay green. These tests instead compare a
// run against digests committed under tests/golden/: per flush, the FNV-1a
// outcome digest the replay recorder computes (update payload, reset lists,
// contributed counts); per run, an FNV-1a digest of every client's final
// weights and the bits of the final simulated time. Each configuration runs
// at threads 1 and 2 — the second resolves to the multi-shard round engine —
// and both must reproduce the same file byte for byte.
//
// Matrix: fab/fub/unidirectional/periodic/send_all/fedavg × the uniform,
// churn_heavy, faulty_wan and byzantine_mix scenarios, synchronized; FAB
// again at participation 0.4; the top-k methods under buffered async
// (M = 25); and FAB under Algorithm 3 (extended_sign_ogd), synchronized and
// buffered async, which drives the k' probe path. See tests/golden/README.md
// for the toolchain assumptions the digests rely on.
//
// An intentional behaviour change regenerates the files with
//   FEDSPARSE_GOLDEN_UPDATE=1 ./build/golden_test
// and says why in the same change.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "data/synthetic.h"
#include "fl/network.h"
#include "fl/replay.h"
#include "fl/simulation.h"
#include "nn/models.h"
#include "online/controller.h"
#include "online/extended_sign_ogd.h"
#include "sparsify/method.h"

namespace fedsparse::fl {
namespace {

// 32 clients so that a buffered-async flush of M = 25 defers real uploads on
// the full-participation scenarios. MLP 64-64-4 (D = 4420) sits above the
// top-k prefilter gate, so hinted scans and chunk pruning both run.
constexpr std::size_t kClients = 32;
constexpr std::size_t kRounds = 12;
constexpr std::size_t kAsyncBuffer = 25;

const char* const kScenarios[] = {"uniform", "churn_heavy", "faulty_wan", "byzantine_mix"};

struct GoldenCase {
  const char* file;  // tests/golden/<file>.txt
  const char* method;
  bool async = false;
  bool adaptive = false;
  // Fixed sparsity degree. FedAvg averages every ⌊D/(2k)⌋ rounds, so its
  // case uses a larger k to aggregate within the run.
  double k = 40.0;
  // Fraction of the online clients sampled each round.
  double participation = 1.0;
};

// Names the test case after its golden file; the default byte dump would
// embed string addresses, which change from run to run under ASLR.
void PrintTo(const GoldenCase& g, std::ostream* os) { *os << g.file; }

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << v;
  return os.str();
}

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ULL;
  }
  return h;
}

data::SyntheticConfig golden_dataset() {
  data::SyntheticConfig cfg;
  cfg.num_classes = 4;
  cfg.channels = 1;
  cfg.height = 8;
  cfg.width = 8;
  cfg.num_clients = kClients;
  cfg.samples_per_client = 24;
  cfg.samples_spread = 0.3;
  cfg.test_samples = 64;
  cfg.class_sep = 2.0;
  cfg.noise_std = 0.6;
  cfg.partition = data::PartitionKind::kByWriter;
  cfg.classes_per_writer = 2;
  cfg.seed = 5;
  return cfg;
}

/// One scenario's section of a golden file: flush digests, then the final
/// weights digest and time bits — or the constructor's rejection message.
std::string run_section(const GoldenCase& g, const std::string& scenario, std::size_t threads) {
  SimulationConfig cfg;
  cfg.lr = 0.05f;
  cfg.batch = 8;
  cfg.max_rounds = kRounds;
  cfg.comm_time = 5.0;
  cfg.eval_every = 4;
  cfg.eval_samples_per_client = 0;
  cfg.eval_test_samples = 0;
  cfg.threads = threads;
  cfg.seed = 11;
  cfg.participation = g.participation;
  apply_scenario(make_scenario(scenario, kClients, 3), cfg);
  if (g.async) {
    cfg.aggregation = AggregationMode::kBufferedAsync;
    cfg.async.buffer_size = kAsyncBuffer;
  }

  auto factory = nn::mlp(64, {64}, 4);
  util::Rng probe(1);
  const std::size_t dim = factory(probe)->dim();
  std::unique_ptr<online::KController> controller;
  if (g.adaptive) {
    controller = std::make_unique<online::ExtendedSignOgd>(online::ExtendedSignOgd::Config{
        0.002 * static_cast<double>(dim), static_cast<double>(dim), 0.0, 1.5, 4});
  } else {
    controller = std::make_unique<online::FixedK>(g.k);
  }

  std::ostringstream os;
  os << "scenario " << scenario << "\n";
  std::unique_ptr<Simulation> sim;
  try {
    sim = std::make_unique<Simulation>(cfg, data::make_synthetic(golden_dataset()), factory,
                                       sparsify::make_method(g.method, dim, 5),
                                       std::move(controller));
  } catch (const std::exception& e) {
    os << "rejected " << e.what() << "\n";
    return os.str();
  }
  RoundRecorder recorder(dim, kClients, g.method, cfg.seed, cfg.faults, cfg.validation,
                         cfg.robust);
  sim->set_recorder(&recorder);
  const SimulationResult res = sim->run();

  for (const ReplayRound& r : recorder.log().rounds) {
    os << "flush " << r.round << " k " << r.k << " n " << r.client_ids.size() << " "
       << hex(r.digest) << "\n";
  }
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (std::size_t i = 0; i < sim->num_clients(); ++i) {
    const auto w = sim->client_weights(i);
    h = fnv1a(h, w.data(), w.size() * sizeof(float));
  }
  os << "weights " << hex(h) << "\n";
  os << "time " << hex(std::bit_cast<std::uint64_t>(res.total_time)) << "\n";
  return os.str();
}

std::string run_case(const GoldenCase& g, std::size_t threads) {
  std::ostringstream head;
  head << "# " << g.method << (g.async ? " buffered-async M=25" : " sync");
  if (g.adaptive) {
    head << " extended_sign_ogd";
  } else {
    head << " fixed k=" << static_cast<long>(g.k);
  }
  if (g.participation < 1.0) head << " participation=" << g.participation;
  std::string out = head.str() + "\n";
  for (const char* scenario : kScenarios) out += run_section(g, scenario, threads);
  return out;
}

std::filesystem::path golden_path(const GoldenCase& g) {
  return std::filesystem::path(__FILE__).parent_path() / "golden" / (std::string(g.file) + ".txt");
}

class GoldenDigests : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenDigests, MatchCommittedFileAtThreads1And2) {
  const GoldenCase& g = GetParam();
  const auto path = golden_path(g);
  const std::string t1 = run_case(g, 1);
  if (std::getenv("FEDSPARSE_GOLDEN_UPDATE") != nullptr) {
    std::ofstream(path) << t1;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path;
  std::stringstream want;
  want << in.rdbuf();
  EXPECT_EQ(t1, want.str()) << g.file << " at threads=1";
  EXPECT_EQ(run_case(g, 2), want.str()) << g.file << " at threads=2";
}

INSTANTIATE_TEST_SUITE_P(
    golden, GoldenDigests,
    ::testing::Values(GoldenCase{"fab_topk_sync", "fab_topk"},
                      GoldenCase{"fub_topk_sync", "fub_topk"},
                      GoldenCase{"unidirectional_topk_sync", "unidirectional_topk"},
                      GoldenCase{"periodic_sync", "periodic"},
                      GoldenCase{"send_all_sync", "send_all"},
                      GoldenCase{"fab_topk_partial", "fab_topk", false, false, 40.0, 0.4},
                      GoldenCase{"fedavg_sync", "fedavg", false, false, 600.0},
                      GoldenCase{"fab_topk_async", "fab_topk", true},
                      GoldenCase{"fub_topk_async", "fub_topk", true},
                      GoldenCase{"unidirectional_topk_async", "unidirectional_topk", true},
                      GoldenCase{"fab_topk_adaptive", "fab_topk", false, true},
                      GoldenCase{"fab_topk_adaptive_async", "fab_topk", true, true}));

}  // namespace
}  // namespace fedsparse::fl
