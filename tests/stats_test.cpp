// Telemetry subsystem tests: MetricRegistry merge determinism across thread
// counts, histogram bucket placement, off-mode zero-allocation, span sink
// behavior, fl/metrics.cpp edge cases, and the two end-to-end contracts from
// the telemetry PR — an enabled run is byte-identical to a disabled run (the
// instrumentation may read clocks and bump integers but never perturb the
// simulation), and the emitted Chrome trace carries one complete span per
// pipeline stage per round.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "data/synthetic.h"
#include "fl/metrics.h"
#include "fl/simulation.h"
#include "nn/models.h"
#include "online/controller.h"
#include "sparsify/method.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace fedsparse {
namespace {

// Saves and restores the process-wide telemetry flag so tests in this binary
// (which share one registry and one flag) cannot leak state into each other.
class TelemetryGuard {
 public:
  TelemetryGuard() : prev_(util::telemetry_enabled()) {}
  ~TelemetryGuard() {
    util::set_telemetry_enabled(prev_);
    util::SpanSink::instance().discard();
  }

 private:
  bool prev_;
};

// ------------------------------------------------------------- registry ---

TEST(MetricRegistry, CounterPublishesOnlyWhileEnabled) {
  TelemetryGuard guard;
  util::MetricRegistry& reg = util::MetricRegistry::instance();
  const util::Counter c("test.stats.counter_basics");

  util::set_telemetry_enabled(false);
  c.add(5);  // disabled publish must be dropped
  util::set_telemetry_enabled(true);
  c.add(2);
  c.add();

  double value = -1.0;
  for (const util::MetricSample& s : reg.scrape()) {
    if (s.name == "test.stats.counter_basics") value = s.value;
  }
  EXPECT_EQ(value, 3.0);

  reg.reset();
  for (const util::MetricSample& s : reg.scrape()) {
    if (s.name == "test.stats.counter_basics") EXPECT_EQ(s.value, 0.0);
  }
}

TEST(MetricRegistry, KindMismatchThrows) {
  util::MetricRegistry& reg = util::MetricRegistry::instance();
  reg.counter("test.stats.kind_clash");
  EXPECT_THROW(reg.gauge("test.stats.kind_clash"), std::logic_error);
  EXPECT_THROW(reg.histogram("test.stats.kind_clash", {1.0}), std::logic_error);
  // Same name + same kind is idempotent and returns the same id.
  EXPECT_EQ(reg.counter("test.stats.kind_clash"), reg.counter("test.stats.kind_clash"));
}

TEST(MetricRegistry, HistogramBucketBoundariesAreInclusiveUpper) {
  TelemetryGuard guard;
  util::set_telemetry_enabled(true);
  util::MetricRegistry& reg = util::MetricRegistry::instance();
  reg.reset();
  const util::Histogram h("test.stats.hist_bounds", {1.0, 2.0, 4.0});

  // le-semantics: bucket b counts v <= bounds[b]; past the last bound goes to
  // the overflow bucket.
  h.observe(0.5);
  h.observe(1.0);     // exactly on a bound stays in that bucket
  h.observe(1.5);
  h.observe(2.0);
  h.observe(2.0001);  // just past a bound spills to the next
  h.observe(4.0);
  h.observe(100.0);   // overflow

  for (const util::MetricSample& s : reg.scrape()) {
    if (s.name != "test.stats.hist_bounds") continue;
    ASSERT_EQ(s.bounds.size(), 3u);
    ASSERT_EQ(s.buckets.size(), 4u);
    EXPECT_EQ(s.buckets[0], 2u);
    EXPECT_EQ(s.buckets[1], 2u);
    EXPECT_EQ(s.buckets[2], 2u);
    EXPECT_EQ(s.buckets[3], 1u);
    EXPECT_EQ(s.value, 7.0);  // histogram sample value is the total count
    return;
  }
  FAIL() << "histogram never scraped";
}

// The same publish workload run on 1, 2, and 8 pool threads must scrape to
// identical totals: counters and histogram buckets are integer sums over
// shards, so the merge cannot depend on which thread published what.
TEST(MetricRegistry, ShardMergeIsDeterministicAcrossThreadCounts) {
  TelemetryGuard guard;
  util::set_telemetry_enabled(true);
  util::MetricRegistry& reg = util::MetricRegistry::instance();
  const util::Counter c("test.stats.merge_counter");
  const util::Histogram h("test.stats.merge_hist", {2.0, 5.0, 8.0});
  constexpr std::size_t kItems = 4096;

  struct Snapshot {
    double counter = -1.0;
    std::vector<std::uint64_t> buckets;
  };
  std::vector<Snapshot> runs;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    reg.reset();
    util::ThreadPool pool(threads);
    pool.parallel_for(
        kItems,
        [&](std::size_t i) {
          c.add(i % 3 + 1);
          h.observe(static_cast<double>(i % 10));
        },
        /*grain=*/1);
    Snapshot snap;
    for (const util::MetricSample& s : reg.scrape()) {
      if (s.name == "test.stats.merge_counter") snap.counter = s.value;
      if (s.name == "test.stats.merge_hist") snap.buckets = s.buckets;
    }
    runs.push_back(std::move(snap));
  }

  // Absolute totals: sum over i of (i % 3 + 1), and i % 10 bucketed by
  // {<=2, <=5, <=8, overflow} -> {3, 3, 3, 1} of every 10.
  const double expected_count = static_cast<double>(kItems / 3 * 6 + (kItems % 3 >= 1 ? 1 : 0) +
                                                    (kItems % 3 >= 2 ? 2 : 0));
  for (const Snapshot& snap : runs) {
    EXPECT_EQ(snap.counter, expected_count);
    ASSERT_EQ(snap.buckets.size(), 4u);
    EXPECT_EQ(snap.buckets, runs.front().buckets);
  }
  EXPECT_EQ(runs[0].counter, runs[1].counter);
  EXPECT_EQ(runs[1].counter, runs[2].counter);
}

TEST(MetricRegistry, DisabledPublishesAllocateNoShard) {
  TelemetryGuard guard;
  util::set_telemetry_enabled(false);
  util::MetricRegistry& reg = util::MetricRegistry::instance();
  const util::Counter c("test.stats.offmode_counter");
  const util::Histogram h("test.stats.offmode_hist", {1.0});
  const std::size_t before = reg.shard_count();

  // Publishes from a thread that has never touched the registry: with
  // telemetry off they must early-return before materializing a shard.
  std::thread t([&] {
    for (int i = 0; i < 100; ++i) {
      c.add();
      h.observe(0.5);
    }
  });
  t.join();
  EXPECT_EQ(reg.shard_count(), before);
}

// ----------------------------------------------------------------- spans ---

TEST(SpanSink, DisabledScopesRecordNothing) {
  TelemetryGuard guard;
  util::set_telemetry_enabled(false);
  util::SpanSink::instance().discard();
  {
    FEDSPARSE_SPAN("test_disabled_span");
  }
  std::vector<util::Span> out;
  EXPECT_EQ(util::SpanSink::instance().drain(out), 0u);
}

TEST(SpanSink, DrainSortsByStartThenTrack) {
  TelemetryGuard guard;
  util::set_telemetry_enabled(true);
  util::SpanSink& sink = util::SpanSink::instance();
  sink.discard();
  // Recorded deliberately out of order; drain must return (start, track) order.
  sink.record("zeta", 30.0, 1.0);
  sink.record("alpha", 10.0, 2.0);
  sink.record("beta", 10.0, 3.0);
  std::vector<util::Span> out;
  ASSERT_EQ(sink.drain(out), 3u);
  EXPECT_STREQ(out[0].track, "alpha");
  EXPECT_STREQ(out[1].track, "beta");
  EXPECT_STREQ(out[2].track, "zeta");
  EXPECT_EQ(out[0].start_us, 10.0);
  EXPECT_EQ(out[2].start_us, 30.0);

  // A live scope records on destruction with a non-negative duration.
  {
    FEDSPARSE_SPAN("test_live_span");
  }
  out.clear();
  ASSERT_EQ(sink.drain(out), 1u);
  EXPECT_STREQ(out[0].track, "test_live_span");
  EXPECT_GE(out[0].dur_us, 0.0);
}

// --------------------------------------------------------- fl/metrics.cpp ---

TEST(FlMetrics, ContributionPerRoundZeroRoundsYieldsZeros) {
  const std::vector<std::size_t> totals = {40, 0, 12};
  const std::vector<double> out = fl::contribution_per_round(totals, 0);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], 0.0);
  EXPECT_EQ(out[1], 0.0);
  EXPECT_EQ(out[2], 0.0);
}

TEST(FlMetrics, ContributionPerRoundEmptyTotalsYieldsEmpty) {
  EXPECT_TRUE(fl::contribution_per_round({}, 10).empty());
  EXPECT_TRUE(fl::contribution_per_round({}, 0).empty());
}

TEST(FlMetrics, ClientTrafficRowsRejectsMismatchedSpans) {
  const std::vector<double> up = {1.0, 2.0};
  const std::vector<double> down = {1.0, 2.0, 3.0};
  const std::vector<std::size_t> rounds = {4, 5};
  EXPECT_THROW(fl::client_traffic_rows(up, down, rounds), std::invalid_argument);
  EXPECT_THROW(fl::client_traffic_rows(up, up, {4}), std::invalid_argument);
  const auto rows = fl::client_traffic_rows(up, up, rounds);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1].client, 1u);
  EXPECT_EQ(rows[1].uplink_bytes, 8.0);  // 2 values x 4 bytes
}

// ------------------------------------------- end-to-end telemetry contracts ---

data::SyntheticConfig tele_dataset() {
  data::SyntheticConfig cfg;
  cfg.num_classes = 4;
  cfg.channels = 1;
  cfg.height = 4;
  cfg.width = 4;
  cfg.num_clients = 10;
  cfg.samples_per_client = 24;
  cfg.samples_spread = 0.3;
  cfg.test_samples = 64;
  cfg.class_sep = 2.5;
  cfg.noise_std = 0.6;
  cfg.partition = data::PartitionKind::kByWriter;
  cfg.classes_per_writer = 2;
  cfg.seed = 3;
  return cfg;
}

fl::SimulationResult run_sim(const std::string& method, std::size_t threads,
                             const fl::TelemetryConfig& telemetry) {
  fl::SimulationConfig cfg;
  cfg.lr = 0.05f;
  cfg.batch = 8;
  cfg.max_rounds = 20;
  cfg.comm_time = 5.0;
  cfg.eval_every = 10;
  cfg.eval_samples_per_client = 0;
  cfg.eval_test_samples = 0;
  cfg.threads = threads;
  cfg.seed = 7;
  cfg.telemetry = telemetry;
  auto factory = nn::mlp(16, {12}, 4);
  util::Rng probe(1);
  const std::size_t dim = factory(probe)->dim();
  fl::Simulation sim(cfg, data::make_synthetic(tele_dataset()), factory,
                     sparsify::make_method(method, dim, 5),
                     std::make_unique<online::FixedK>(20.0));
  return sim.run();
}

void expect_identical(const fl::SimulationResult& a, const fl::SimulationResult& b,
                      const std::string& label) {
  ASSERT_EQ(a.records.size(), b.records.size()) << label;
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    const fl::RoundRecord& ra = a.records[i];
    const fl::RoundRecord& rb = b.records[i];
    EXPECT_EQ(ra.time, rb.time) << label << " round " << ra.round;
    EXPECT_EQ(ra.k_continuous, rb.k_continuous) << label << " round " << ra.round;
    EXPECT_EQ(ra.k_used, rb.k_used) << label << " round " << ra.round;
    EXPECT_EQ(ra.train_loss, rb.train_loss) << label << " round " << ra.round;
    EXPECT_EQ(ra.uplink_values, rb.uplink_values) << label << " round " << ra.round;
    EXPECT_EQ(ra.downlink_values, rb.downlink_values) << label << " round " << ra.round;
  }
  EXPECT_EQ(a.k_sequence, b.k_sequence) << label;
  EXPECT_EQ(a.contributed_totals, b.contributed_totals) << label;
  EXPECT_EQ(a.rounds_run, b.rounds_run) << label;
  EXPECT_EQ(a.total_time, b.total_time) << label;
  EXPECT_EQ(a.final_loss, b.final_loss) << label;
}

// The telemetry acceptance contract: enabling spans + counters + trace export
// must not move a single bit of the simulation — instrumentation reads clocks
// and bumps integers, it never touches RNG draws or float order.
class TelemetryByteIdentity : public ::testing::TestWithParam<const char*> {};

TEST_P(TelemetryByteIdentity, OnEqualsOffAtThreads128) {
  const std::string method = GetParam();
  for (const std::size_t threads : {1u, 2u, 8u}) {
    TelemetryGuard guard;
    const std::string tag =
        ::testing::TempDir() + "stats_ident_" + method + "_" + std::to_string(threads);
    fl::TelemetryConfig on;
    on.enabled = true;
    on.chrome_trace_path = tag + ".trace.json";
    on.metrics_jsonl_path = tag + ".metrics.jsonl";
    const auto off_run = run_sim(method, threads, fl::TelemetryConfig{});
    const auto on_run = run_sim(method, threads, on);
    expect_identical(off_run, on_run, method + "@t" + std::to_string(threads));
    std::remove(on.chrome_trace_path.c_str());
    std::remove(on.metrics_jsonl_path.c_str());
  }
}

INSTANTIATE_TEST_SUITE_P(TopKMethods, TelemetryByteIdentity,
                         ::testing::Values("fab_topk", "fub_topk", "unidirectional_topk"));

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::size_t count_occurrences(const std::string& hay, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = hay.find(needle); pos != std::string::npos;
       pos = hay.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

TEST(TelemetryExport, ChromeTraceHasOneSpanPerStagePerRound) {
  TelemetryGuard guard;
  const std::string tag = ::testing::TempDir() + "stats_export";
  fl::TelemetryConfig on;
  on.enabled = true;
  on.chrome_trace_path = tag + ".trace.json";
  on.metrics_jsonl_path = tag + ".metrics.jsonl";
  const auto res = run_sim("fab_topk", 2, on);
  ASSERT_GT(res.rounds_run, 0u);

  const std::string trace = slurp(on.chrome_trace_path);
  ASSERT_FALSE(trace.empty());
  EXPECT_EQ(trace.rfind("{\"traceEvents\":[", 0), 0u) << "trace preamble";
  ASSERT_GE(trace.size(), 4u);
  EXPECT_EQ(trace.substr(trace.size() - 4), "\n]}\n") << "trace postamble";

  // One complete ("X") span per pipeline stage per round — the acceptance
  // criterion for the round trace.
  for (const char* stage :
       {"stage_begin", "stage_schedule", "stage_compute", "stage_server_round", "stage_probe",
        "stage_apply", "stage_account", "stage_record"}) {
    const std::string needle = std::string("\"name\":\"") + stage + "\",\"cat\":\"round\",\"ph\":\"X\"";
    EXPECT_EQ(count_occurrences(trace, needle), res.rounds_run) << stage;
  }
  // The shared pipeline stages appear too (fab_topk routes through them), and
  // so do FAB's own κ walk and fill.
  for (const char* stage : {"pipeline_aggregate", "pipeline_kappa", "pipeline_fill"}) {
    const std::string needle = std::string("\"name\":\"") + stage + "\"";
    EXPECT_GE(count_occurrences(trace, needle), res.rounds_run) << stage;
  }

  const std::string jsonl = slurp(on.metrics_jsonl_path);
  ASSERT_FALSE(jsonl.empty());
  EXPECT_EQ(count_occurrences(jsonl, "\n"), res.rounds_run);
  EXPECT_EQ(count_occurrences(jsonl, "{\"round\":"), res.rounds_run);
  EXPECT_GE(count_occurrences(jsonl, "\"uplink_bytes\":"), res.rounds_run);

  std::remove(on.chrome_trace_path.c_str());
  std::remove(on.metrics_jsonl_path.c_str());
}

}  // namespace
}  // namespace fedsparse
