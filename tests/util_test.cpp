// Unit tests for the util substrate: RNG, stats, CSV, thread pool, flags.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <stdexcept>
#include <string>

#include "util/csv.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace fedsparse::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, SplitStreamsAreIndependentAndDeterministic) {
  Rng parent(7);
  Rng c1 = parent.split(1);
  Rng c2 = parent.split(2);
  Rng c1_again = parent.split(1);
  EXPECT_EQ(c1.next_u64(), c1_again.next_u64());
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (c1.next_u64() == c2.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformU64RespectsBound) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.uniform_u64(17), 17u);
  }
  EXPECT_EQ(rng.uniform_u64(0), 0u);
  EXPECT_EQ(rng.uniform_u64(1), 0u);
}

TEST(Rng, UniformU64IsRoughlyUniform) {
  Rng rng(5);
  std::vector<int> counts(10, 0);
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) ++counts[rng.uniform_u64(10)];
  for (int c : counts) {
    EXPECT_NEAR(c, trials / 10, trials / 10 * 0.15);
  }
}

TEST(Rng, UniformIntInclusiveRange) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(Rng, UniformDoubleInHalfOpenUnit) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, NormalHasExpectedMoments) {
  Rng rng(13);
  RunningStat stat;
  for (int i = 0; i < 200000; ++i) stat.add(rng.normal());
  EXPECT_NEAR(stat.mean(), 0.0, 0.02);
  EXPECT_NEAR(stat.variance(), 1.0, 0.03);
}

TEST(Rng, NormalScaled) {
  Rng rng(17);
  RunningStat stat;
  for (int i = 0; i < 100000; ++i) stat.add(rng.normal(5.0, 2.0));
  EXPECT_NEAR(stat.mean(), 5.0, 0.05);
  EXPECT_NEAR(stat.stddev(), 2.0, 0.05);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(19);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, CategoricalFollowsWeights) {
  Rng rng(23);
  std::vector<double> w{1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 40000; ++i) ++counts[rng.categorical(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.25);
}

TEST(Rng, BernoulliProbability) {
  Rng rng(29);
  int heads = 0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) heads += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(heads) / trials, 0.3, 0.01);
}

TEST(RunningStat, BasicMoments) {
  RunningStat s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStat, MergeMatchesSequential) {
  RunningStat a, b, all;
  Rng rng(31);
  for (int i = 0; i < 500; ++i) {
    const double v = rng.normal(3.0, 1.5);
    (i % 2 ? a : b).add(v);
    all.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(RunningStat, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(EmpiricalCdf, StepFunction) {
  EmpiricalCdf cdf({1.0, 2.0, 2.0, 4.0});
  EXPECT_DOUBLE_EQ(cdf.at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.at(1.0), 0.25);
  EXPECT_DOUBLE_EQ(cdf.at(2.0), 0.75);
  EXPECT_DOUBLE_EQ(cdf.at(3.9), 0.75);
  EXPECT_DOUBLE_EQ(cdf.at(4.0), 1.0);
}

TEST(EmpiricalCdf, Quantile) {
  EmpiricalCdf cdf({10.0, 20.0, 30.0, 40.0});
  EXPECT_DOUBLE_EQ(cdf.quantile(0.25), 10.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 20.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 40.0);
}

TEST(EmpiricalCdf, StepsDeduplicate) {
  EmpiricalCdf cdf({1.0, 1.0, 2.0});
  const auto steps = cdf.steps();
  ASSERT_EQ(steps.size(), 2u);
  EXPECT_DOUBLE_EQ(steps[0].first, 1.0);
  EXPECT_NEAR(steps[0].second, 2.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(steps[1].second, 1.0);
}

TEST(Percentile, InterpolatesLinearly) {
  std::vector<double> v{0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 10.0);
}

TEST(Csv, FormatsRoundTrip) {
  EXPECT_EQ(CsvWriter::format(1.0), "1");
  EXPECT_EQ(CsvWriter::format(0.5), "0.5");
  const double v = 0.1234567891;
  EXPECT_NEAR(std::stod(CsvWriter::format(v)), v, 1e-10);
}

TEST(Csv, WritesFile) {
  const std::string path = "/tmp/fedsparse_csv_test/out.csv";
  {
    CsvWriter w(path, /*echo_stdout=*/false);
    w.header({"a", "b"});
    w.row({1.0, 2.5});
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2.5");
  std::filesystem::remove_all("/tmp/fedsparse_csv_test");
}

TEST(Csv, QuoteEscapesPerRfc4180) {
  // Plain cells pass through verbatim.
  EXPECT_EQ(CsvWriter::quote("plain"), "plain");
  EXPECT_EQ(CsvWriter::quote(""), "");
  EXPECT_EQ(CsvWriter::quote("spaces are fine"), "spaces are fine");
  // Commas, quotes, CR and LF force quoting; embedded quotes are doubled.
  EXPECT_EQ(CsvWriter::quote("fab,topk"), "\"fab,topk\"");
  EXPECT_EQ(CsvWriter::quote("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvWriter::quote("line\nbreak"), "\"line\nbreak\"");
  EXPECT_EQ(CsvWriter::quote("cr\rcell"), "\"cr\rcell\"");
  EXPECT_EQ(CsvWriter::quote("\""), "\"\"\"\"");
}

TEST(Csv, RowTextQuotesCellsWithCommas) {
  // A method name containing a comma must not corrupt the column structure.
  const std::string path = "/tmp/fedsparse_csv_quote_test/out.csv";
  {
    CsvWriter w(path, /*echo_stdout=*/false);
    w.header({"method", "note"});
    w.row_text({"topk,adaptive", "said \"go\""});
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "method,note");
  std::getline(in, line);
  EXPECT_EQ(line, "\"topk,adaptive\",\"said \"\"go\"\"\"");
  std::filesystem::remove_all("/tmp/fedsparse_csv_quote_test");
}

TEST(ThreadPool, RunsAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(100, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, PropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(10,
                        [&](std::size_t i) {
                          if (i == 5) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}

TEST(ThreadPool, ReusableAcrossCalls) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  for (int round = 0; round < 20; ++round) {
    pool.parallel_for(50, [&](std::size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 1000);
}

TEST(ThreadPool, ExplicitGrainCoversEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t i) { hits[i].fetch_add(1); }, /*grain=*/7);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, AutoGrainCoversLargeRange) {
  ThreadPool pool(4);
  const std::size_t n = 100000;
  std::vector<unsigned char> hits(n, 0);
  // Chunks are disjoint, so each index is written by exactly one thread and
  // plain bytes are race-free.
  pool.parallel_for(n, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i], 1) << i;
}

TEST(ThreadPool, RangesPartitionExactly) {
  ThreadPool pool(3);
  const std::size_t n = 10000;
  std::vector<unsigned char> hits(n, 0);
  std::atomic<int> chunks{0};
  pool.parallel_for_ranges(
      n,
      [&](std::size_t begin, std::size_t end) {
        EXPECT_LT(begin, end);
        EXPECT_LE(end, n);
        for (std::size_t i = begin; i < end; ++i) ++hits[i];
        chunks.fetch_add(1);
      },
      /*grain=*/97);
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i], 1) << i;
  EXPECT_EQ(chunks.load(), static_cast<int>((n + 96) / 97));
}

TEST(ThreadPool, RangesPropagateExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for_ranges(
                   1000,
                   [&](std::size_t begin, std::size_t) {
                     if (begin >= 500) throw std::runtime_error("boom");
                   },
                   /*grain=*/100),
               std::runtime_error);
}

TEST(ThreadPool, ZeroAndOneElement) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.parallel_for(0, [&](std::size_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 0);
  pool.parallel_for(1, [&](std::size_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 1);
}

TEST(Flags, ParsesEqualsAndSpaceForms) {
  const char* argv[] = {"prog", "--alpha=1.5", "--rounds", "100", "--verbose"};
  Flags flags(5, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(flags.get_double("alpha", 0.0), 1.5);
  EXPECT_EQ(flags.get_int("rounds", 0), 100);
  EXPECT_TRUE(flags.get_bool("verbose", false));
  EXPECT_EQ(flags.get_string("missing", "dflt"), "dflt");
  EXPECT_NO_THROW(flags.check_unknown());
}

TEST(Flags, RejectsUnknownAndMalformed) {
  const char* argv[] = {"prog", "--typo=1"};
  Flags flags(2, const_cast<char**>(argv));
  flags.get_int("rounds", 5);
  EXPECT_THROW(flags.check_unknown(), std::invalid_argument);

  const char* argv2[] = {"prog", "positional"};
  EXPECT_THROW(Flags(2, const_cast<char**>(argv2)), std::invalid_argument);

  const char* argv3[] = {"prog", "--x=abc"};
  Flags flags3(2, const_cast<char**>(argv3));
  EXPECT_THROW(flags3.get_double("x", 0.0), std::invalid_argument);

  // Trailing characters: a number prefix is not a number.
  const char* argv4[] = {"prog", "--rounds=12abc", "--lr=0.1x"};
  Flags flags4(3, const_cast<char**>(argv4));
  EXPECT_THROW(flags4.get_int("rounds", 5), std::invalid_argument);
  EXPECT_THROW(flags4.get_double("lr", 0.05), std::invalid_argument);
  EXPECT_DOUBLE_EQ(flags4.get_double("missing", 0.05), 0.05);  // defaults still parse
}

TEST(Flags, HelpPrintsUsageAndExitsZero) {
  const char* argv[] = {"prog", "--help"};
  Flags flags(2, const_cast<char**>(argv));
  EXPECT_EQ(flags.get_int("rounds", 5, "training rounds"), 5);
  const std::string usage = flags.usage();
  EXPECT_NE(usage.find("usage: prog"), std::string::npos) << usage;
  EXPECT_NE(usage.find("--rounds (default: 5  # training rounds)"), std::string::npos) << usage;
  EXPECT_EXIT(flags.check_unknown(), ::testing::ExitedWithCode(0), "");
}

TEST(Splitmix, IsDeterministicAndMixes) {
  std::uint64_t s1 = 123, s2 = 123;
  EXPECT_EQ(splitmix64(s1), splitmix64(s2));
  std::uint64_t a = 0, b = 1;
  EXPECT_NE(splitmix64(a), splitmix64(b));
}

}  // namespace
}  // namespace fedsparse::util
