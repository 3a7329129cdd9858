// Tests for the data substrate: partitioners (non-i.i.d. structure), the
// synthetic federated generators, and minibatch sampling.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>
#include <stdexcept>

#include "data/dataset.h"
#include "data/minibatch.h"
#include "data/partition.h"
#include "data/synthetic.h"

namespace fedsparse::data {
namespace {

std::vector<int> balanced_labels(std::size_t classes, std::size_t per_class) {
  std::vector<int> labels;
  for (std::size_t c = 0; c < classes; ++c) {
    for (std::size_t i = 0; i < per_class; ++i) labels.push_back(static_cast<int>(c));
  }
  return labels;
}

TEST(Gamma, PositiveAndMeanMatchesShape) {
  util::Rng rng(1);
  for (double shape : {0.3, 1.0, 2.5, 10.0}) {
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
      const double g = sample_gamma(shape, rng);
      ASSERT_GT(g, 0.0);
      sum += g;
    }
    EXPECT_NEAR(sum / n, shape, shape * 0.1);  // E[Gamma(a,1)] = a
  }
  EXPECT_THROW(sample_gamma(0.0, rng), std::invalid_argument);
}

TEST(Dirichlet, SumsToOneAndAlphaControlsSkew) {
  util::Rng rng(2);
  auto skew = [&](double alpha) {
    double max_total = 0.0;
    for (int i = 0; i < 200; ++i) {
      const auto p = sample_dirichlet(10, alpha, rng);
      double total = 0.0, mx = 0.0;
      for (double v : p) {
        total += v;
        mx = std::max(mx, v);
      }
      EXPECT_NEAR(total, 1.0, 1e-9);
      max_total += mx;
    }
    return max_total / 200.0;
  };
  EXPECT_GT(skew(0.1), skew(10.0));  // smaller alpha => more concentrated
}

TEST(Partition, OneClassPerClientIsPure) {
  const auto labels = balanced_labels(10, 50);
  util::Rng rng(3);
  const std::vector<std::size_t> sizes(20, 30);
  const auto owned =
      partition_indices(labels, 10, sizes, PartitionKind::kOneClassPerClient, rng);
  ASSERT_EQ(owned.size(), 20u);
  for (std::size_t c = 0; c < owned.size(); ++c) {
    ASSERT_EQ(owned[c].size(), 30u);
    for (const auto idx : owned[c]) {
      EXPECT_EQ(labels[idx], static_cast<int>(c % 10));
    }
  }
}

TEST(Partition, ByWriterLimitsClassesPerClient) {
  const auto labels = balanced_labels(20, 40);
  util::Rng rng(4);
  const std::vector<std::size_t> sizes(8, 100);
  const auto owned = partition_indices(labels, 20, sizes, PartitionKind::kByWriter, rng,
                                       /*classes_per_writer=*/5);
  for (const auto& client : owned) {
    std::set<int> classes;
    for (const auto idx : client) classes.insert(labels[idx]);
    EXPECT_LE(classes.size(), 5u);
    EXPECT_GE(classes.size(), 1u);
  }
}

TEST(Partition, IidCoversManyClasses) {
  const auto labels = balanced_labels(10, 100);
  util::Rng rng(5);
  const std::vector<std::size_t> sizes(4, 200);
  const auto owned = partition_indices(labels, 10, sizes, PartitionKind::kIid, rng);
  for (const auto& client : owned) {
    std::set<int> classes;
    for (const auto idx : client) classes.insert(labels[idx]);
    EXPECT_GE(classes.size(), 8u);  // nearly all classes present
  }
}

TEST(Partition, DirichletRespectsSizesAndValidates) {
  const auto labels = balanced_labels(6, 30);
  util::Rng rng(6);
  const std::vector<std::size_t> sizes{10, 20, 0, 5};
  const auto owned =
      partition_indices(labels, 6, sizes, PartitionKind::kDirichlet, rng, 5, 0.5);
  ASSERT_EQ(owned.size(), 4u);
  EXPECT_EQ(owned[0].size(), 10u);
  EXPECT_EQ(owned[2].size(), 0u);
  EXPECT_THROW(partition_indices(labels, 0, sizes, PartitionKind::kIid, rng),
               std::invalid_argument);
  const std::vector<int> bad_labels{0, 99};
  EXPECT_THROW(partition_indices(bad_labels, 6, sizes, PartitionKind::kIid, rng),
               std::invalid_argument);
}

TEST(Synthetic, FemnistLikeShapesMatchPaperSetting) {
  const auto cfg = femnist_like(1.0, 7);
  EXPECT_EQ(cfg.num_classes, 62u);
  EXPECT_EQ(cfg.num_clients, 156u);
  EXPECT_EQ(cfg.feature_dim(), 784u);
  EXPECT_EQ(cfg.partition, PartitionKind::kByWriter);
  EXPECT_THROW(femnist_like(0.0), std::invalid_argument);
  EXPECT_THROW(femnist_like(2.0), std::invalid_argument);
}

TEST(Synthetic, CifarLikeIsOneClassPerClient) {
  auto cfg = cifar_like(0.1, 7);
  cfg.samples_per_client = 12;
  cfg.test_samples = 64;
  const auto fed = make_synthetic(cfg);
  EXPECT_EQ(fed.num_clients(), cfg.num_clients);
  for (const auto& client : fed.clients) {
    std::set<int> classes(client.y.begin(), client.y.end());
    EXPECT_EQ(classes.size(), 1u);  // the paper's strong non-i.i.d. setting
  }
}

TEST(Synthetic, GeneratesRequestedGeometry) {
  SyntheticConfig cfg;
  cfg.num_classes = 5;
  cfg.channels = 2;
  cfg.height = 4;
  cfg.width = 3;
  cfg.num_clients = 6;
  cfg.samples_per_client = 20;
  cfg.samples_spread = 0.0;
  cfg.test_samples = 50;
  cfg.seed = 11;
  const auto fed = make_synthetic(cfg);
  ASSERT_EQ(fed.clients.size(), 6u);
  for (const auto& c : fed.clients) {
    EXPECT_EQ(c.feature_dim(), 24u);
    EXPECT_EQ(c.x.cols(), 24u);
    EXPECT_EQ(c.size(), 20u);
    EXPECT_EQ(c.num_classes, 5u);
  }
  EXPECT_EQ(fed.test.size(), 50u);
}

TEST(Synthetic, DataWeightsSumToOne) {
  auto cfg = femnist_like(0.05, 3);
  const auto fed = make_synthetic(cfg);
  const auto w = fed.data_weights();
  double total = 0.0;
  for (double v : w) total += v;
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_EQ(fed.total_samples(), [&] {
    std::size_t t = 0;
    for (const auto& c : fed.clients) t += c.size();
    return t;
  }());
}

TEST(Synthetic, DeterministicForSeed) {
  auto cfg = femnist_like(0.03, 21);
  const auto a = make_synthetic(cfg);
  const auto b = make_synthetic(cfg);
  ASSERT_EQ(a.clients.size(), b.clients.size());
  EXPECT_EQ(a.clients[0].y, b.clients[0].y);
  for (std::size_t i = 0; i < a.clients[0].x.size(); ++i) {
    EXPECT_FLOAT_EQ(a.clients[0].x.data()[i], b.clients[0].x.data()[i]);
  }
}

TEST(Synthetic, DifferentSeedsDiffer) {
  const auto a = make_synthetic(femnist_like(0.03, 1));
  const auto b = make_synthetic(femnist_like(0.03, 2));
  bool any_diff = false;
  for (std::size_t i = 0; i < std::min(a.test.x.size(), b.test.x.size()); ++i) {
    if (a.test.x.data()[i] != b.test.x.data()[i]) {
      any_diff = true;
      break;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(Synthetic, ClientSizesVaryWithSpread) {
  auto cfg = femnist_like(0.2, 5);
  cfg.samples_spread = 0.6;
  const auto fed = make_synthetic(cfg);
  std::set<std::size_t> sizes;
  for (const auto& c : fed.clients) sizes.insert(c.size());
  EXPECT_GT(sizes.size(), 3u);  // lognormal spread => many distinct sizes
}

TEST(Synthetic, TestSetIsClassBalancedEnough) {
  auto cfg = femnist_like(0.1, 9);
  cfg.test_samples = 6200;
  const auto fed = make_synthetic(cfg);
  const auto hist = fed.test.class_histogram();
  for (const auto count : hist) {
    EXPECT_GT(count, 40u);  // E[count]=100; very loose lower bound
  }
}

TEST(Dataset, SubsetCopiesRows) {
  SyntheticConfig cfg;
  cfg.num_classes = 3;
  cfg.channels = 1;
  cfg.height = 2;
  cfg.width = 2;
  cfg.num_clients = 1;
  cfg.samples_per_client = 10;
  cfg.samples_spread = 0.0;
  cfg.test_samples = 4;
  const auto fed = make_synthetic(cfg);
  const auto& ds = fed.clients[0];
  const auto sub = ds.subset({0, 3, 7});
  ASSERT_EQ(sub.size(), 3u);
  EXPECT_EQ(sub.y[1], ds.y[3]);
  for (std::size_t j = 0; j < ds.x.cols(); ++j) {
    EXPECT_FLOAT_EQ(sub.x.at(2, j), ds.x.at(7, j));
  }
  EXPECT_THROW(ds.subset({99}), std::out_of_range);
}

TEST(Minibatch, SamplesWithReplacementWithinRange) {
  auto cfg = femnist_like(0.03, 2);
  const auto fed = make_synthetic(cfg);
  util::Rng rng(4);
  Minibatch mb;
  sample_minibatch(fed.clients[0], 8, rng, mb);
  EXPECT_EQ(mb.y.size(), 8u);
  EXPECT_EQ(mb.x.rows(), 8u);
  for (const auto idx : mb.indices) EXPECT_LT(idx, fed.clients[0].size());
}

TEST(Minibatch, GatherMatchesSubsetAndReusesStorage) {
  const auto fed = make_synthetic(femnist_like(0.03, 2));
  const Dataset& ds = fed.clients[0];
  Minibatch mb;
  util::Rng rng(6);
  sample_minibatch(ds, 8, rng, mb);  // grows the storage past what gather needs
  const float* storage = mb.x.data();
  const std::vector<std::size_t> idx = {3, 0, 3};
  gather(ds, idx, mb);
  const Dataset sub = ds.subset(idx);
  EXPECT_EQ(mb.indices, idx);
  EXPECT_EQ(mb.y, sub.y);
  ASSERT_EQ(mb.x.rows(), 3u);
  EXPECT_EQ(std::memcmp(mb.x.data(), sub.x.data(), sub.x.size() * sizeof(float)), 0);
  EXPECT_EQ(mb.x.data(), storage);
}

TEST(Minibatch, SmallDatasetUsesAllSamplesOnce) {
  Dataset ds;
  ds.num_classes = 2;
  ds.channels = 1;
  ds.height = 1;
  ds.width = 2;
  ds.x.resize(3, 2);
  ds.y = {0, 1, 0};
  util::Rng rng(5);
  Minibatch mb;
  sample_minibatch(ds, 32, rng, mb);
  EXPECT_EQ(mb.y.size(), 3u);
  EXPECT_EQ(mb.indices, (std::vector<std::size_t>{0, 1, 2}));
  Dataset empty;
  EXPECT_THROW(sample_minibatch(empty, 4, rng, mb), std::invalid_argument);
}

TEST(Synthetic, SparsePrototypesConcentrateSignal) {
  SyntheticConfig cfg;
  cfg.num_classes = 4;
  cfg.channels = 1;
  cfg.height = 10;
  cfg.width = 10;
  cfg.num_clients = 2;
  cfg.samples_per_client = 40;
  cfg.test_samples = 16;
  cfg.noise_std = 0.0;          // isolate the prototype structure
  cfg.writer_style_std = 0.0;
  cfg.writer_gain_std = 0.0;
  cfg.prototype_sparsity = 0.1;  // 10 of 100 dims carry signal
  cfg.seed = 31;
  const auto fed = make_synthetic(cfg);
  // Without noise/style, each sample equals its class prototype: count its
  // nonzero coordinates.
  const auto& ds = fed.clients[0];
  for (std::size_t i = 0; i < ds.size(); ++i) {
    std::size_t nonzero = 0;
    for (std::size_t j = 0; j < ds.feature_dim(); ++j) {
      if (ds.x.at(i, j) != 0.0f) ++nonzero;
    }
    EXPECT_LE(nonzero, 10u);
    EXPECT_GE(nonzero, 1u);
  }
  // Norm is still class_sep (renormalized).
  double norm = 0.0;
  for (std::size_t j = 0; j < ds.feature_dim(); ++j) {
    norm += static_cast<double>(ds.x.at(0, j)) * ds.x.at(0, j);
  }
  EXPECT_NEAR(std::sqrt(norm), cfg.class_sep, 1e-4);
}

TEST(Synthetic, DensePrototypeDefaultUnchanged) {
  // prototype_sparsity = 1.0 must reproduce the historical dense behaviour
  // (every coordinate nonzero almost surely).
  SyntheticConfig cfg;
  cfg.num_classes = 2;
  cfg.channels = 1;
  cfg.height = 4;
  cfg.width = 4;
  cfg.num_clients = 1;
  cfg.samples_per_client = 4;
  cfg.test_samples = 8;
  cfg.noise_std = 0.0;
  cfg.writer_style_std = 0.0;
  cfg.writer_gain_std = 0.0;
  cfg.seed = 7;
  const auto fed = make_synthetic(cfg);
  std::size_t nonzero = 0;
  for (std::size_t j = 0; j < 16; ++j) {
    if (fed.clients[0].x.at(0, j) != 0.0f) ++nonzero;
  }
  EXPECT_EQ(nonzero, 16u);
}

TEST(Dataset, ClassHistogram) {
  Dataset ds;
  ds.num_classes = 3;
  ds.y = {0, 1, 1, 2, 2, 2};
  const auto hist = ds.class_histogram();
  EXPECT_EQ(hist, (std::vector<std::size_t>{1, 2, 3}));
}

}  // namespace
}  // namespace fedsparse::data
