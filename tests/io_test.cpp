// Tests for the dataset file I/O (IDX and CSV): round trips, format
// validation, and error paths on malformed files.
#include <gtest/gtest.h>

#include <filesystem>
#include <cstdint>
#include <fstream>
#include <string>
#include <utility>

#include "data/io.h"
#include "data/synthetic.h"

namespace fedsparse::data {
namespace {

class IoTest : public ::testing::Test {
 protected:
  // One directory per test: ctest -j runs the tests as parallel processes,
  // and a shared one would be removed under a running test by another's
  // TearDown.
  void SetUp() override {
    dir_ = ::testing::TempDir() + "fedsparse_io_test_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& name) const { return dir_ + "/" + name; }

  // A small single-channel dataset with values in [0,1] (IDX-representable).
  Dataset sample_dataset() const {
    Dataset ds;
    ds.num_classes = 5;
    ds.channels = 1;
    ds.height = 4;
    ds.width = 3;
    ds.x.resize(7, 12);
    ds.y.resize(7);
    for (std::size_t i = 0; i < 7; ++i) {
      ds.y[i] = static_cast<int>(i % 5);
      for (std::size_t j = 0; j < 12; ++j) {
        ds.x.at(i, j) = static_cast<float>((i * 12 + j) % 256) / 255.0f;
      }
    }
    return ds;
  }

  std::string dir_;
};

TEST_F(IoTest, IdxRoundTripPreservesDataExactly) {
  const Dataset original = sample_dataset();
  save_idx_dataset(original, path("img.idx"), path("lbl.idx"));
  const Dataset loaded = load_idx_dataset(path("img.idx"), path("lbl.idx"), 5);
  ASSERT_EQ(loaded.size(), original.size());
  EXPECT_EQ(loaded.height, 4u);
  EXPECT_EQ(loaded.width, 3u);
  EXPECT_EQ(loaded.y, original.y);
  for (std::size_t i = 0; i < original.size(); ++i) {
    for (std::size_t j = 0; j < 12; ++j) {
      // u8 quantization: exact for multiples of 1/255.
      EXPECT_NEAR(loaded.x.at(i, j), original.x.at(i, j), 0.5f / 255.0f);
    }
  }
}

TEST_F(IoTest, IdxRejectsBadMagic) {
  {
    std::ofstream bad(path("bad.idx"), std::ios::binary);
    const char junk[16] = {0};
    bad.write(junk, sizeof(junk));
  }
  const Dataset ds = sample_dataset();
  save_idx_dataset(ds, path("img.idx"), path("lbl.idx"));
  EXPECT_THROW(load_idx_dataset(path("bad.idx"), path("lbl.idx"), 5), std::runtime_error);
  EXPECT_THROW(load_idx_dataset(path("img.idx"), path("bad.idx"), 5), std::runtime_error);
}

TEST_F(IoTest, IdxRejectsTruncatedPayload) {
  const Dataset ds = sample_dataset();
  save_idx_dataset(ds, path("img.idx"), path("lbl.idx"));
  // Truncate the image file to half.
  const auto full = std::filesystem::file_size(path("img.idx"));
  std::filesystem::resize_file(path("img.idx"), full / 2);
  EXPECT_THROW(load_idx_dataset(path("img.idx"), path("lbl.idx"), 5), std::runtime_error);
}

TEST_F(IoTest, IdxRejectsCountMismatchAndRangeErrors) {
  const Dataset ds = sample_dataset();
  save_idx_dataset(ds, path("img.idx"), path("lbl.idx"));
  Dataset fewer = ds.subset({0, 1, 2});
  save_idx_dataset(fewer, path("img3.idx"), path("lbl3.idx"));
  EXPECT_THROW(load_idx_dataset(path("img.idx"), path("lbl3.idx"), 5), std::runtime_error);
  // num_classes too small for stored labels:
  EXPECT_THROW(load_idx_dataset(path("img.idx"), path("lbl.idx"), 2), std::runtime_error);
  EXPECT_THROW(load_idx_dataset(path("absent.idx"), path("lbl.idx"), 5), std::runtime_error);
}

// Header-only files whose claimed sizes the files cannot hold: rejected
// before anything is allocated. 2^31 images of 2^15 x 2^15 exceed any
// vector's max_size; 2^16 images of 2^24 x 2^24 wrap count·rows·cols to 0
// in 64 bits.
TEST_F(IoTest, IdxRejectsHeadersClaimingMoreThanTheFileHolds) {
  const auto write_header = [&](const std::string& name, std::initializer_list<std::uint32_t> w) {
    std::ofstream out(path(name), std::ios::binary);
    for (const std::uint32_t v : w) {
      const char be[4] = {static_cast<char>(v >> 24), static_cast<char>(v >> 16),
                          static_cast<char>(v >> 8), static_cast<char>(v)};
      out.write(be, 4);
    }
  };
  for (const auto& [count, side] : {std::pair<std::uint32_t, std::uint32_t>{1u << 31, 1u << 15},
                                    std::pair<std::uint32_t, std::uint32_t>{1u << 16, 1u << 24}}) {
    write_header("img.idx", {0x803, count, side, side});
    write_header("lbl.idx", {0x801, count});
    try {
      (void)load_idx_dataset(path("img.idx"), path("lbl.idx"), 10);
      ADD_FAILURE() << "count " << count << " side " << side << ": loaded";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("more than"), std::string::npos) << e.what();
    }
  }
  // A full images file with a label file that stops after its header.
  const Dataset ds = sample_dataset();
  save_idx_dataset(ds, path("img.idx"), path("lbl.idx"));
  write_header("lbl.idx", {0x801, static_cast<std::uint32_t>(ds.size())});
  EXPECT_THROW(load_idx_dataset(path("img.idx"), path("lbl.idx"), 5), std::runtime_error);
}

TEST_F(IoTest, IdxRejectsMultiChannelSave) {
  Dataset rgb;
  rgb.num_classes = 2;
  rgb.channels = 3;
  rgb.height = 2;
  rgb.width = 2;
  rgb.x.resize(1, 12);
  rgb.y = {0};
  EXPECT_THROW(save_idx_dataset(rgb, path("x.idx"), path("y.idx")), std::invalid_argument);
}

TEST_F(IoTest, CsvRoundTrip) {
  const Dataset original = sample_dataset();
  save_csv_dataset(original, path("data.csv"));
  const Dataset loaded = load_csv_dataset(path("data.csv"), 5, 1, 4, 3);
  ASSERT_EQ(loaded.size(), original.size());
  EXPECT_EQ(loaded.y, original.y);
  for (std::size_t i = 0; i < original.size(); ++i) {
    for (std::size_t j = 0; j < 12; ++j) {
      EXPECT_NEAR(loaded.x.at(i, j), original.x.at(i, j), 1e-5f);
    }
  }
}

TEST_F(IoTest, CsvSkipsCommentsAndValidates) {
  {
    std::ofstream out(path("mixed.csv"));
    out << "# comment line\n";
    out << "1,0.5,0.25\n";
    out << "\n";
    out << "0,1.0,0.0\n";
  }
  const Dataset ds = load_csv_dataset(path("mixed.csv"), 2, 1, 1, 2);
  ASSERT_EQ(ds.size(), 2u);
  EXPECT_EQ(ds.y[0], 1);
  EXPECT_FLOAT_EQ(ds.x.at(1, 0), 1.0f);

  {
    std::ofstream out(path("ragged.csv"));
    out << "0,1.0,2.0\n0,1.0\n";
  }
  EXPECT_THROW(load_csv_dataset(path("ragged.csv"), 2, 1, 1, 2), std::runtime_error);

  {
    std::ofstream out(path("badlabel.csv"));
    out << "9,1.0,2.0\n";
  }
  EXPECT_THROW(load_csv_dataset(path("badlabel.csv"), 2, 1, 1, 2), std::runtime_error);

  // Geometry mismatch:
  EXPECT_THROW(load_csv_dataset(path("mixed.csv"), 2, 1, 1, 5), std::runtime_error);
  EXPECT_THROW(load_csv_dataset(path("absent.csv"), 2, 1, 1, 2), std::runtime_error);
}

TEST_F(IoTest, SyntheticExportImportTrainsIdentically) {
  // Export a synthetic client's data to CSV and reload: class histograms and
  // sample count must survive (full fidelity path for real-data users).
  SyntheticConfig cfg;
  cfg.num_classes = 6;
  cfg.channels = 1;
  cfg.height = 5;
  cfg.width = 5;
  cfg.num_clients = 2;
  cfg.samples_per_client = 30;
  cfg.test_samples = 16;
  cfg.seed = 42;
  const auto fed = make_synthetic(cfg);
  save_csv_dataset(fed.clients[0], path("client0.csv"));
  const Dataset back = load_csv_dataset(path("client0.csv"), 6, 1, 5, 5);
  EXPECT_EQ(back.class_histogram(), fed.clients[0].class_histogram());
  EXPECT_EQ(back.size(), fed.clients[0].size());
}

}  // namespace
}  // namespace fedsparse::data
