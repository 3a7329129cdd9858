#include "data/io.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace fedsparse::data {

namespace {

constexpr std::uint32_t kImagesMagic = 0x00000803;
constexpr std::uint32_t kLabelsMagic = 0x00000801;

std::uint32_t read_u32_be(std::istream& in, const std::string& what) {
  unsigned char buf[4];
  in.read(reinterpret_cast<char*>(buf), 4);
  if (!in) throw std::runtime_error("IDX: truncated while reading " + what);
  return (static_cast<std::uint32_t>(buf[0]) << 24) | (static_cast<std::uint32_t>(buf[1]) << 16) |
         (static_cast<std::uint32_t>(buf[2]) << 8) | static_cast<std::uint32_t>(buf[3]);
}

void write_u32_be(std::ostream& out, std::uint32_t v) {
  const unsigned char buf[4] = {static_cast<unsigned char>(v >> 24),
                                static_cast<unsigned char>(v >> 16),
                                static_cast<unsigned char>(v >> 8),
                                static_cast<unsigned char>(v)};
  out.write(reinterpret_cast<const char*>(buf), 4);
}

// Bytes from the read position to the end of the stream; the position is
// left where it was.
std::uint64_t bytes_left(std::istream& in) {
  const std::streampos at = in.tellg();
  in.seekg(0, std::ios::end);
  const std::streampos end = in.tellg();
  in.seekg(at);
  return static_cast<std::uint64_t>(end - at);
}

}  // namespace

Dataset load_idx_dataset(const std::string& images_path, const std::string& labels_path,
                         std::size_t num_classes) {
  std::ifstream images(images_path, std::ios::binary);
  if (!images.is_open()) throw std::runtime_error("IDX: cannot open " + images_path);
  if (read_u32_be(images, "images magic") != kImagesMagic) {
    throw std::runtime_error("IDX: bad magic in " + images_path);
  }
  const std::uint32_t count = read_u32_be(images, "image count");
  const std::uint32_t rows = read_u32_be(images, "rows");
  const std::uint32_t cols = read_u32_be(images, "cols");

  std::ifstream labels(labels_path, std::ios::binary);
  if (!labels.is_open()) throw std::runtime_error("IDX: cannot open " + labels_path);
  if (read_u32_be(labels, "labels magic") != kLabelsMagic) {
    throw std::runtime_error("IDX: bad magic in " + labels_path);
  }
  const std::uint32_t label_count = read_u32_be(labels, "label count");
  if (label_count != count) {
    throw std::runtime_error("IDX: image/label count mismatch (" + std::to_string(count) +
                             " vs " + std::to_string(label_count) + ")");
  }

  // The headers are not trusted to size the buffers: a flipped count bit
  // would request gigabytes. Both payloads must be in the files before
  // anything is allocated (count·rows·cols checked without overflow).
  const std::uint64_t pixels = static_cast<std::uint64_t>(rows) * cols;
  if (pixels != 0 && count > bytes_left(images) / pixels) {
    throw std::runtime_error("IDX: header claims " + std::to_string(count) + " images of " +
                             std::to_string(rows) + "x" + std::to_string(cols) +
                             ", more than " + images_path + " holds");
  }
  if (count > bytes_left(labels)) {
    throw std::runtime_error("IDX: header claims " + std::to_string(count) +
                             " labels, more than " + labels_path + " holds");
  }

  Dataset ds;
  ds.num_classes = num_classes;
  ds.channels = 1;
  ds.height = rows;
  ds.width = cols;
  const std::size_t dim = static_cast<std::size_t>(rows) * cols;
  ds.x.resize(count, dim);
  ds.y.resize(count);

  std::vector<unsigned char> pixel_row(dim);
  for (std::uint32_t i = 0; i < count; ++i) {
    images.read(reinterpret_cast<char*>(pixel_row.data()),
                static_cast<std::streamsize>(dim));
    if (!images) throw std::runtime_error("IDX: truncated image payload in " + images_path);
    float* out = ds.x.row(i);
    for (std::size_t j = 0; j < dim; ++j) out[j] = static_cast<float>(pixel_row[j]) / 255.0f;
    char lbl = 0;
    labels.read(&lbl, 1);
    if (!labels) throw std::runtime_error("IDX: truncated label payload in " + labels_path);
    const int label = static_cast<int>(static_cast<unsigned char>(lbl));
    if (static_cast<std::size_t>(label) >= num_classes) {
      throw std::runtime_error("IDX: label " + std::to_string(label) + " out of range");
    }
    ds.y[i] = label;
  }
  return ds;
}

void save_idx_dataset(const Dataset& ds, const std::string& images_path,
                      const std::string& labels_path) {
  if (ds.channels != 1) throw std::invalid_argument("IDX: only single-channel data supported");
  std::ofstream images(images_path, std::ios::binary | std::ios::trunc);
  if (!images.is_open()) throw std::runtime_error("IDX: cannot write " + images_path);
  write_u32_be(images, kImagesMagic);
  write_u32_be(images, static_cast<std::uint32_t>(ds.size()));
  write_u32_be(images, static_cast<std::uint32_t>(ds.height));
  write_u32_be(images, static_cast<std::uint32_t>(ds.width));
  const std::size_t dim = ds.feature_dim();
  std::vector<unsigned char> pixel_row(dim);
  for (std::size_t i = 0; i < ds.size(); ++i) {
    const float* in = ds.x.row(i);
    for (std::size_t j = 0; j < dim; ++j) {
      const float clamped = std::clamp(in[j], 0.0f, 1.0f);
      pixel_row[j] = static_cast<unsigned char>(std::lround(clamped * 255.0f));
    }
    images.write(reinterpret_cast<const char*>(pixel_row.data()),
                 static_cast<std::streamsize>(dim));
  }

  std::ofstream labels(labels_path, std::ios::binary | std::ios::trunc);
  if (!labels.is_open()) throw std::runtime_error("IDX: cannot write " + labels_path);
  write_u32_be(labels, kLabelsMagic);
  write_u32_be(labels, static_cast<std::uint32_t>(ds.size()));
  for (std::size_t i = 0; i < ds.size(); ++i) {
    const char lbl = static_cast<char>(ds.y[i]);
    labels.write(&lbl, 1);
  }
}

Dataset load_csv_dataset(const std::string& path, std::size_t num_classes, std::size_t channels,
                         std::size_t height, std::size_t width) {
  std::ifstream in(path);
  if (!in.is_open()) throw std::runtime_error("CSV: cannot open " + path);
  std::vector<std::vector<float>> rows;
  std::vector<int> labels;
  std::string line;
  std::size_t dim = 0;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::stringstream ss(line);
    std::string cell;
    if (!std::getline(ss, cell, ',')) continue;
    int label = 0;
    try {
      label = std::stoi(cell);
    } catch (const std::exception&) {
      throw std::runtime_error("CSV: bad label '" + cell + "' in " + path);
    }
    if (label < 0 || static_cast<std::size_t>(label) >= num_classes) {
      throw std::runtime_error("CSV: label " + std::to_string(label) + " out of range");
    }
    std::vector<float> features;
    while (std::getline(ss, cell, ',')) {
      try {
        features.push_back(std::stof(cell));
      } catch (const std::exception&) {
        throw std::runtime_error("CSV: bad feature '" + cell + "' in " + path);
      }
    }
    if (dim == 0) {
      dim = features.size();
      if (dim == 0) throw std::runtime_error("CSV: row without features in " + path);
    } else if (features.size() != dim) {
      throw std::runtime_error("CSV: inconsistent feature count in " + path);
    }
    rows.push_back(std::move(features));
    labels.push_back(label);
  }
  if (channels * height * width != dim) {
    throw std::runtime_error("CSV: geometry " + std::to_string(channels) + "x" +
                             std::to_string(height) + "x" + std::to_string(width) +
                             " does not match feature count " + std::to_string(dim));
  }
  Dataset ds;
  ds.num_classes = num_classes;
  ds.channels = channels;
  ds.height = height;
  ds.width = width;
  ds.x.resize(rows.size(), dim);
  ds.y = std::move(labels);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::copy(rows[i].begin(), rows[i].end(), ds.x.row(i));
  }
  return ds;
}

void save_csv_dataset(const Dataset& ds, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out.is_open()) throw std::runtime_error("CSV: cannot write " + path);
  out << "# label,features... (" << ds.size() << " samples, " << ds.feature_dim()
      << " features)\n";
  for (std::size_t i = 0; i < ds.size(); ++i) {
    out << ds.y[i];
    const float* row = ds.x.row(i);
    for (std::size_t j = 0; j < ds.feature_dim(); ++j) out << ',' << row[j];
    out << '\n';
  }
}

}  // namespace fedsparse::data
