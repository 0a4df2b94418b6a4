#include "tensor/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>

namespace gsgcn::tensor {

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols) {
  set_zero();
}

Matrix::Matrix(const Matrix& other)
    : rows_(other.rows_), cols_(other.cols_), data_(other.size()) {
  std::memcpy(data_.data(), other.data_.data(), size() * sizeof(float));
}

Matrix& Matrix::operator=(const Matrix& other) {
  if (this != &other) {
    rows_ = other.rows_;
    cols_ = other.cols_;
    data_.reset(other.size());
    std::memcpy(data_.data(), other.data_.data(), size() * sizeof(float));
  }
  return *this;
}

Matrix Matrix::glorot(std::size_t rows, std::size_t cols,
                      util::Xoshiro256& rng) {
  Matrix m(rows, cols);
  const float s = std::sqrt(6.0f / static_cast<float>(rows + cols));
  for (std::size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = (2.0f * rng.uniformf() - 1.0f) * s;
  }
  return m;
}

Matrix Matrix::gaussian(std::size_t rows, std::size_t cols, float stddev,
                        util::Xoshiro256& rng) {
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.normal()) * stddev;
  }
  return m;
}

void Matrix::resize_uninitialized(std::size_t rows, std::size_t cols) {
  if (rows * cols > data_.size()) data_.reset(rows * cols);
  rows_ = rows;
  cols_ = cols;
}

void Matrix::fill(float v) {
  std::fill(data_.begin(), data_.begin() + size(), v);
}

float Matrix::max_abs_diff(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return std::numeric_limits<float>::infinity();
  }
  float best = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i) {
    best = std::max(best, std::abs(a.data()[i] - b.data()[i]));
  }
  return best;
}

float Matrix::frobenius_norm() const {
  double s = 0.0;
  for (std::size_t i = 0; i < size(); ++i) {
    s += static_cast<double>(data_[i]) * data_[i];
  }
  return static_cast<float>(std::sqrt(s));
}

void write_matrix(std::ostream& out, const Matrix& m) {
  const std::uint64_t rows = m.rows(), cols = m.cols();
  out.write(reinterpret_cast<const char*>(&rows), sizeof(rows));
  out.write(reinterpret_cast<const char*>(&cols), sizeof(cols));
  out.write(reinterpret_cast<const char*>(m.data()),
            static_cast<std::streamsize>(m.size() * sizeof(float)));
}

Matrix read_matrix(std::istream& in) {
  std::uint64_t rows = 0, cols = 0;
  in.read(reinterpret_cast<char*>(&rows), sizeof(rows));
  in.read(reinterpret_cast<char*>(&cols), sizeof(cols));
  if (!in) throw std::runtime_error("read_matrix: truncated header");
  Matrix m(rows, cols);
  in.read(reinterpret_cast<char*>(m.data()),
          static_cast<std::streamsize>(m.size() * sizeof(float)));
  if (!in) throw std::runtime_error("read_matrix: truncated payload");
  return m;
}

std::string Matrix::shape_str() const {
  // Built by appending rather than a `"literal" + ...` chain: GCC 12's
  // -Wrestrict misfires on the inlined operator+ at -O3.
  std::string s = "[";
  s += std::to_string(rows_);
  s += " x ";
  s += std::to_string(cols_);
  s += "]";
  return s;
}

namespace {
std::string view_shape_str(std::size_t rows, std::size_t cols,
                           std::size_t ld) {
  std::string s = "[";
  s += std::to_string(rows);
  s += " x ";
  s += std::to_string(cols);
  s += " ld=";
  s += std::to_string(ld);
  s += "]";
  return s;
}
}  // namespace

std::string MatrixView::shape_str() const {
  return view_shape_str(rows_, cols_, ld_);
}

std::string ConstMatrixView::shape_str() const {
  return view_shape_str(rows_, cols_, ld_);
}

}  // namespace gsgcn::tensor
