#include "rl/matrix.hpp"

#include <cmath>
#include <cstdint>
#include <istream>
#include <ostream>

#include "common/check.hpp"
#include "common/kernels.hpp"

namespace ctj::rl {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {
  CTJ_CHECK(rows > 0 && cols > 0);
}

Matrix Matrix::zeros(std::size_t rows, std::size_t cols) {
  return Matrix(rows, cols, 0.0);
}

Matrix Matrix::he_normal(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  const double scale = std::sqrt(2.0 / static_cast<double>(rows));
  for (double& v : m.data_) v = rng.normal(0.0, scale);
  return m;
}

Matrix Matrix::row(std::span<const double> values) {
  Matrix m(1, values.size());
  for (std::size_t i = 0; i < values.size(); ++i) m.data_[i] = values[i];
  return m;
}

double& Matrix::at(std::size_t r, std::size_t c) {
  CTJ_CHECK(r < rows_ && c < cols_);
  return data_[r * cols_ + c];
}

double Matrix::at(std::size_t r, std::size_t c) const {
  CTJ_CHECK(r < rows_ && c < cols_);
  return data_[r * cols_ + c];
}

std::span<double> Matrix::row_span(std::size_t r) {
  CTJ_CHECK(r < rows_);
  return {data_.data() + r * cols_, cols_};
}

std::span<const double> Matrix::row_span(std::size_t r) const {
  CTJ_CHECK(r < rows_);
  return {data_.data() + r * cols_, cols_};
}

void Matrix::fill(double value) {
  for (double& v : data_) v = value;
}

void Matrix::resize(std::size_t rows, std::size_t cols, double fill) {
  CTJ_CHECK(rows > 0 && cols > 0);
  rows_ = rows;
  cols_ = cols;
  data_.assign(rows * cols, fill);
}

Matrix& Matrix::operator+=(const Matrix& other) {
  CTJ_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  kern::ops().saxpy(data_.size(), 1.0, other.data_.data(), data_.data());
  return *this;
}

Matrix& Matrix::operator*=(double scalar) {
  for (double& v : data_) v *= scalar;
  return *this;
}

void Matrix::save(std::ostream& os) const {
  const std::uint64_t r = rows_, c = cols_;
  os.write(reinterpret_cast<const char*>(&r), sizeof(r));
  os.write(reinterpret_cast<const char*>(&c), sizeof(c));
  os.write(reinterpret_cast<const char*>(data_.data()),
           static_cast<std::streamsize>(data_.size() * sizeof(double)));
  CTJ_CHECK_MSG(os.good(), "matrix serialization failed");
}

Matrix Matrix::load(std::istream& is) {
  std::uint64_t r = 0, c = 0;
  is.read(reinterpret_cast<char*>(&r), sizeof(r));
  is.read(reinterpret_cast<char*>(&c), sizeof(c));
  CTJ_CHECK_MSG(is.good() && r > 0 && c > 0, "corrupt matrix header");
  Matrix m(static_cast<std::size_t>(r), static_cast<std::size_t>(c));
  is.read(reinterpret_cast<char*>(m.data_.data()),
          static_cast<std::streamsize>(m.data_.size() * sizeof(double)));
  CTJ_CHECK_MSG(is.good(), "corrupt matrix payload");
  return m;
}

void matmul_into(Matrix& c, const Matrix& a, const Matrix& b) {
  CTJ_CHECK_MSG(a.cols() == b.rows(), "matmul shape mismatch: "
                                          << a.rows() << "x" << a.cols()
                                          << " · " << b.rows() << "x"
                                          << b.cols());
  const std::size_t m = a.rows(), kk = a.cols(), n = b.cols();
  c.resize(m, n, 0.0);
  kern::ops().matmul_acc(c.data(), a.data(), b.data(), m, kk, n);
}

void matmul_at_b_acc(Matrix& c, const Matrix& a, const Matrix& b) {
  CTJ_CHECK(a.rows() == b.rows());
  CTJ_CHECK(c.rows() == a.cols() && c.cols() == b.cols());
  kern::ops().matmul_at_b_acc(c.data(), a.data(), b.data(), a.rows(),
                              a.cols(), b.cols());
}

void matmul_at_b_into(Matrix& c, const Matrix& a, const Matrix& b) {
  CTJ_CHECK(a.rows() == b.rows());
  c.resize(a.cols(), b.cols(), 0.0);
  matmul_at_b_acc(c, a, b);
}

void matmul_a_bt_into(Matrix& c, const Matrix& a, const Matrix& b) {
  CTJ_CHECK(a.cols() == b.cols());
  c.resize(a.rows(), b.rows(), 0.0);
  kern::ops().matmul_a_bt_acc(c.data(), a.data(), b.data(), a.rows(),
                              a.cols(), b.rows());
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  Matrix c;
  matmul_into(c, a, b);
  return c;
}

Matrix matmul_at_b(const Matrix& a, const Matrix& b) {
  Matrix c;
  matmul_at_b_into(c, a, b);
  return c;
}

Matrix matmul_a_bt(const Matrix& a, const Matrix& b) {
  Matrix c;
  matmul_a_bt_into(c, a, b);
  return c;
}

}  // namespace ctj::rl
