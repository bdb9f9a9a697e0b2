// Dense row-major float matrix with the operations the networks need.
//
// The models in this reproduction are small (windowed one-hot inputs, a few
// hundred hidden units), so a straightforward cache-friendly implementation
// with no BLAS dependency is both sufficient and deterministic across
// platforms — which matters for reproducing Table 2 bit-for-bit.
//
// Two API layers:
//   - `_into` kernels write into caller-owned buffers and are the
//     inference hot path: once a buffer has capacity they never touch the
//     heap (Matrix::resize keeps capacity when shrinking).
//   - The allocating functions (matmul, add, ...) are thin wrappers over
//     the `_into` kernels, kept for the training/backprop code where a
//     fresh temporary per op is fine.
// Every kernel accumulates each output element over k in ascending order,
// so the zero-skipping register-blocked matmul, its AVX2 build, and the
// wrappers all produce results bit-identical to the textbook loop for
// finite inputs.
#pragma once

#include <cassert>
#include <cstddef>
#include <vector>

#include "common/rng.hpp"

namespace xsec::dl {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, float fill = 0.0f)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  static Matrix from_rows(const std::vector<std::vector<float>>& rows);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float& at(std::size_t r, std::size_t c) {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  float at(std::size_t r, std::size_t c) const {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  float* row(std::size_t r) { return data_.data() + r * cols_; }
  const float* row(std::size_t r) const { return data_.data() + r * cols_; }

  std::vector<float>& data() { return data_; }
  const std::vector<float>& data() const { return data_; }

  void fill(float value);
  void zero() { fill(0.0f); }

  /// Reshapes in place. Contents are unspecified afterwards (kernels
  /// overwrite their output). The backing vector keeps its capacity, so a
  /// workspace matrix warmed at its largest shape never reallocates when
  /// reused at smaller shapes.
  void resize(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
  }

  /// Xavier/Glorot uniform initialization: U(-s, s), s = sqrt(6/(in+out)).
  void xavier_init(Rng& rng, std::size_t fan_in, std::size_t fan_out);

  Matrix transposed() const;

  bool same_shape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> data_;
};

// ---- `_into` kernels (allocation-free once `out` has capacity) ----------

/// out = a (r×k) * b (k×c). The one matmul kernel: register-blocked column
/// tiles over only the nonzero elements of each a-row, bit-identical to the
/// textbook loop (see the header comment). Its only heap use is a
/// per-thread scratch of 16 × k (value, offset) pairs, grown on the first
/// call at a new widest k; a thread that has run its widest shape never
/// allocates here.
void matmul_into(const Matrix& a, const Matrix& b, Matrix& out);
/// out = first `a_rows` rows of a (a_rows×k) * b (k×c). Lets a caller
/// multiply a prefix of a taller workspace matrix without copying it.
void matmul_prefix_into(const Matrix& a, std::size_t a_rows, const Matrix& b,
                        Matrix& out);
/// out = a (r×k) * b^T (c×k).
void matmul_bt_into(const Matrix& a, const Matrix& b, Matrix& out);
/// out = a^T (k×r) * b (k×c).
void matmul_at_into(const Matrix& a, const Matrix& b, Matrix& out);

void add_into(const Matrix& a, const Matrix& b, Matrix& out);
void sub_into(const Matrix& a, const Matrix& b, Matrix& out);
void hadamard_into(const Matrix& a, const Matrix& b, Matrix& out);
void add_row_vector_into(const Matrix& a, const Matrix& row, Matrix& out);
void sum_rows_into(const Matrix& a, Matrix& out);

/// a += b element-wise.
void add_inplace(Matrix& a, const Matrix& b);
/// Adds a 1×c row vector to every row of a, in place.
void add_row_vector_inplace(Matrix& a, const Matrix& row);

// ---- Allocating wrappers (training paths) -------------------------------

/// out = a (r×k) * b (k×c)
Matrix matmul(const Matrix& a, const Matrix& b);
/// out = a (r×k) * b^T (c×k)
Matrix matmul_bt(const Matrix& a, const Matrix& b);
/// out = a^T (k×r) * b (k×c)
Matrix matmul_at(const Matrix& a, const Matrix& b);

Matrix add(const Matrix& a, const Matrix& b);
Matrix sub(const Matrix& a, const Matrix& b);
Matrix hadamard(const Matrix& a, const Matrix& b);
/// Adds a 1×c row vector to every row of a.
Matrix add_row_vector(const Matrix& a, const Matrix& row);
/// Column-wise sum producing a 1×c matrix (bias gradients).
Matrix sum_rows(const Matrix& a);
void scale_inplace(Matrix& a, float k);
void add_scaled_inplace(Matrix& a, const Matrix& b, float k);

}  // namespace xsec::dl
