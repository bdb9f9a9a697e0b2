#include "dl/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

namespace xsec::dl {

Matrix Matrix::from_rows(const std::vector<std::vector<float>>& rows) {
  if (rows.empty()) return Matrix();
  Matrix m(rows.size(), rows[0].size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    assert(rows[r].size() == m.cols_);
    for (std::size_t c = 0; c < m.cols_; ++c) m.at(r, c) = rows[r][c];
  }
  return m;
}

void Matrix::fill(float value) {
  for (float& v : data_) v = value;
}

void Matrix::zero() {
  // +0.0f is the all-zero bit pattern.
  if (!data_.empty()) std::memset(data_.data(), 0, size() * sizeof(float));
}

void Matrix::xavier_init(Rng& rng, std::size_t fan_in, std::size_t fan_out) {
  float s = std::sqrt(6.0f / static_cast<float>(fan_in + fan_out));
  for (float& v : data_)
    v = static_cast<float>(rng.uniform(-s, s));
}

namespace {

// Writes m's transpose (cols × rows) to t. It walks 16 × 16 tiles so the
// strided writes of a tile hit a few cache lines, not one per column.
void transpose_to(const Matrix& m, float* t) {
  constexpr std::size_t kTile = 16;
  const std::size_t rows = m.rows();
  const std::size_t cols = m.cols();
  for (std::size_t r0 = 0; r0 < rows; r0 += kTile) {
    const std::size_t r1 = std::min(r0 + kTile, rows);
    for (std::size_t c0 = 0; c0 < cols; c0 += kTile) {
      const std::size_t c1 = std::min(c0 + kTile, cols);
      for (std::size_t r = r0; r < r1; ++r) {
        const float* row = m.row(r);
        for (std::size_t c = c0; c < c1; ++c) t[c * rows + r] = row[c];
      }
    }
  }
}

}  // namespace

Matrix Matrix::transposed() const {
  Matrix out(cols_, rows_);
  transpose_to(*this, out.data().data());
  return out;
}

namespace {

// The one matmul kernel. Each output element accumulates its products over
// k in ascending order with a separate rounding per step, exactly like the
// textbook loop, so the baseline and AVX2 builds (which only widen how many
// *independent* column chains run per instruction) are bit-identical. The
// AVX2 wrapper enables avx2 but NOT fma, so the compiler cannot contract
// mul+add pairs into differently-rounded FMAs.
//
// Zero a-elements are skipped: with finite b, a skipped 0*b product is ±0,
// and adding ±0 to an accumulator that starts at +0 never changes its bits
// (round-to-nearest only yields -0 from -0 + -0). Every autoencoder layer's
// live input is 36-53% exact zeros (standardized one-hot features, ReLU
// outputs), so the skip drops about as large a share of the multiply-adds.
//
// Rows are processed in blocks of kRowBlock. For a block, each row's
// nonzero elements are listed once, as values and as offsets of b's row k
// (k * cols), into kRowBlock × inner scratch slots. Column tiles then run
// OUTER and the block's rows INNER, so a b tile stays cache-hot across the
// block; the listed walk needs no index multiply per k. A tile keeps its
// Tile/8 accumulators in vector registers (8 ymm chains for the 64 tile
// under AVX2, enough to hide vaddps latency); the explicit vector type and
// unroll are what keep them out of memory at -O2. Narrower trailing tiles
// (32/8/scalar) cover the remaining columns.
constexpr std::size_t kRowBlock = 16;

// Eight floats, loaded from any float-aligned address; may_alias makes
// reading b's floats through it well-defined. Lane-wise * and + round each
// lane exactly like the scalar ops.
typedef float Float8
    __attribute__((vector_size(32), aligned(alignof(float)), may_alias));

template <int Tile>
__attribute__((always_inline)) inline void tile_rows(
    std::size_t rows, std::size_t inner, const float* b, std::size_t cols,
    float* out, const float* values, const std::uint32_t* offsets,
    const std::uint32_t* nnz, std::size_t c0) {
  const float* bc = b + c0;
  for (std::size_t r = 0; r < rows; ++r) {
    const float* vs = values + r * inner;
    const std::uint32_t* os = offsets + r * inner;
    const std::uint32_t n = nnz[r];
    float* orow = out + r * cols + c0;
    if constexpr (Tile == 1) {
      float acc = 0.0f;
      for (std::uint32_t t = 0; t < n; ++t) acc += vs[t] * bc[os[t]];
      orow[0] = acc;
    } else {
      constexpr int kVecs = Tile / 8;
      Float8 acc[kVecs] = {};
      for (std::uint32_t t = 0; t < n; ++t) {
        const float av = vs[t];
        const Float8* bp = reinterpret_cast<const Float8*>(bc + os[t]);
#pragma GCC unroll 8
        for (int j = 0; j < kVecs; ++j) acc[j] += av * bp[j];
      }
      Float8* ov = reinterpret_cast<Float8*>(orow);
#pragma GCC unroll 8
      for (int j = 0; j < kVecs; ++j) ov[j] = acc[j];
    }
  }
}

template <int KBig>
__attribute__((always_inline)) inline void matmul_body(
    const float* a, std::size_t rows, std::size_t inner, const float* b,
    std::size_t cols, float* out, float* values, std::uint32_t* offsets) {
  std::uint32_t nnz[kRowBlock];
  for (std::size_t r0 = 0; r0 < rows; r0 += kRowBlock) {
    const std::size_t block = std::min(kRowBlock, rows - r0);
    float* oblk = out + r0 * cols;
    for (std::size_t r = 0; r < block; ++r) {
      const float* arow = a + (r0 + r) * inner;
      float* vs = values + r * inner;
      std::uint32_t* os = offsets + r * inner;
      std::uint32_t n = 0;
      for (std::size_t k = 0; k < inner; ++k) {
        vs[n] = arow[k];
        os[n] = static_cast<std::uint32_t>(k * cols);
        n += (arow[k] != 0.0f);
      }
      nnz[r] = n;
    }
    std::size_t c0 = 0;
    for (; c0 + KBig <= cols; c0 += KBig)
      tile_rows<KBig>(block, inner, b, cols, oblk, values, offsets, nnz, c0);
    if constexpr (KBig > 32)
      for (; c0 + 32 <= cols; c0 += 32)
        tile_rows<32>(block, inner, b, cols, oblk, values, offsets, nnz, c0);
    for (; c0 + 8 <= cols; c0 += 8)
      tile_rows<8>(block, inner, b, cols, oblk, values, offsets, nnz, c0);
    for (; c0 < cols; ++c0)
      tile_rows<1>(block, inner, b, cols, oblk, values, offsets, nnz, c0);
  }
}

using MatmulKernelFn = void (*)(const float*, std::size_t, std::size_t,
                                const float*, std::size_t, float*, float*,
                                std::uint32_t*);

// Baseline (portable) instantiation. SSE2 has 16 xmm registers; a 64-wide
// tile would spill, so the baseline uses 32 (8 xmm accumulator chains).
void kernel_base(const float* a, std::size_t rows, std::size_t inner,
                 const float* b, std::size_t cols, float* out, float* values,
                 std::uint32_t* offsets) {
  matmul_body<32>(a, rows, inner, b, cols, out, values, offsets);
}

#if defined(__x86_64__) || defined(__i386__)
// AVX2 variant, picked at load time when the host supports it. The body
// inlines into this wrapper and gets compiled at the wider ISA: the 64-wide
// tile becomes 8 independent ymm accumulator chains, enough to saturate
// both FP ports.
__attribute__((target("avx2"))) void kernel_avx2(
    const float* a, std::size_t rows, std::size_t inner, const float* b,
    std::size_t cols, float* out, float* values, std::uint32_t* offsets) {
  matmul_body<64>(a, rows, inner, b, cols, out, values, offsets);
}

MatmulKernelFn pick_kernel() {
  return __builtin_cpu_supports("avx2") ? kernel_avx2 : kernel_base;
}
#else
MatmulKernelFn pick_kernel() { return kernel_base; }
#endif

const MatmulKernelFn g_kernel = pick_kernel();

// Runs the kernel on row-major operands: out (rows×cols) = a (rows×inner) *
// b (inner×cols). The nonzero scratch for one row block is per thread and
// only grows (to kRowBlock × the widest inner dimension seen), so a warmed
// thread never allocates here again.
void run_kernel(const float* a, std::size_t rows, std::size_t inner,
                const float* b, std::size_t cols, float* out) {
  assert(inner * cols <= UINT32_MAX);  // b row offsets are 32-bit
  thread_local std::vector<float> values;
  thread_local std::vector<std::uint32_t> offsets;
  if (values.size() < kRowBlock * inner) {
    values.resize(kRowBlock * inner);
    offsets.resize(kRowBlock * inner);
  }
  g_kernel(a, rows, inner, b, cols, out, values.data(), offsets.data());
}

// m's transpose, written into a per-thread scratch that only grows. Valid
// until the thread's next call.
const float* transpose_scratch(const Matrix& m) {
  thread_local std::vector<float> t;
  if (t.size() < m.size()) t.resize(m.size());
  transpose_to(m, t.data());
  return t.data();
}

}  // namespace

void matmul_into(const Matrix& a, const Matrix& b, Matrix& out) {
  matmul_prefix_into(a, a.rows(), b, out);
}

void matmul_prefix_into(const Matrix& a, std::size_t a_rows, const Matrix& b,
                        Matrix& out) {
  assert(a_rows <= a.rows());
  assert(a.cols() == b.rows());
  assert(&out != &a && &out != &b);
  out.resize(a_rows, b.cols());
  run_kernel(a.data().data(), a_rows, a.cols(), b.data().data(), b.cols(),
             out.data().data());
}

// The training products run the same kernel on a transposed operand. Each
// output still sums its products in ascending k from +0, and the skipped
// zeros only drop ±0 terms for finite operands, so both equal their
// textbook loops bit for bit (naive_matmul_at/naive_matmul_bt in the tests).
void matmul_bt_into(const Matrix& a, const Matrix& b, Matrix& out) {
  assert(a.cols() == b.cols());
  assert(&out != &a && &out != &b);
  out.resize(a.rows(), b.rows());
  run_kernel(a.data().data(), a.rows(), a.cols(), transpose_scratch(b),
             b.rows(), out.data().data());
}

void matmul_at_into(const Matrix& a, const Matrix& b, Matrix& out) {
  assert(a.rows() == b.rows());
  assert(&out != &a && &out != &b);
  out.resize(a.cols(), b.cols());
  run_kernel(transpose_scratch(a), a.cols(), a.rows(), b.data().data(),
             b.cols(), out.data().data());
}

void add_into(const Matrix& a, const Matrix& b, Matrix& out) {
  assert(a.same_shape(b));
  out.resize(a.rows(), a.cols());
  for (std::size_t i = 0; i < a.size(); ++i)
    out.data()[i] = a.data()[i] + b.data()[i];
}

void sub_into(const Matrix& a, const Matrix& b, Matrix& out) {
  assert(a.same_shape(b));
  out.resize(a.rows(), a.cols());
  for (std::size_t i = 0; i < a.size(); ++i)
    out.data()[i] = a.data()[i] - b.data()[i];
}

void hadamard_into(const Matrix& a, const Matrix& b, Matrix& out) {
  assert(a.same_shape(b));
  out.resize(a.rows(), a.cols());
  for (std::size_t i = 0; i < a.size(); ++i)
    out.data()[i] = a.data()[i] * b.data()[i];
}

void add_row_vector_into(const Matrix& a, const Matrix& row, Matrix& out) {
  assert(row.rows() == 1 && row.cols() == a.cols());
  out.resize(a.rows(), a.cols());
  const float* rv = row.row(0);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const float* arow = a.row(r);
    float* orow = out.row(r);
    for (std::size_t c = 0; c < a.cols(); ++c) orow[c] = arow[c] + rv[c];
  }
}

void sum_rows_into(const Matrix& a, Matrix& out) {
  out.resize(1, a.cols());
  out.fill(0.0f);
  float* orow = out.row(0);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const float* arow = a.row(r);
    for (std::size_t c = 0; c < a.cols(); ++c) orow[c] += arow[c];
  }
}

void add_inplace(Matrix& a, const Matrix& b) {
  assert(a.same_shape(b));
  // Eight lanes at a time (GCC's -O2 vectorizer leaves loops of unknown
  // length scalar); each lane's + rounds exactly like the scalar +.
  float* av = a.data().data();
  const float* bv = b.data().data();
  const std::size_t n = a.size();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    *reinterpret_cast<Float8*>(av + i) +=
        *reinterpret_cast<const Float8*>(bv + i);
  for (; i < n; ++i) av[i] += bv[i];
}

void add_row_vector_inplace(Matrix& a, const Matrix& row) {
  assert(row.rows() == 1 && row.cols() == a.cols());
  const float* rv = row.row(0);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    float* arow = a.row(r);
    for (std::size_t c = 0; c < a.cols(); ++c) arow[c] += rv[c];
  }
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  Matrix out;
  matmul_into(a, b, out);
  return out;
}

Matrix matmul_bt(const Matrix& a, const Matrix& b) {
  Matrix out;
  matmul_bt_into(a, b, out);
  return out;
}

Matrix matmul_at(const Matrix& a, const Matrix& b) {
  Matrix out;
  matmul_at_into(a, b, out);
  return out;
}

Matrix add(const Matrix& a, const Matrix& b) {
  Matrix out;
  add_into(a, b, out);
  return out;
}

Matrix sub(const Matrix& a, const Matrix& b) {
  Matrix out;
  sub_into(a, b, out);
  return out;
}

Matrix hadamard(const Matrix& a, const Matrix& b) {
  Matrix out;
  hadamard_into(a, b, out);
  return out;
}

Matrix add_row_vector(const Matrix& a, const Matrix& row) {
  Matrix out;
  add_row_vector_into(a, row, out);
  return out;
}

Matrix sum_rows(const Matrix& a) {
  Matrix out;
  sum_rows_into(a, out);
  return out;
}

void scale_inplace(Matrix& a, float k) {
  for (float& v : a.data()) v *= k;
}

}  // namespace xsec::dl
