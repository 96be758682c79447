#include "src/tensor/matrix.h"

#include <algorithm>
#include <cstdint>
#include <istream>
#include <ostream>

#include "src/util/check.h"
#include "src/util/rng.h"

namespace cloudgen {

Matrix::Matrix(size_t rows, size_t cols) : rows_(rows), cols_(cols), data_(rows * cols, 0.0f) {}

Matrix::Matrix(size_t rows, size_t cols, float fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

float& Matrix::At(size_t r, size_t c) {
  CG_CHECK(r < rows_ && c < cols_);
  return data_[r * cols_ + c];
}

float Matrix::At(size_t r, size_t c) const {
  CG_CHECK(r < rows_ && c < cols_);
  return data_[r * cols_ + c];
}

void Matrix::Fill(float value) {
  for (auto& v : data_) {
    v = value;
  }
}

void Matrix::Resize(size_t rows, size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.assign(rows * cols, 0.0f);
}

void Matrix::Scale(float s) {
  for (auto& v : data_) {
    v *= s;
  }
}

void Matrix::Add(const Matrix& other) {
  CG_CHECK(SameShape(other));
  for (size_t i = 0; i < data_.size(); ++i) {
    data_[i] += other.data_[i];
  }
}

void Matrix::Axpy(float alpha, const Matrix& other) {
  CG_CHECK(SameShape(other));
  for (size_t i = 0; i < data_.size(); ++i) {
    data_[i] += alpha * other.data_[i];
  }
}

double Matrix::SquaredNorm() const {
  double acc = 0.0;
  for (float v : data_) {
    acc += static_cast<double>(v) * static_cast<double>(v);
  }
  return acc;
}

void Matrix::RandomUniform(Rng& rng, float bound) {
  for (auto& v : data_) {
    v = static_cast<float>(rng.Uniform(-bound, bound));
  }
}

Matrix Matrix::Transposed() const {
  Matrix out(cols_, rows_);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t c = 0; c < cols_; ++c) {
      out(c, r) = (*this)(r, c);
    }
  }
  return out;
}

namespace {

// Plain reference kernels, all with a stride-1 inner loop over the output
// columns (or a stride-1 dot product). A is m x k, B is k x n, C is m x n
// after op(). Zero multipliers are NOT skipped: 0 * NaN must produce NaN so
// that divergence in one operand always propagates to the output (the
// training watchdog depends on non-finite values surfacing).

void RefGemmNN(float alpha, const Matrix& a, const Matrix& b, Matrix* c) {
  const size_t m = a.Rows();
  const size_t k = a.Cols();
  const size_t n = b.Cols();
  for (size_t i = 0; i < m; ++i) {
    const float* a_row = a.Row(i);
    float* c_row = c->Row(i);
    for (size_t p = 0; p < k; ++p) {
      const float av = alpha * a_row[p];
      const float* b_row = b.Row(p);
      for (size_t j = 0; j < n; ++j) {
        c_row[j] += av * b_row[j];
      }
    }
  }
}

void RefGemmTN(float alpha, const Matrix& a, const Matrix& b, Matrix* c) {
  // C(i,j) += alpha * sum_p A(p,i) * B(p,j).
  const size_t k = a.Rows();
  const size_t m = a.Cols();
  const size_t n = b.Cols();
  for (size_t p = 0; p < k; ++p) {
    const float* a_row = a.Row(p);
    const float* b_row = b.Row(p);
    for (size_t i = 0; i < m; ++i) {
      const float av = alpha * a_row[i];
      float* c_row = c->Row(i);
      for (size_t j = 0; j < n; ++j) {
        c_row[j] += av * b_row[j];
      }
    }
  }
}

void RefGemmNT(float alpha, const Matrix& a, const Matrix& b, Matrix* c) {
  // C(i,j) += alpha * dot(A.row(i), B.row(j)).
  const size_t m = a.Rows();
  const size_t k = a.Cols();
  const size_t n = b.Rows();
  for (size_t i = 0; i < m; ++i) {
    const float* a_row = a.Row(i);
    float* c_row = c->Row(i);
    for (size_t j = 0; j < n; ++j) {
      const float* b_row = b.Row(j);
      float acc = 0.0f;
      for (size_t p = 0; p < k; ++p) {
        acc += a_row[p] * b_row[p];
      }
      c_row[j] += alpha * acc;
    }
  }
}

void RefGemmTT(float alpha, const Matrix& a, const Matrix& b, Matrix* c) {
  // Rare path: materialize A^T and reuse the NT kernel.
  const Matrix at = a.Transposed();
  RefGemmNT(alpha, at, b, c);
}

// ---------------------------------------------------------------------------
// Blocked kernels.
//
// Register-tiled micro-kernels: a kRowTile x kColTile block of C is
// accumulated in a local register tile over the whole k extent, then added to
// C once. The inner j loop is stride-1 and carries kRowTile independent FMA
// chains, so -O3 vectorizes it without -ffast-math.
//
// Determinism: each output element C(i,j) is one accumulation chain with p
// strictly ascending, regardless of which tile (full or edge) covers it, so
// the result does not depend on the tile partitioning.

constexpr size_t kRowTile = 4;   // C rows per register tile.
constexpr size_t kColTile = 32;  // C cols per register tile.

// NN micro-step for one (rows x cols) tile at (i0, j0); rows <= kRowTile,
// cols <= kColTile. `a` is (m, k) row-major, `b` is (k, n) row-major.
inline void TileNN(float alpha, const Matrix& a, const Matrix& b, Matrix* c, size_t i0,
                   size_t j0, size_t rows, size_t cols) {
  const size_t k = a.Cols();
  float acc[kRowTile][kColTile] = {};
  const float* a_rows[kRowTile];
  for (size_t r = 0; r < rows; ++r) {
    a_rows[r] = a.Row(i0 + r);
  }
  if (rows == kRowTile && cols == kColTile) {
    // Hot full-tile path with constant trip counts.
    for (size_t p = 0; p < k; ++p) {
      const float* bp = b.Row(p) + j0;
      for (size_t r = 0; r < kRowTile; ++r) {
        const float av = alpha * a_rows[r][p];
        for (size_t jj = 0; jj < kColTile; ++jj) {
          acc[r][jj] += av * bp[jj];
        }
      }
    }
  } else {
    for (size_t p = 0; p < k; ++p) {
      const float* bp = b.Row(p) + j0;
      for (size_t r = 0; r < rows; ++r) {
        const float av = alpha * a_rows[r][p];
        for (size_t jj = 0; jj < cols; ++jj) {
          acc[r][jj] += av * bp[jj];
        }
      }
    }
  }
  for (size_t r = 0; r < rows; ++r) {
    float* c_row = c->Row(i0 + r) + j0;
    for (size_t jj = 0; jj < cols; ++jj) {
      c_row[jj] += acc[r][jj];
    }
  }
}

// TN micro-step: C(i,j) += alpha * sum_p A(p,i) * B(p,j). A is (k, m).
inline void TileTN(float alpha, const Matrix& a, const Matrix& b, Matrix* c, size_t i0,
                   size_t j0, size_t rows, size_t cols) {
  const size_t k = a.Rows();
  float acc[kRowTile][kColTile] = {};
  if (rows == kRowTile && cols == kColTile) {
    for (size_t p = 0; p < k; ++p) {
      const float* ap = a.Row(p) + i0;
      const float* bp = b.Row(p) + j0;
      for (size_t r = 0; r < kRowTile; ++r) {
        const float av = alpha * ap[r];
        for (size_t jj = 0; jj < kColTile; ++jj) {
          acc[r][jj] += av * bp[jj];
        }
      }
    }
  } else {
    for (size_t p = 0; p < k; ++p) {
      const float* ap = a.Row(p) + i0;
      const float* bp = b.Row(p) + j0;
      for (size_t r = 0; r < rows; ++r) {
        const float av = alpha * ap[r];
        for (size_t jj = 0; jj < cols; ++jj) {
          acc[r][jj] += av * bp[jj];
        }
      }
    }
  }
  for (size_t r = 0; r < rows; ++r) {
    float* c_row = c->Row(i0 + r) + j0;
    for (size_t jj = 0; jj < cols; ++jj) {
      c_row[jj] += acc[r][jj];
    }
  }
}

// Fixed-order partial-sum dot product: 8 interleaved chains plus a fixed
// final reduction, so the result does not depend on the caller's tiling.
inline float DotFixed(const float* x, const float* y, size_t k) {
  float partial[8] = {};
  size_t p = 0;
  for (; p + 8 <= k; p += 8) {
    for (size_t u = 0; u < 8; ++u) {
      partial[u] += x[p + u] * y[p + u];
    }
  }
  for (size_t u = 0; p + u < k; ++u) {
    partial[u] += x[p + u] * y[p + u];
  }
  const float s01 = partial[0] + partial[1];
  const float s23 = partial[2] + partial[3];
  const float s45 = partial[4] + partial[5];
  const float s67 = partial[6] + partial[7];
  return (s01 + s23) + (s45 + s67);
}

// Strided variant of DotFixed: x is read at stride `xs` (a matrix column).
// The products and the partial-sum structure are identical to DotFixed on the
// materialized column, so the result is bitwise the same without the
// transpose allocation.
inline float DotFixedStrided(const float* x, size_t xs, const float* y, size_t k) {
  float partial[8] = {};
  size_t p = 0;
  for (; p + 8 <= k; p += 8) {
    for (size_t u = 0; u < 8; ++u) {
      partial[u] += x[(p + u) * xs] * y[p + u];
    }
  }
  for (size_t u = 0; p + u < k; ++u) {
    partial[u] += x[(p + u) * xs] * y[p + u];
  }
  const float s01 = partial[0] + partial[1];
  const float s23 = partial[2] + partial[3];
  const float s45 = partial[4] + partial[5];
  const float s67 = partial[6] + partial[7];
  return (s01 + s23) + (s45 + s67);
}

// ---------------------------------------------------------------------------
// Small-M (GEMV-shaped) kernels, used when op(A) has fewer rows than a tile.
//
// The tiled NN/TN kernels walk B once per kColTile-wide column strip, so a
// one-row product streams the whole B matrix n/kColTile times. These kernels
// keep a column strip of the accumulator in a stack buffer wide enough that B
// is streamed exactly once, which is what makes per-token inference steps
// (M = 1) fast. Each output element is still one p-ascending chain computed
// into a zeroed local accumulator and added to C afterwards — element for
// element the same float operations as TileNN/TileTN, so Gemm's result does
// not depend on which path ran.

constexpr size_t kGemvStripCols = 512;  // Accumulator strip held on the stack.

// One register-resident accumulator chunk: racc[jj] starts from the caller's
// acc value and accumulates (alpha * x[p]) * w(p, j0 + jj) for p ascending —
// exactly the chain a p-outer loop over the caller's buffer would compute,
// but with the chunk held in registers across the whole k loop so the
// accumulator never round-trips through memory per p. `width` is kColTile on
// the main path (constant trip count → the compiler keeps racc in vector
// registers) and the remainder on the tail.
// Register chunk width. Wider than kColTile so the k loop carries enough
// independent accumulator registers to hide FMA latency (each output element
// is one serial chain; parallelism comes only from neighboring elements).
// The chunk width never affects results — chains are per-element.
constexpr size_t kGemvChunkCols = 2 * kColTile;

// Full-width chunk: constant trip count kGemvChunkCols, so racc lives in
// vector registers for the whole k loop.
inline void GemvChunkFull(float alpha, const float* x, size_t xs, size_t k, const float* w,
                          size_t ld, float* acc) {
  float racc[kGemvChunkCols];
  for (size_t jj = 0; jj < kGemvChunkCols; ++jj) {
    racc[jj] = acc[jj];
  }
  for (size_t p = 0; p < k; ++p) {
    const float av = alpha * x[p * xs];
    const float* wp = w + p * ld;
    for (size_t jj = 0; jj < kGemvChunkCols; ++jj) {
      racc[jj] += av * wp[jj];
    }
  }
  for (size_t jj = 0; jj < kGemvChunkCols; ++jj) {
    acc[jj] = racc[jj];
  }
}

// Remainder chunk (width < kGemvChunkCols): same chains, runtime trip count.
inline void GemvChunkTail(float alpha, const float* x, size_t xs, size_t k, const float* w,
                          size_t ld, size_t width, float* acc) {
  float racc[kGemvChunkCols];
  for (size_t jj = 0; jj < width; ++jj) {
    racc[jj] = acc[jj];
  }
  for (size_t p = 0; p < k; ++p) {
    const float av = alpha * x[p * xs];
    const float* wp = w + p * ld;
    for (size_t jj = 0; jj < width; ++jj) {
      racc[jj] += av * wp[jj];
    }
  }
  for (size_t jj = 0; jj < width; ++jj) {
    acc[jj] = racc[jj];
  }
}

// Accumulator strip: acc[jj] += (alpha * x[p]) * w(p, j0 + jj), one fixed
// p-ascending chain per element seeded from acc's existing value, with the
// x element read at stride `xs` (1 for NN, the row length for TN).
//
// Kept out of line: inlined into SmallNN's strip loop, g++ 12 spilled
// GemvChunkFull's 64-float chunk to the stack and loaded and stored it on
// every p step; out of line the chunk stays in vector registers for the whole
// k loop, and SmallNN runs the same compiled loop as GemvAccumulate (g++ may
// still clone it per constant argument, such as a unit stride). Every
// element's chain is the same either way.
__attribute__((noinline)) void GemvStrip(float alpha, const float* x, size_t xs, size_t k,
                                         const float* w, size_t ld, size_t cols, float* acc) {
  size_t j0 = 0;
  for (; j0 + kGemvChunkCols <= cols; j0 += kGemvChunkCols) {
    GemvChunkFull(alpha, x, xs, k, w + j0, ld, acc + j0);
  }
  if (j0 < cols) {
    GemvChunkTail(alpha, x, xs, k, w + j0, ld, cols - j0, acc + j0);
  }
}

void SmallNN(float alpha, const Matrix& a, const Matrix& b, Matrix* c) {
  const size_t m = a.Rows();
  const size_t k = a.Cols();
  const size_t n = b.Cols();
  float acc[kGemvStripCols];
  for (size_t i = 0; i < m; ++i) {
    const float* a_row = a.Row(i);
    float* c_row = c->Row(i);
    for (size_t j0 = 0; j0 < n; j0 += kGemvStripCols) {
      const size_t cols = std::min(kGemvStripCols, n - j0);
      std::fill(acc, acc + cols, 0.0f);
      GemvStrip(alpha, a_row, 1, k, b.Data() + j0, n, cols, acc);
      for (size_t jj = 0; jj < cols; ++jj) {
        c_row[j0 + jj] += acc[jj];
      }
    }
  }
}

void SmallTN(float alpha, const Matrix& a, const Matrix& b, Matrix* c) {
  // C(i,j) += alpha * sum_p A(p,i) * B(p,j); A is (k, m), column i is strided.
  const size_t k = a.Rows();
  const size_t m = a.Cols();
  const size_t n = b.Cols();
  float acc[kGemvStripCols];
  for (size_t i = 0; i < m; ++i) {
    const float* a_col = a.Data() + i;
    float* c_row = c->Row(i);
    for (size_t j0 = 0; j0 < n; j0 += kGemvStripCols) {
      const size_t cols = std::min(kGemvStripCols, n - j0);
      std::fill(acc, acc + cols, 0.0f);
      GemvStrip(alpha, a_col, m, k, b.Data() + j0, n, cols, acc);
      for (size_t jj = 0; jj < cols; ++jj) {
        c_row[j0 + jj] += acc[jj];
      }
    }
  }
}

void SmallTT(float alpha, const Matrix& a, const Matrix& b, Matrix* c) {
  // Matches BlockedNT on a materialized A^T (DotFixedStrided reproduces
  // DotFixed's chains exactly) without the transpose allocation.
  const size_t k = a.Rows();
  const size_t m = a.Cols();
  const size_t n = b.Rows();
  for (size_t i = 0; i < m; ++i) {
    const float* a_col = a.Data() + i;
    float* c_row = c->Row(i);
    for (size_t j = 0; j < n; ++j) {
      c_row[j] += alpha * DotFixedStrided(a_col, m, b.Row(j), k);
    }
  }
}

void BlockedNN(float alpha, const Matrix& a, const Matrix& b, Matrix* c) {
  const size_t m = c->Rows();
  const size_t n = b.Cols();
  for (size_t i0 = 0; i0 < m; i0 += kRowTile) {
    const size_t rows = std::min(kRowTile, m - i0);
    for (size_t j0 = 0; j0 < n; j0 += kColTile) {
      TileNN(alpha, a, b, c, i0, j0, rows, std::min(kColTile, n - j0));
    }
  }
}

void BlockedTN(float alpha, const Matrix& a, const Matrix& b, Matrix* c) {
  const size_t m = c->Rows();
  const size_t n = b.Cols();
  for (size_t i0 = 0; i0 < m; i0 += kRowTile) {
    const size_t rows = std::min(kRowTile, m - i0);
    for (size_t j0 = 0; j0 < n; j0 += kColTile) {
      TileTN(alpha, a, b, c, i0, j0, rows, std::min(kColTile, n - j0));
    }
  }
}

void BlockedNT(float alpha, const Matrix& a, const Matrix& b, Matrix* c) {
  // C(i,j) += alpha * dot(A.row(i), B.row(j)); both operands stride-1.
  const size_t m = c->Rows();
  const size_t k = a.Cols();
  const size_t n = b.Rows();
  for (size_t i = 0; i < m; ++i) {
    const float* a_row = a.Row(i);
    float* c_row = c->Row(i);
    for (size_t j = 0; j < n; ++j) {
      c_row[j] += alpha * DotFixed(a_row, b.Row(j), k);
    }
  }
}

void ApplyBeta(float beta, Matrix* c) {
  if (beta == 0.0f) {
    c->SetZero();
  } else if (beta != 1.0f) {
    c->Scale(beta);
  }
}

// Validates the operand shapes and returns m, the row count of C.
size_t CheckGemmShapes(bool trans_a, bool trans_b, const Matrix& a, const Matrix& b,
                       Matrix* c) {
  CG_CHECK(c != nullptr);
  const size_t m = trans_a ? a.Cols() : a.Rows();
  const size_t ka = trans_a ? a.Rows() : a.Cols();
  const size_t kb = trans_b ? b.Cols() : b.Rows();
  const size_t n = trans_b ? b.Rows() : b.Cols();
  CG_CHECK_MSG(ka == kb, "Gemm inner-dimension mismatch");
  CG_CHECK_MSG(c->Rows() == m && c->Cols() == n, "Gemm output shape mismatch");
  return m;
}

// The accumulate phase of the tile-only path (after ApplyBeta).
void RunTiled(bool trans_a, bool trans_b, float alpha, const Matrix& a, const Matrix& b,
              Matrix* c) {
  if (!trans_a && !trans_b) {
    BlockedNN(alpha, a, b, c);
  } else if (trans_a && !trans_b) {
    BlockedTN(alpha, a, b, c);
  } else if (!trans_a && trans_b) {
    BlockedNT(alpha, a, b, c);
  } else {
    // Rare path: materialize A^T and reuse the NT kernel.
    const Matrix at = a.Transposed();
    BlockedNT(alpha, at, b, c);
  }
}

}  // namespace

void Gemm(bool trans_a, bool trans_b, float alpha, const Matrix& a, const Matrix& b,
          float beta, Matrix* c) {
  const size_t m = CheckGemmShapes(trans_a, trans_b, a, b, c);
  ApplyBeta(beta, c);
  if (m < kRowTile) {
    // GEMV-shaped outputs: single pass over op(B), same per-element chains.
    if (!trans_a && !trans_b) {
      SmallNN(alpha, a, b, c);
    } else if (trans_a && !trans_b) {
      SmallTN(alpha, a, b, c);
    } else if (!trans_a && trans_b) {
      // BlockedNT is already row-by-row with no cross-row state.
      BlockedNT(alpha, a, b, c);
    } else {
      SmallTT(alpha, a, b, c);
    }
    return;
  }
  RunTiled(trans_a, trans_b, alpha, a, b, c);
}

void GemmTiled(bool trans_a, bool trans_b, float alpha, const Matrix& a, const Matrix& b,
               float beta, Matrix* c) {
  CheckGemmShapes(trans_a, trans_b, a, b, c);
  ApplyBeta(beta, c);
  RunTiled(trans_a, trans_b, alpha, a, b, c);
}

void GemvAccumulate(const float* x, size_t k, const float* w, size_t ldw, size_t n,
                    float* acc) {
  GemvStrip(1.0f, x, 1, k, w, ldw, n, acc);
}

void GemmReference(bool trans_a, bool trans_b, float alpha, const Matrix& a,
                   const Matrix& b, float beta, Matrix* c) {
  CG_CHECK(c != nullptr);
  const size_t m = trans_a ? a.Cols() : a.Rows();
  const size_t ka = trans_a ? a.Rows() : a.Cols();
  const size_t kb = trans_b ? b.Cols() : b.Rows();
  const size_t n = trans_b ? b.Rows() : b.Cols();
  CG_CHECK_MSG(ka == kb, "Gemm inner-dimension mismatch");
  CG_CHECK_MSG(c->Rows() == m && c->Cols() == n, "Gemm output shape mismatch");
  ApplyBeta(beta, c);
  if (!trans_a && !trans_b) {
    RefGemmNN(alpha, a, b, c);
  } else if (trans_a && !trans_b) {
    RefGemmTN(alpha, a, b, c);
  } else if (!trans_a && trans_b) {
    RefGemmNT(alpha, a, b, c);
  } else {
    RefGemmTT(alpha, a, b, c);
  }
}

void WriteMatrix(std::ostream& out, const Matrix& m) {
  const uint64_t rows = m.Rows();
  const uint64_t cols = m.Cols();
  out.write(reinterpret_cast<const char*>(&rows), sizeof(rows));
  out.write(reinterpret_cast<const char*>(&cols), sizeof(cols));
  out.write(reinterpret_cast<const char*>(m.Data()),
            static_cast<std::streamsize>(sizeof(float) * m.Size()));
}

Matrix ReadMatrix(std::istream& in) {
  uint64_t rows = 0;
  uint64_t cols = 0;
  in.read(reinterpret_cast<char*>(&rows), sizeof(rows));
  in.read(reinterpret_cast<char*>(&cols), sizeof(cols));
  CG_CHECK_MSG(static_cast<bool>(in), "ReadMatrix: truncated header");
  Matrix m(rows, cols);
  in.read(reinterpret_cast<char*>(m.Data()),
          static_cast<std::streamsize>(sizeof(float) * m.Size()));
  CG_CHECK_MSG(static_cast<bool>(in), "ReadMatrix: truncated payload");
  return m;
}

}  // namespace cloudgen
