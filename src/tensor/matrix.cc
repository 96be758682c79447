#include "src/tensor/matrix.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
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

// ---------------------------------------------------------------------------
// NN and TN: C(i, j) += sum_p (alpha * op(A)(i, p)) * B(p, j) after
// ApplyBeta. Every output element is one chain: a zeroed accumulator, p
// strictly ascending, acc += (alpha * a) * b, then C(i, j) += acc. Both
// routes below compute exactly that chain, so the result does not depend on
// the row count, the tile shape or which route covers an element.
//
//  * Packed panels. Rows run in panels of kPanelRows, then one panel of
//    kPanelRows / 2 when that many are left. alpha * op(A) is packed p-major
//    into a small panel, so alpha is applied once per element and each
//    multiply reads its A operand as a broadcast straight from memory. The
//    micro-kernel keeps a (panel rows) x kPanelCols accumulator tile in
//    vector registers for the whole k loop. B's last n mod kPanelCols
//    columns are copied into a zero-padded panel and run through the same
//    micro-kernel; only the real columns reach C. The padding's zeros are
//    multiplied like any other operand, into discarded columns, and no
//    operand is ever skipped, so 0 * NaN still yields NaN.
//  * GEMV strips. The 1-3 rows left over, and every row of a product with
//    fewer rows (each one-row generation step, a 3-row training shard),
//    stream B once per row through GemvStrip, the loop GemvAccumulate runs,
//    with no packing.
//
// The tile's shape never changes a bit, so it follows the build's vector
// width: AVX-512's 32 registers hold an 8 x 32 tile (16 accumulators);
// AVX2 and SSE2 have 16 registers, so they take one vector of columns.

#if defined(__AVX512F__)
constexpr size_t kLanes = 16;
constexpr size_t kPanelVecs = 2;
#elif defined(__AVX2__)
constexpr size_t kLanes = 8;
constexpr size_t kPanelVecs = 1;
#else
constexpr size_t kLanes = 4;
constexpr size_t kPanelVecs = 1;
#endif

typedef float VecF __attribute__((vector_size(kLanes * sizeof(float))));

constexpr size_t kPanelRows = 8;                    // Rows of a full panel.
constexpr size_t kPanelCols = kPanelVecs * kLanes;  // Columns of a tile.
// Depth of one packed chunk. Every shape the program runs fits one chunk
// (the deepest is the lifetime input, k 156); a deeper product packs chunk
// by chunk and carries the accumulator tile across them, which continues
// the same chains. The panels live on the stack, so no call allocates.
constexpr size_t kPanelDepth = 256;

// One NN or TN product; op(A)(i, p) is a[i * a_row + p * a_depth].
struct PanelProduct {
  float alpha;
  const float* a;
  size_t a_row;
  size_t a_depth;
  const float* b;  // (k, n) row-major.
  float* c;        // (m, n) row-major.
  size_t m;
  size_t n;
  size_t k;
};

// Packed panels.

// panel[p * rows + r] = alpha * op(A)(i0 + r, p0 + p) for p in [0, depth).
void PackPanel(const PanelProduct& g, size_t i0, size_t rows, size_t p0, size_t depth,
               float* panel) {
  for (size_t p = 0; p < depth; ++p) {
    const float* src = g.a + i0 * g.a_row + (p0 + p) * g.a_depth;
    for (size_t r = 0; r < rows; ++r) {
      panel[p * rows + r] = g.alpha * src[r * g.a_row];
    }
  }
}

// B's columns [j0, n) at depths [p0, p0 + depth), zero-padded to
// kPanelCols columns.
void PackTail(const PanelProduct& g, size_t j0, size_t p0, size_t depth, float* tail) {
  const size_t width = g.n - j0;
  for (size_t p = 0; p < depth; ++p) {
    const float* src = g.b + (p0 + p) * g.n + j0;
    float* dst = tail + p * kPanelCols;
    std::copy(src, src + width, dst);
    std::fill(dst + width, dst + kPanelCols, 0.0f);
  }
}

// The micro-kernel: acc[r][v] lane l += panel(p, r) * b(p, v * kLanes + l)
// for p in [0, depth), with b's rows ldb floats apart.
template <size_t kRows>
__attribute__((always_inline)) inline void PanelSteps(const float* panel, const float* b,
                                                      size_t ldb, size_t depth,
                                                      VecF (&acc)[kRows][kPanelVecs]) {
  for (size_t p = 0; p < depth; ++p) {
    VecF bv[kPanelVecs];
    for (size_t v = 0; v < kPanelVecs; ++v) {
      std::memcpy(&bv[v], b + p * ldb + v * kLanes, sizeof(VecF));
    }
    const float* ap = panel + p * kRows;
    for (size_t r = 0; r < kRows; ++r) {
      for (size_t v = 0; v < kPanelVecs; ++v) {
        acc[r][v] += ap[r] * bv[v];
      }
    }
  }
}

// C += acc for the tile at c, `width` real columns of kPanelCols.
template <size_t kRows>
__attribute__((always_inline)) inline void AddTile(const VecF (&acc)[kRows][kPanelVecs],
                                                   size_t width, float* c, size_t ldc) {
#pragma GCC unroll 8
  for (size_t r = 0; r < kRows; ++r) {
    float* c_row = c + r * ldc;
    if (width == kPanelCols) {
      for (size_t v = 0; v < kPanelVecs; ++v) {
        VecF cv;
        std::memcpy(&cv, c_row + v * kLanes, sizeof(cv));
        cv += acc[r][v];
        std::memcpy(c_row + v * kLanes, &cv, sizeof(cv));
      }
    } else {
      float out[kPanelCols];
      for (size_t v = 0; v < kPanelVecs; ++v) {
        const VecF lanes = acc[r][v];
        std::memcpy(out + v * kLanes, &lanes, sizeof(lanes));
      }
      for (size_t jj = 0; jj < width; ++jj) {
        c_row[jj] += out[jj];
      }
    }
  }
}

// Rows [i0, i0 + kRows) through the packed route. The caller has packed
// B's column tail into `tail` when the product has one chunk.
template <size_t kRows>
void RunPanel(const PanelProduct& g, size_t i0, float* panel, float* tail) {
  const bool one_chunk = g.k <= kPanelDepth;
  if (one_chunk) {
    PackPanel(g, i0, kRows, 0, g.k, panel);
  }
  for (size_t j0 = 0; j0 < g.n; j0 += kPanelCols) {
    const size_t width = std::min(kPanelCols, g.n - j0);
    const bool full = width == kPanelCols;
    VecF acc[kRows][kPanelVecs] = {};
    if (one_chunk) {
      PanelSteps<kRows>(panel, full ? g.b + j0 : tail, full ? g.n : kPanelCols, g.k, acc);
    } else {
      for (size_t p0 = 0; p0 < g.k; p0 += kPanelDepth) {
        const size_t depth = std::min(kPanelDepth, g.k - p0);
        PackPanel(g, i0, kRows, p0, depth, panel);
        if (!full) {
          PackTail(g, j0, p0, depth, tail);
        }
        PanelSteps<kRows>(panel, full ? g.b + p0 * g.n + j0 : tail,
                          full ? g.n : kPanelCols, depth, acc);
      }
    }
    AddTile<kRows>(acc, width, g.c + i0 * g.n + j0, g.n);
  }
}

// Rows [0, rows) in panels; `rows` is a multiple of kPanelRows / 2. Out of
// line, so the panels' stack frame is set up only for products that use it.
__attribute__((noinline)) void PanelRows(const PanelProduct& g, size_t rows) {
  alignas(64) float panel[kPanelDepth * kPanelRows];
  alignas(64) float tail[kPanelDepth * kPanelCols];
  const size_t tail_j0 = g.n - g.n % kPanelCols;
  if (g.k <= kPanelDepth && tail_j0 < g.n) {
    PackTail(g, tail_j0, 0, g.k, tail);
  }
  size_t i0 = 0;
  for (; i0 + kPanelRows <= rows; i0 += kPanelRows) {
    RunPanel<kPanelRows>(g, i0, panel, tail);
  }
  if (i0 < rows) {
    RunPanel<kPanelRows / 2>(g, i0, panel, tail);
  }
}

// GEMV strips: one row at a time, B streamed once per row.

constexpr size_t kGemvStripCols = 512;  // Accumulator strip held on the stack.

// One register-resident accumulator chunk: racc[jj] starts from the caller's
// acc value and accumulates (alpha * x[p]) * w(p, j0 + jj) for p ascending —
// exactly the chain a p-outer loop over the caller's buffer would compute,
// but with the chunk held in registers across the whole k loop so the
// accumulator never round-trips through memory per p. `width` is
// kGemvChunkCols on the main path (constant trip count → the compiler keeps
// racc in vector registers) and the remainder on the tail.
// Register chunk width: enough independent accumulator registers to hide
// FMA latency (each output element is one serial chain; parallelism comes
// only from neighboring elements). The chunk width never affects results —
// chains are per-element.
constexpr size_t kGemvChunkCols = 64;

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
// Kept out of line: inlined into its caller's strip loop, g++ 12 spilled
// GemvChunkFull's 64-float chunk to the stack and loaded and stored it on
// every p step; out of line the chunk stays in vector registers for the whole
// k loop, and Gemm's one-row NN product runs the same compiled loop as
// GemvAccumulate (g++ may still clone it per constant argument, such as a
// unit stride). Every element's chain is the same either way.
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

// Rows [i0, m) one at a time: a zeroed strip, GemvStrip, then C += strip.
// A unit stride (NN) is passed as a constant, as GemvAccumulate passes it.
void StripRows(const PanelProduct& g, size_t i0) {
  float acc[kGemvStripCols];
  for (size_t i = i0; i < g.m; ++i) {
    const float* x = g.a + i * g.a_row;
    float* c_row = g.c + i * g.n;
    for (size_t j0 = 0; j0 < g.n; j0 += kGemvStripCols) {
      const size_t cols = std::min(kGemvStripCols, g.n - j0);
      std::fill(acc, acc + cols, 0.0f);
      if (g.a_depth == 1) {
        GemvStrip(g.alpha, x, 1, g.k, g.b + j0, g.n, cols, acc);
      } else {
        GemvStrip(g.alpha, x, g.a_depth, g.k, g.b + j0, g.n, cols, acc);
      }
      for (size_t jj = 0; jj < cols; ++jj) {
        c_row[j0 + jj] += acc[jj];
      }
    }
  }
}

// The accumulate phase of an NN or TN product.
void PanelGemm(bool trans_a, float alpha, const Matrix& a, const Matrix& b, Matrix* c) {
  const size_t m = c->Rows();
  const size_t k = b.Rows();
  const PanelProduct g{.alpha = alpha,
                       .a = a.Data(),
                       .a_row = trans_a ? 1 : k,
                       .a_depth = trans_a ? m : 1,
                       .b = b.Data(),
                       .c = c->Data(),
                       .m = m,
                       .n = c->Cols(),
                       .k = k};
  const size_t panel_rows = g.m - g.m % (kPanelRows / 2);
  if (panel_rows > 0) {
    PanelRows(g, panel_rows);
  }
  StripRows(g, panel_rows);
}

void ApplyBeta(float beta, Matrix* c) {
  if (beta == 0.0f) {
    c->SetZero();
  } else if (beta != 1.0f) {
    c->Scale(beta);
  }
}

// Validates the operand shapes.
void CheckGemmShapes(bool trans_a, bool trans_b, const Matrix& a, const Matrix& b,
                     Matrix* c) {
  CG_CHECK(c != nullptr);
  const size_t m = trans_a ? a.Cols() : a.Rows();
  const size_t ka = trans_a ? a.Rows() : a.Cols();
  const size_t kb = trans_b ? b.Cols() : b.Rows();
  const size_t n = trans_b ? b.Rows() : b.Cols();
  CG_CHECK_MSG(ka == kb, "Gemm inner-dimension mismatch");
  CG_CHECK_MSG(c->Rows() == m && c->Cols() == n, "Gemm output shape mismatch");
}

}  // namespace

void Gemm(bool trans_a, bool trans_b, float alpha, const Matrix& a, const Matrix& b,
          float beta, Matrix* c) {
  CheckGemmShapes(trans_a, trans_b, a, b, c);
  ApplyBeta(beta, c);
  if (!trans_b) {
    PanelGemm(trans_a, alpha, a, b, c);
  } else if (!trans_a) {
    BlockedNT(alpha, a, b, c);
  } else {
    // Rare path: materialize A^T and reuse the NT kernel.
    BlockedNT(alpha, a.Transposed(), b, c);
  }
}

void GemvAccumulate(const float* x, size_t k, const float* w, size_t ldw, size_t n,
                    float* acc) {
  GemvStrip(1.0f, x, 1, k, w, ldw, n, acc);
}

void GemmReference(bool trans_a, bool trans_b, float alpha, const Matrix& a,
                   const Matrix& b, float beta, Matrix* c) {
  CheckGemmShapes(trans_a, trans_b, a, b, c);
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
