// Dense row-major float matrix — the numeric workhorse under the neural
// network library. Single precision is used throughout the NN stack (as in
// the paper's PyTorch implementation); the GLM library uses double-precision
// linear algebra of its own because IRLS is more sensitive to conditioning.
#ifndef SRC_TENSOR_MATRIX_H_
#define SRC_TENSOR_MATRIX_H_

#include <cstddef>
#include <iosfwd>
#include <vector>

namespace cloudgen {

class Rng;

class Matrix {
 public:
  Matrix() = default;
  // Zero-initialized rows x cols matrix.
  Matrix(size_t rows, size_t cols);
  Matrix(size_t rows, size_t cols, float fill);

  size_t Rows() const { return rows_; }
  size_t Cols() const { return cols_; }
  size_t Size() const { return data_.size(); }
  bool Empty() const { return data_.empty(); }

  float* Data() { return data_.data(); }
  const float* Data() const { return data_.data(); }

  float& At(size_t r, size_t c);
  float At(size_t r, size_t c) const;
  // Unchecked access for hot loops.
  float& operator()(size_t r, size_t c) { return data_[r * cols_ + c]; }
  float operator()(size_t r, size_t c) const { return data_[r * cols_ + c]; }

  float* Row(size_t r) { return data_.data() + r * cols_; }
  const float* Row(size_t r) const { return data_.data() + r * cols_; }

  void Fill(float value);
  void SetZero() { Fill(0.0f); }

  // Resizes, discarding contents (zero-filled).
  void Resize(size_t rows, size_t cols);

  // In-place scaling: *this *= s.
  void Scale(float s);
  // In-place accumulate: *this += other (same shape).
  void Add(const Matrix& other);
  // In-place axpy: *this += alpha * other (same shape).
  void Axpy(float alpha, const Matrix& other);

  // Sum of squared elements.
  double SquaredNorm() const;

  // Fills with Uniform(-bound, bound) — used for NN initialization.
  void RandomUniform(Rng& rng, float bound);

  Matrix Transposed() const;

  bool SameShape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<float> data_;
};

// C = alpha * op(A) * op(B) + beta * C, where op is optional transposition.
// Shapes are validated with CG_CHECK.
//
// Uses register-tiled, stride-1-vectorizable blocked kernels, sharded across
// the global thread pool for large problems. Every output element is a
// single fixed-order accumulation chain (k ascending), so the result is
// bitwise-identical for any tile partitioning and any thread count.
//
// When op(A) has fewer rows than the tile height, dispatches to GEMV-shaped
// small-M kernels that stream op(B) exactly once instead of once per column
// tile. Their per-element accumulation chains are identical to the tiled
// kernels', so the dispatch is invisible in the output bits (enforced by
// tests against GemmTiled). The NN and TN small-M kernels run the same
// compiled GEMV loop as GemvAccumulate, so a one-row LSTM step through Gemm
// costs what a hand-written GEMV step would.
void Gemm(bool trans_a, bool trans_b, float alpha, const Matrix& a, const Matrix& b,
          float beta, Matrix* c);

// The tile-only blocked path with no small-M dispatch. This is bitwise- and
// performance-identical to what Gemm did before the small-M kernels existed;
// it is kept callable as the oracle for the small-M bitwise tests and as the
// baseline for the one-row generation step benchmarks.
void GemmTiled(bool trans_a, bool trans_b, float alpha, const Matrix& a, const Matrix& b,
               float beta, Matrix* c);

// acc[j] += sum_p x[p] * w(p, j) for j in [0, n), with p strictly ascending —
// one accumulation chain per element, the same chain the blocked NN kernels
// produce for a one-row A with alpha = 1. `w` points at the first column of a
// row-major span with row stride `ldw` (>= n); `acc` is accumulated into, not
// zeroed. Gemm's small-M NN kernel runs the same loop; callers (the factored
// softmax head's spans, via Linear::ForwardSpan) keep a preallocated `acc`
// and add it to the destination afterwards, reproducing Gemm's
// ApplyBeta-then-accumulate epilogue bit for bit. The per-element
// chains are position-independent (chunking only groups output columns), so a
// column span of a wider matrix is bitwise-identical to the same columns of a
// full-width call — which lets the class-factored softmax evaluate one
// cluster's slice of the output layer without touching the rest.
void GemvAccumulate(const float* x, size_t k, const float* w, size_t ldw, size_t n,
                    float* acc);

// Reference implementation: the original plain i-k-j kernels, single
// threaded and unblocked. Kept as the correctness oracle for the blocked
// kernels (tests/benchmarks); same semantics as Gemm, different float
// summation order.
void GemmReference(bool trans_a, bool trans_b, float alpha, const Matrix& a,
                   const Matrix& b, float beta, Matrix* c);

// Binary serialization (shape + raw floats).
void WriteMatrix(std::ostream& out, const Matrix& m);
Matrix ReadMatrix(std::istream& in);

}  // namespace cloudgen

#endif  // SRC_TENSOR_MATRIX_H_
