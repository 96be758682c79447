// Dense row-major float matrix — the numeric workhorse under the neural
// network library. Single precision is used throughout the NN stack (as in
// the paper's PyTorch implementation); the GLM library uses double-precision
// linear algebra of its own because IRLS is more sensitive to conditioning.
#ifndef SRC_TENSOR_MATRIX_H_
#define SRC_TENSOR_MATRIX_H_

#include <cstddef>
#include <iosfwd>
#include <new>
#include <vector>

namespace cloudgen {

class Rng;

// Allocates on 64-byte boundaries. malloc aligns only to 16 bytes (and hands
// out large blocks at a page + 16), so a 1 KiB weight row would straddle two
// cache lines on every 64-byte vector load.
template <typename T>
struct CacheLineAllocator {
  using value_type = T;
  static constexpr std::align_val_t kAlignment{64};

  CacheLineAllocator() = default;
  template <typename U>
  CacheLineAllocator(const CacheLineAllocator<U>&) {}

  T* allocate(size_t n) { return static_cast<T*>(::operator new(n * sizeof(T), kAlignment)); }
  void deallocate(T* p, size_t n) { ::operator delete(p, n * sizeof(T), kAlignment); }
  friend bool operator==(const CacheLineAllocator&, const CacheLineAllocator&) { return true; }
};

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
  // Resizes only when the shape differs, and keeps the contents otherwise:
  // for outputs that are overwritten anyway, such as a beta-0 Gemm's.
  void EnsureShape(size_t rows, size_t cols) {
    if (rows_ != rows || cols_ != cols) {
      Resize(rows, cols);
    }
  }

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
  std::vector<float, CacheLineAllocator<float>> data_;
};

// C = alpha * op(A) * op(B) + beta * C, where op is optional transposition.
// Shapes are validated with CG_CHECK. Runs on the calling thread.
//
// NN and TN products compute every output element as one fixed chain: a
// zeroed accumulator, p ascending, acc += (alpha * a) * b, then C += acc
// after beta is applied. So each row of C is bitwise the same whatever the
// row count, and training's forward, a batched generation step and a
// one-row step agree bit for bit. Rows run through one packed-panel register
// micro-kernel (alpha * op(A) packed p-major, an accumulator tile held in
// vector registers for the whole k loop), and the 1-3 rows left over, or
// every row of a product with fewer rows, through the GEMV strip that
// GemvAccumulate also runs. NT and TT products (TT on a materialized A^T)
// compute each element as an 8-partial dot-product chain.
void Gemm(bool trans_a, bool trans_b, float alpha, const Matrix& a, const Matrix& b,
          float beta, Matrix* c);

// acc[j] += sum_p x[p] * w(p, j) for j in [0, n), with p strictly ascending —
// one accumulation chain per element, the same chain Gemm's NN product
// computes for a one-row A with alpha = 1. `w` points at the first column of a
// row-major span with row stride `ldw` (>= n); `acc` is accumulated into, not
// zeroed. Gemm's leftover NN rows run the same loop; callers (the factored
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
// threaded and unblocked. Kept as the correctness oracle for Gemm's kernels
// (tests/benchmarks); same semantics as Gemm, different float summation
// order.
void GemmReference(bool trans_a, bool trans_b, float alpha, const Matrix& a,
                   const Matrix& b, float beta, Matrix* c);

// Binary serialization (shape + raw floats).
void WriteMatrix(std::ostream& out, const Matrix& m);
Matrix ReadMatrix(std::istream& in);

}  // namespace cloudgen

#endif  // SRC_TENSOR_MATRIX_H_
