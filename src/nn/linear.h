// Fully-connected layer: Y = X * W + b, with X of shape (batch, in) and W of
// shape (in, out). Used as the output head of the flavor and lifetime LSTMs.
#ifndef SRC_NN_LINEAR_H_
#define SRC_NN_LINEAR_H_

#include <cstddef>
#include <iosfwd>
#include <vector>

#include "src/tensor/matrix.h"

namespace cloudgen {

class Rng;

class Linear {
 public:
  Linear() = default;
  // Glorot-uniform initialization.
  Linear(size_t in_dim, size_t out_dim, Rng& rng);

  size_t InDim() const { return weight_.Rows(); }
  size_t OutDim() const { return weight_.Cols(); }

  // Forward pass; caches X for the subsequent Backward call.
  void Forward(const Matrix& x, Matrix* y);

  // Inference-only forward (no caching).
  void ForwardInference(const Matrix& x, Matrix* y) const;

  // Zero-allocation column-span inference for one input row:
  // y[j] = x . W[:, c0+j] + b[c0+j] for j in [0, n), reading weight_/bias_
  // in place through the strided GEMV, with `acc` as caller scratch of n
  // floats. Bitwise-identical to columns [c0, c0+n) of ForwardInference on
  // the same row — the per-element accumulation chains are column-position
  // independent and the bias is added in the same epilogue order. The full
  // span (0, OutDim()) is the dense head's batch-1 step; a cluster's slice
  // lets the class-factored softmax evaluate a huge output layer in O(n)
  // instead of O(OutDim()).
  void ForwardSpan(const float* x, size_t c0, size_t n, float* acc, float* y) const;

  // Given dL/dY, accumulates parameter gradients and writes dL/dX (optional:
  // pass nullptr when the input gradient is not needed).
  void Backward(const Matrix& dy, Matrix* dx);

  // Parameter access for the optimizer. Order: weight, bias.
  std::vector<Matrix*> Params();
  std::vector<const Matrix*> Params() const;
  std::vector<Matrix*> Grads();
  void ZeroGrads();

  void Save(std::ostream& out) const;
  void Load(std::istream& in);

 private:
  Matrix weight_;       // (in, out)
  Matrix bias_;         // (1, out)
  Matrix grad_weight_;  // (in, out)
  Matrix grad_bias_;    // (1, out)
  Matrix cached_x_;     // (batch, in) from the last Forward.
};

}  // namespace cloudgen

#endif  // SRC_NN_LINEAR_H_
