#include "src/nn/linear.h"

#include <algorithm>
#include <cmath>

#include "src/util/check.h"
#include "src/util/rng.h"

namespace cloudgen {

Linear::Linear(size_t in_dim, size_t out_dim, Rng& rng)
    : weight_(in_dim, out_dim),
      bias_(1, out_dim),
      grad_weight_(in_dim, out_dim),
      grad_bias_(1, out_dim) {
  const float bound = std::sqrt(6.0f / static_cast<float>(in_dim + out_dim));
  weight_.RandomUniform(rng, bound);
}

void Linear::ForwardInference(const Matrix& x, Matrix* y) const {
  CG_CHECK(y != nullptr);
  CG_CHECK(x.Cols() == weight_.Rows());
  y->EnsureShape(x.Rows(), weight_.Cols());
  Gemm(false, false, 1.0f, x, weight_, 0.0f, y);
  for (size_t r = 0; r < y->Rows(); ++r) {
    float* row = y->Row(r);
    const float* b = bias_.Row(0);
    for (size_t c = 0; c < y->Cols(); ++c) {
      row[c] += b[c];
    }
  }
}

void Linear::ForwardSpan(const float* x, size_t c0, size_t n, float* acc,
                         float* y) const {
  CG_DCHECK(c0 + n <= weight_.Cols());
  const size_t in = weight_.Rows();
  std::fill(acc, acc + n, 0.0f);
  GemvAccumulate(x, in, weight_.Row(0) + c0, weight_.Cols(), n, acc);
  const float* b = bias_.Row(0) + c0;
  for (size_t j = 0; j < n; ++j) {
    // Same epilogue order as ForwardInference: beta=0 store, then bias add.
    y[j] = (0.0f + acc[j]) + b[j];
  }
}

void Linear::Backward(const Matrix& x, const Matrix& dy, Matrix* dx) {
  CG_CHECK(dy.Rows() == x.Rows());
  CG_CHECK(dy.Cols() == weight_.Cols());
  // dW += X^T dY.
  Gemm(true, false, 1.0f, x, dy, 1.0f, &grad_weight_);
  // db += column sums of dY.
  for (size_t r = 0; r < dy.Rows(); ++r) {
    const float* row = dy.Row(r);
    float* gb = grad_bias_.Row(0);
    for (size_t c = 0; c < dy.Cols(); ++c) {
      gb[c] += row[c];
    }
  }
  if (dx != nullptr) {
    dx->EnsureShape(dy.Rows(), weight_.Rows());
    Gemm(false, true, 1.0f, dy, weight_, 0.0f, dx);
  }
}

std::vector<Matrix*> Linear::Params() { return {&weight_, &bias_}; }

std::vector<const Matrix*> Linear::Params() const { return {&weight_, &bias_}; }

std::vector<Matrix*> Linear::Grads() { return {&grad_weight_, &grad_bias_}; }

void Linear::ZeroGrads() {
  grad_weight_.SetZero();
  grad_bias_.SetZero();
}

void Linear::Save(std::ostream& out) const {
  WriteMatrix(out, weight_);
  WriteMatrix(out, bias_);
}

void Linear::Load(std::istream& in) {
  weight_ = ReadMatrix(in);
  bias_ = ReadMatrix(in);
  grad_weight_.Resize(weight_.Rows(), weight_.Cols());
  grad_bias_.Resize(bias_.Rows(), bias_.Cols());
}

}  // namespace cloudgen
