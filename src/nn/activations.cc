#include "src/nn/activations.h"

#include <algorithm>
#include <cmath>

#include "src/util/check.h"

namespace cloudgen {

float SigmoidScalar(float x) {
  // Stable in both tails.
  if (x >= 0.0f) {
    const float z = std::exp(-x);
    return 1.0f / (1.0f + z);
  }
  const float z = std::exp(x);
  return z / (1.0f + z);
}

void SigmoidInPlace(Matrix* m) {
  CG_CHECK(m != nullptr);
  float* data = m->Data();
  for (size_t i = 0; i < m->Size(); ++i) {
    data[i] = SigmoidScalar(data[i]);
  }
}

void TanhInPlace(Matrix* m) {
  CG_CHECK(m != nullptr);
  float* data = m->Data();
  for (size_t i = 0; i < m->Size(); ++i) {
    data[i] = std::tanh(data[i]);
  }
}

double MaxShiftedExp(const float* row, size_t n, std::vector<double>* out) {
  CG_CHECK(out != nullptr);
  CG_CHECK(n > 0);
  out->resize(n);
  float max_v = row[0];
  for (size_t c = 1; c < n; ++c) {
    max_v = std::max(max_v, row[c]);
  }
  if (!std::isfinite(max_v)) {
    // Every logit is -inf, or a NaN/+inf won the max: row[c] - max_v is NaN
    // for at least the maximal element, so no valid distribution exists.
    // Return all-zero weights and a zero sum — the one state every consumer
    // already treats as degenerate (ValidWeights rejects it for the guard
    // path; Rng::Categorical's fallback keeps unguarded draws in range) —
    // instead of a buffer of NaNs that samples index 0 forever.
    std::fill(out->begin(), out->end(), 0.0);
    return 0.0;
  }
  double sum = 0.0;
  for (size_t c = 0; c < n; ++c) {
    (*out)[c] = std::exp(static_cast<double>(row[c] - max_v));
    sum += (*out)[c];
  }
  if (!std::isfinite(sum)) {
    // A NaN logit below a finite max slipped NaN into the weights. Every
    // term is exp(x) with x <= 0, so a finite row always sums to (0, n] and
    // never reaches here; only corrupt rows pay the zero-fill.
    std::fill(out->begin(), out->end(), 0.0);
    return 0.0;
  }
  return sum;
}

}  // namespace cloudgen
