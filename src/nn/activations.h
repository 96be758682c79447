// Element-wise activations and the max-shifted exponentials behind every
// sampler softmax.
#ifndef SRC_NN_ACTIVATIONS_H_
#define SRC_NN_ACTIVATIONS_H_

#include <cstddef>
#include <vector>

#include "src/tensor/matrix.h"

namespace cloudgen {

float SigmoidScalar(float x);

// In-place element-wise sigmoid / tanh.
void SigmoidInPlace(Matrix* m);
void TanhInPlace(Matrix* m);

// In-place tanh of v[0, n), bitwise equal to std::tanh (glibc's tanhf) on
// every float input, NaN payloads included. glibc's float tanhf is fdlibm's
// tanhf over fdlibm's expm1f; this is a branch-free transcription of both,
// written once with GCC vector extensions at the build's native width (16
// lanes with AVX-512, 8 with AVX2, 4 with SSE2): every lane computes fdlibm's
// operations in fdlibm's order and selects the branch fdlibm would take.
// Equality needs the same rounding at every step, so activations.cc is built
// with -ffp-contract=off, as glibc builds libm: with contraction the native
// build fuses expressions such as x - t*ln2_hi into FMAs and the results
// move by an ulp. The sigmoids above keep calling libm expf.
void TanhInPlace(float* v, size_t n);

// Max-shifted exponentials of a logits row, the shared front half of every
// sampler softmax: out[c] = exp(double(row[c] - max(row))) for c in [0, n),
// with the row maximum taken by std::max in ascending order and the float
// subtraction done before widening — exactly the operation order the samplers
// have always used, so their output distributions are bit-identical. Returns
// the ascending-order sum of out; callers divide by it when they need
// normalized probabilities (the categorical sampler consumes unnormalized
// weights directly). `out` is resized to n; its capacity is reused across
// calls, so a caller-owned buffer makes this allocation-free in steady state.
//
// Degenerate rows (all logits -inf, or any NaN/+inf present) cannot produce
// a distribution; instead of silently emitting NaN weights, `out` is filled
// with zeros and 0.0 is returned. A zero sum is therefore the corruption
// signal: guard policies see it through ValidWeights, and the categorical
// samplers' degenerate-weights fallback keeps even unguarded runs in range.
// Finite rows are unaffected bit for bit (their sums are always in (0, n]).
double MaxShiftedExp(const float* row, size_t n, std::vector<double>* out);

}  // namespace cloudgen

#endif  // SRC_NN_ACTIVATIONS_H_
