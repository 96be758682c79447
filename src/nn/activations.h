// Element-wise activations and the max-shifted exponentials behind every
// sampler softmax.
#ifndef SRC_NN_ACTIVATIONS_H_
#define SRC_NN_ACTIVATIONS_H_

#include <cstddef>
#include <vector>

#include "src/tensor/matrix.h"

namespace cloudgen {

// The sigmoid's definition: 1 / (1 + expf(-x)) for x >= 0, else
// expf(x) / (1 + expf(x)), with libm's expf. The vector kernel below
// reproduces it; the BCE loss and the discriminator call it directly.
float SigmoidScalar(float x);

// In-place element-wise sigmoid / tanh.
void SigmoidInPlace(Matrix* m);
void TanhInPlace(Matrix* m);

// In-place sigmoid of v[0, n): SigmoidScalar's operations, with glibc 2.36's
// expf transcribed branch-free (double-precision lanes, the same 32-entry
// table, cubic and special cases). glibc runs an expf compiled with FMA on
// CPUs that have FMA and one compiled without it elsewhere, and the two
// differ on two inputs; the kernel fuses exactly where the build targets
// FMA. So a build with FMA (native on FMA hosts, -mavx2 -mfma) equals
// SigmoidScalar on every input, NaN payloads included, and a build without
// it (portable SSE2) equals glibc's non-FMA expf: run on an FMA host, it
// differs from SigmoidScalar at x = -0x1.f8cbb2p+5 alone, by one ulp.
void SigmoidInPlace(float* v, size_t n);

// In-place tanh of v[0, n), bitwise equal to std::tanh (glibc's tanhf) on
// every float input, NaN payloads included. glibc's float tanhf is fdlibm's
// tanhf over fdlibm's expm1f; this is a branch-free transcription of both.
//
// Both kernels are written once with GCC vector extensions at the build's
// native width: the tanh runs a register of floats (16 lanes with AVX-512, 8
// with AVX2, 4 with SSE2), the sigmoid a register of doubles (8, 4, 2).
// Every lane computes libm's operations in libm's order and selects the
// branch libm would take. Equality needs the same rounding at every step,
// so activations.cc is built with -ffp-contract=off, as glibc builds
// fdlibm's tanhf: with contraction the native build fuses expressions such
// as x - t*ln2_hi into FMAs and the results move by an ulp. The sigmoid's
// fused products are written as explicit FMA intrinsics.
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
