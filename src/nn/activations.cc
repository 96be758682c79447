#include "src/nn/activations.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "src/util/check.h"

namespace cloudgen {
namespace {

#if defined(__AVX512F__)
constexpr size_t kLanes = 16;
#elif defined(__AVX2__)
constexpr size_t kLanes = 8;
#else
constexpr size_t kLanes = 4;
#endif

typedef float VecF __attribute__((vector_size(kLanes * sizeof(float))));
typedef int32_t VecI __attribute__((vector_size(kLanes * sizeof(int32_t))));

VecF Bits(VecI v) { return std::bit_cast<VecF>(v); }
VecI Bits(VecF v) { return std::bit_cast<VecI>(v); }
VecF Splat(float f) { return VecF{} + f; }
VecI Splat(int32_t i) { return VecI{} + i; }

// fdlibm's expm1f on the arguments tanhf passes it, -2 < x < 44. There the
// reduction count k is 0, -1, -2, -3 or 3..63, so expm1f's k == 1 case, its
// overflow and -1 saturation and its non-finite inputs are never reached and
// are left out. Every other operation is fdlibm's, in fdlibm's order.
VecF Expm1Lanes(VecF x) {
  const float ln2_hi = 6.9313812256e-01f;  // 0x3f317180
  const float ln2_lo = 9.0580006145e-06f;  // 0x3717f7d1
  const float invln2 = 1.4426950216e+00f;  // 0x3fb8aa3b
  const float q1 = -3.3333335072e-02f;     // 0xbd088889
  const float q2 = 1.5873016091e-03f;      // 0x3ad00d01
  const float q3 = -7.9365076090e-05f;     // 0xb8a670cd
  const float q4 = 4.0082177293e-06f;      // 0x36867e54
  const float q5 = -2.0109921195e-07f;     // 0xb457edbb

  const VecI hx = Bits(x) & 0x7fffffff;
  const VecI negative = Bits(x) < 0;
  // Argument reduction: k = 0 up to ln2/2; +-1 below 1.5 ln2, where fdlibm's
  // x -+ ln2_hi equals x - k*ln2_hi exactly; else x/ln2 + +-0.5 truncated.
  const VecI k_far =
      __builtin_convertvector(invln2 * x + (negative ? Splat(-0.5f) : Splat(0.5f)), VecI);
  const VecI k_one = negative ? Splat(-1) : Splat(1);
  const VecI k = hx > 0x3f851591 ? k_far : (hx > 0x3eb17218 ? k_one : VecI{});
  const VecF kf = __builtin_convertvector(k, VecF);
  const VecF hi = x - kf * ln2_hi;
  const VecF lo = kf * ln2_lo;
  const VecF r = hi - lo;
  const VecF c = (hi - r) - lo;

  const VecF hfx = 0.5f * r;
  const VecF hxs = r * hfx;
  const VecF r1 = 1.0f + hxs * (q1 + hxs * (q2 + hxs * (q3 + hxs * (q4 + hxs * q5))));
  const VecF t = 3.0f - r1 * hfx;
  VecF e = hxs * ((r1 - t) / (6.0f - r * t));
  const VecF y_k0 = r - (r * e - hxs);
  e = (r * (e - c) - c) - hxs;
  const VecF y_km1 = 0.5f * (r - e) - 0.5f;
  // 2^-k, and 1 - 2^-k built from it: SSE2 has no per-lane variable shift
  // for fdlibm's 0x3f800000 - (0x1000000 >> k).
  const VecF two_mk = Bits((0x7f - k) << 23);
  const VecI far = (k <= -2) | (k > 56);
  const VecF y_near = (far ? Splat(1.0f) : 1.0f - two_mk) - (e - r);
  const VecF y_wide = (r - (e + two_mk)) + 1.0f;
  // fdlibm scales by 2^k by adding k to the exponent field.
  VecF y = Bits(Bits((far | (k < 23)) ? y_near : y_wide) + (k << 23));
  y = far ? y - 1.0f : y;
  y = k == -1 ? y_km1 : y;
  y = k == 0 ? y_k0 : y;
  // |x| < 2^-25 returns x (fdlibm's x - ((huge + x) - huge)).
  return hx < 0x33000000 ? x : y;
}

// fdlibm's tanhf, lane by lane.
VecF TanhLanes(VecF x) {
  const float tiny = 1.0e-30f;
  const VecI jx = Bits(x);
  const VecI ix = jx & 0x7fffffff;
  // Lanes with 2^-55 <= |x| < 22 go through expm1f. The rest run it on a
  // placeholder, which keeps every conversion in range, and are replaced
  // below.
  const VecI mid = (ix >= 0x24000000) & (ix < 0x41b00000);
  const VecI non_finite = ix >= 0x7f800000;
  const VecI big = ix >= 0x3f800000;
  const VecF ax = mid ? Bits(ix) : Splat(1.0f);
  const VecF t = Expm1Lanes(big ? ax + ax : ax * -2.0f);
  // One division serves |x| >= 1 (z = 1 - 2/(t+2)), |x| < 1 (z = -t/(t+2))
  // and the non-finite lanes' 1/x.
  const VecF q = (non_finite ? Splat(1.0f) : (big ? Splat(2.0f) : -t)) /
                 (non_finite ? x : t + 2.0f);
  VecF z = mid ? (big ? 1.0f - q : q) : Splat(1.0f - tiny);
  z = Bits(Bits(z) ^ (jx ^ ix));  // Negative x: -z.
  z = ix < 0x24000000 ? x * (1.0f + x) : z;
  return non_finite ? (jx < 0 ? q - 1.0f : q + 1.0f) : z;
}

}  // namespace

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
  TanhInPlace(m->Data(), m->Size());
}

void TanhInPlace(float* v, size_t n) {
  size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    VecF x{};
    std::memcpy(&x, v + i, sizeof(x));
    x = TanhLanes(x);
    std::memcpy(v + i, &x, sizeof(x));
  }
  if (i < n) {
    // The tail runs as one zero-padded vector.
    VecF x{};
    std::memcpy(&x, v + i, (n - i) * sizeof(float));
    x = TanhLanes(x);
    std::memcpy(v + i, &x, (n - i) * sizeof(float));
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
