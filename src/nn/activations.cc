#include "src/nn/activations.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>

#if defined(__FMA__) || defined(__AVX2__)
#include <immintrin.h>
#endif

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
// One register of doubles, and the half of a VecF it widens.
constexpr size_t kDoubleLanes = kLanes / 2;
typedef float HalfF __attribute__((vector_size(kDoubleLanes * sizeof(float))));
typedef double VecD __attribute__((vector_size(kDoubleLanes * sizeof(double))));
typedef uint64_t VecU __attribute__((vector_size(kDoubleLanes * sizeof(uint64_t))));

VecF Bits(VecI v) { return std::bit_cast<VecF>(v); }
VecI Bits(VecF v) { return std::bit_cast<VecI>(v); }
VecD Bits(VecU v) { return std::bit_cast<VecD>(v); }
VecU Bits(VecD v) { return std::bit_cast<VecU>(v); }
VecF Splat(float f) { return VecF{} + f; }
VecI Splat(int32_t i) { return VecI{} + i; }
VecD Splat(double d) { return VecD{} + d; }

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

// glibc 2.36's expf (sysdeps/ieee754/flt-32/e_expf.c) reduces x*32/ln2 to
// k + r, takes 2^(k/32) from this table and 2^(r/32) from a cubic, all in
// double precision. Entry i is bits(2^(i/32)) - (i << 47), so adding k << 47
// to entry k % 32 scales it by 2^(k div 32). The table and the constants are
// libm's own, read from its __exp2f_data.
constexpr uint64_t kExp2Table[32] = {
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f, 0x3fef9301d0125b51,
    0x3fef72b83c7d517b, 0x3fef54873168b9aa, 0x3fef387a6e756238, 0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715, 0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429, 0x3feea47eb03a5585,
    0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74, 0x3feea11473eb0187, 0x3feea589994cce13,
    0x3feeace5422aa0db, 0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c, 0x3fef3720dcef9069,
    0x3fef5818dcfba487, 0x3fef7c97337b9b5f, 0x3fefa4afa2a490da, 0x3fefd0765b6e4540};

// a*b + c as glibc compiles expf for this build's CPU: glibc picks an expf
// built with FMA contraction on CPUs with FMA, and one without it elsewhere.
// Only the two products of the argument reduction need the fused form; the
// cubic rounds the same either way on every input.
VecD MulAdd(VecD a, VecD b, VecD c) {
#if defined(__FMA__) && defined(__AVX512F__)
  return _mm512_fmadd_pd(a, b, c);
#elif defined(__FMA__) && defined(__AVX2__)
  return _mm256_fmadd_pd(a, b, c);
#elif defined(__FMA__)
  return _mm_fmadd_pd(a, b, c);
#else
  return a * b + c;
#endif
}

// The table entries for indices in [0, 32).
VecU Exp2TableLookup(VecU i) {
#if defined(__AVX512F__)
  // The masked form: GCC 12's unmasked gather reads an undefined source.
  return std::bit_cast<VecU>(_mm512_mask_i64gather_epi64(
      _mm512_setzero_si512(), 0xff, std::bit_cast<__m512i>(i), kExp2Table, 8));
#elif defined(__AVX2__)
  return std::bit_cast<VecU>(_mm256_i64gather_epi64(
      reinterpret_cast<const long long*>(kExp2Table), std::bit_cast<__m256i>(i), 8));
#else
  VecU out{};
  for (size_t l = 0; l < kDoubleLanes; ++l) {
    out[l] = kExp2Table[i[l]];
  }
  return out;
#endif
}

// glibc's expf, lane by lane, on the arguments the sigmoid passes it: t <= 0
// or NaN, so its overflow branch is never reached and is left out.
HalfF ExpfLanes(HalfF t) {
  const double inv_ln2_n = 0x1.71547652b82fep+5;  // 32/ln2
  const double shift = 0x1.8p+52;
  const double c0 = 0x1.c6af84b912394p-20;
  const double c1 = 0x1.ebfce50fac4f3p-13;
  const double c2 = 0x1.62e42ff0c52d6p-6;
  const VecD x = __builtin_convertvector(t, VecD);
  // Adding the shift rounds x*32/ln2 to the integer k, which lands in the
  // low bits of kd; r = x*32/ln2 - k.
  const VecD kd = MulAdd(Splat(inv_ln2_n), x, Splat(shift));
  const VecU ki = Bits(kd);
  const VecD r = MulAdd(Splat(inv_ln2_n), x, -(kd - shift));
  const VecD s = Bits(Exp2TableLookup(ki % 32) + (ki << 47));
  const VecD y = ((c0 * r + c1) * (r * r) + (c2 * r + 1.0)) * s;
  HalfF e = __builtin_convertvector(y, HalfF);
  // Below log(2^-150), -inf included, expf returns +0; NaN returns t + t.
  e = t < -0x1.9fe368p6f ? HalfF{} : e;
  return t != t ? t + t : e;
}

// SigmoidScalar, lane by lane: expf of -|x| (NaN as it is), then the same
// division. It runs at the width of one register of doubles.
HalfF SigmoidLanes(HalfF x) {
  const auto nonnegative = x >= 0.0f;
  const HalfF e = ExpfLanes(nonnegative ? -x : x);
  return (nonnegative ? HalfF{} + 1.0f : e) / (1.0f + e);
}

// Applies `lanes` to v[0, n) a vector at a time; the tail runs as one
// zero-padded vector.
template <typename V, V (*Lanes)(V)>
void MapInPlace(float* v, size_t n) {
  constexpr size_t kWidth = sizeof(V) / sizeof(float);
  size_t i = 0;
  for (; i + kWidth <= n; i += kWidth) {
    V x{};
    std::memcpy(&x, v + i, sizeof(x));
    x = Lanes(x);
    std::memcpy(v + i, &x, sizeof(x));
  }
  if (i < n) {
    V x{};
    std::memcpy(&x, v + i, (n - i) * sizeof(float));
    x = Lanes(x);
    std::memcpy(v + i, &x, (n - i) * sizeof(float));
  }
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
  SigmoidInPlace(m->Data(), m->Size());
}

void TanhInPlace(Matrix* m) {
  CG_CHECK(m != nullptr);
  TanhInPlace(m->Data(), m->Size());
}

void SigmoidInPlace(float* v, size_t n) { MapInPlace<HalfF, SigmoidLanes>(v, n); }

void TanhInPlace(float* v, size_t n) { MapInPlace<VecF, TanhLanes>(v, n); }

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
