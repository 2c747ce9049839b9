#include "kde/kernel_backend.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "parallel/device.h"

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#define FKDE_KB_X86 1
#endif

namespace fkde {
namespace kb {

namespace {

// ---------------------------------------------------------------------------
// Scalar backend: the seed's per-point loops with the per-(query, dim)
// reciprocals hoisted out of the point loop, reading the dim-major
// strips. Bitwise-identical to the pre-backend engine (the hoisted
// reciprocal is computed by the same expression the unhoisted kernel
// evaluated per point), and the fallback of every simd path the CPU or
// the precision cannot vectorize.

void ScalarContribution(const ShardKernelView& v, const double* qb,
                        double* contrib, std::size_t begin, std::size_t end) {
  const std::size_t d = v.d;
  kernel::HoistedFactors f[kMaxDims];
  if (v.scales == nullptr) {
    for (std::size_t j = 0; j < d; ++j) {
      f[j] = kernel::HoistFactors(v.kernel, v.h[j]);
    }
  }
  for (std::size_t i = begin; i < end; ++i) {
    double prod = 1.0;
    if (v.scales == nullptr) {
      for (std::size_t j = 0; j < d; ++j) {
        const double t = static_cast<double>(v.sample[j * v.stride + i]);
        prod *= kernel::CdfDiffHoisted(v.kernel, t, f[j].inv_cdf, qb[j],
                                       qb[d + j]);
      }
    } else {
      // Per-point bandwidths defeat the hoist; same per-point expression
      // as the unhoisted CdfDiff, so still bitwise-identical to the seed.
      const double scale = static_cast<double>(v.scales[i]);
      for (std::size_t j = 0; j < d; ++j) {
        const double t = static_cast<double>(v.sample[j * v.stride + i]);
        const double hj = v.h[j] * scale;
        const double inv = v.kernel == KernelType::kGaussian
                               ? kernel::kInvSqrt2 / hj
                               : 1.0 / hj;
        prod *= kernel::CdfDiffHoisted(v.kernel, t, inv, qb[j], qb[d + j]);
      }
    }
    contrib[i] = prod;
  }
}

void ScalarContributionGrad(const ShardKernelView& v, const double* qb,
                            double* contrib, double* partials,
                            std::size_t pitch, std::size_t origin,
                            std::size_t begin, std::size_t end) {
  const std::size_t d = v.d;
  kernel::HoistedFactors f[kMaxDims];
  if (v.scales == nullptr) {
    for (std::size_t j = 0; j < d; ++j) {
      f[j] = kernel::HoistFactors(v.kernel, v.h[j]);
    }
  }
  double cdf[kMaxDims];
  double dcdf[kMaxDims];
  double suffix[kMaxDims + 1];
  for (std::size_t i = begin; i < end; ++i) {
    if (v.scales == nullptr) {
      for (std::size_t j = 0; j < d; ++j) {
        const double t = static_cast<double>(v.sample[j * v.stride + i]);
        cdf[j] = kernel::CdfDiffHoisted(v.kernel, t, f[j].inv_cdf, qb[j],
                                        qb[d + j]);
        dcdf[j] = kernel::CdfDiffDhHoisted(v.kernel, t, f[j].inv_dh, qb[j],
                                           qb[d + j]);
      }
    } else {
      const double scale = static_cast<double>(v.scales[i]);
      for (std::size_t j = 0; j < d; ++j) {
        const double t = static_cast<double>(v.sample[j * v.stride + i]);
        const kernel::HoistedFactors fj =
            kernel::HoistFactors(v.kernel, v.h[j] * scale);
        cdf[j] = kernel::CdfDiffHoisted(v.kernel, t, fj.inv_cdf, qb[j],
                                        qb[d + j]);
        // Chain rule for the variable model: d/dh_j K(.; h_j * s_i)
        // = s_i * K'(.; h_j * s_i).
        dcdf[j] = scale * kernel::CdfDiffDhHoisted(v.kernel, t, fj.inv_dh,
                                                   qb[j], qb[d + j]);
      }
    }
    suffix[d] = 1.0;
    for (std::size_t j = d; j-- > 0;) suffix[j] = suffix[j + 1] * cdf[j];
    contrib[i] = suffix[0];
    double prefix = 1.0;
    for (std::size_t j = 0; j < d; ++j) {
      partials[j * pitch + (i - origin)] = prefix * dcdf[j] * suffix[j + 1];
      prefix *= cdf[j];
    }
  }
}

#if defined(FKDE_KB_X86)

// ---------------------------------------------------------------------------
// AVX2 lane math. All functions below are compiled for avx2 (the float
// lanes also for fma) at function granularity — the translation unit
// itself builds with the project's baseline flags — and are only reached
// behind a `CpuSupportsSimd()` runtime check.

/// 8-wide mirror of kernel::ExpApproxF (same constants, same operation
/// order up to FMA contraction).
__attribute__((target("avx2,fma"))) inline __m256 ExpV8(__m256 x) {
  x = _mm256_min_ps(_mm256_max_ps(x, _mm256_set1_ps(-87.3f)),
                    _mm256_set1_ps(88.7f));
  const __m256 n = _mm256_floor_ps(_mm256_fmadd_ps(
      _mm256_set1_ps(1.44269504088896341f), x, _mm256_set1_ps(0.5f)));
  __m256 r = _mm256_fnmadd_ps(n, _mm256_set1_ps(0.693359375f), x);
  r = _mm256_fnmadd_ps(n, _mm256_set1_ps(-2.12194440e-4f), r);
  const __m256 r2 = _mm256_mul_ps(r, r);
  __m256 p = _mm256_set1_ps(1.9875691500e-4f);
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(1.3981999507e-3f));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(8.3334519073e-3f));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(4.1665795894e-2f));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(1.6666665459e-1f));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(5.0000001201e-1f));
  const __m256 y =
      _mm256_fmadd_ps(p, r2, _mm256_add_ps(r, _mm256_set1_ps(1.0f)));
  const __m256i exp_bits = _mm256_slli_epi32(
      _mm256_add_epi32(_mm256_cvtps_epi32(n), _mm256_set1_epi32(127)), 23);
  return _mm256_mul_ps(y, _mm256_castsi256_ps(exp_bits));
}

/// 8-wide mirror of kernel::ErfApproxF (A&S 7.1.26 with odd extension).
__attribute__((target("avx2,fma"))) inline __m256 ErfV8(__m256 x) {
  const __m256 sign_mask = _mm256_set1_ps(-0.0f);
  const __m256 sign = _mm256_and_ps(x, sign_mask);
  const __m256 ax = _mm256_andnot_ps(sign_mask, x);
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 s = _mm256_div_ps(
      one, _mm256_fmadd_ps(_mm256_set1_ps(0.3275911f), ax, one));
  __m256 poly = _mm256_set1_ps(1.061405429f);
  poly = _mm256_fmadd_ps(poly, s, _mm256_set1_ps(-1.453152027f));
  poly = _mm256_fmadd_ps(poly, s, _mm256_set1_ps(1.421413741f));
  poly = _mm256_fmadd_ps(poly, s, _mm256_set1_ps(-0.284496736f));
  poly = _mm256_fmadd_ps(poly, s, _mm256_set1_ps(0.254829592f));
  const __m256 e = ExpV8(_mm256_xor_ps(_mm256_mul_ps(ax, ax), sign_mask));
  const __m256 y = _mm256_fnmadd_ps(_mm256_mul_ps(poly, s), e, one);
  // erf(|x|) >= 0, so restoring the argument's sign bit is the odd
  // extension.
  return _mm256_or_ps(y, sign);
}

/// 8-wide Epanechnikov CDF: clamping z to [-1, 1] BEFORE the polynomial
/// is branchless and exact at the support boundaries (the polynomial
/// evaluates to exactly 0 at z=-1 and 1 at z=1 in float arithmetic), so
/// it matches the branching scalar mirror.
__attribute__((target("avx2,fma"))) inline __m256 EpaCdfV8(__m256 z) {
  const __m256 one = _mm256_set1_ps(1.0f);
  z = _mm256_min_ps(_mm256_max_ps(z, _mm256_set1_ps(-1.0f)), one);
  const __m256 z3 = _mm256_mul_ps(_mm256_mul_ps(z, z), z);
  const __m256 t = _mm256_sub_ps(
      _mm256_fmadd_ps(_mm256_set1_ps(3.0f), z, _mm256_set1_ps(2.0f)), z3);
  return _mm256_mul_ps(_mm256_set1_ps(0.25f), t);
}

__attribute__((target("avx2,fma"))) inline __m256 CdfDiffV8(
    KernelType kernel, __m256 t, __m256 inv, __m256 lo, __m256 hi) {
  const __m256 zu = _mm256_mul_ps(_mm256_sub_ps(hi, t), inv);
  const __m256 zl = _mm256_mul_ps(_mm256_sub_ps(lo, t), inv);
  if (kernel == KernelType::kGaussian) {
    return _mm256_mul_ps(_mm256_set1_ps(0.5f),
                         _mm256_sub_ps(ErfV8(zu), ErfV8(zl)));
  }
  return _mm256_sub_ps(EpaCdfV8(zu), EpaCdfV8(zl));
}

/// 8-wide kernel::FiniteOffset: lanes holding ±inf become +0.
__attribute__((target("avx2,fma"))) inline __m256 FiniteOffsetV8(__m256 x) {
  const __m256 abs = _mm256_andnot_ps(_mm256_set1_ps(-0.0f), x);
  const __m256 inf =
      _mm256_cmp_ps(abs, _mm256_set1_ps(HUGE_VALF), _CMP_EQ_OQ);
  return _mm256_andnot_ps(inf, x);
}

/// 8-wide kernel::ClampToSupport. z is the second operand of max and min,
/// which return it when it is NaN or equal to the constant (a signed
/// zero stays as it is).
__attribute__((target("avx2,fma"))) inline __m256 ClampToSupportV8(__m256 z) {
  return _mm256_min_ps(_mm256_set1_ps(1.0f),
                       _mm256_max_ps(_mm256_set1_ps(-1.0f), z));
}

/// 8-wide mirror of kernel::GaussianCdfDiffDhF over the hoisted 1/h².
__attribute__((target("avx2,fma"))) inline __m256 DcdfGaussV8(__m256 t,
                                                              __m256 inv_h2,
                                                              __m256 lo,
                                                              __m256 hi) {
  const __m256 dl = FiniteOffsetV8(_mm256_sub_ps(lo, t));
  const __m256 du = FiniteOffsetV8(_mm256_sub_ps(hi, t));
  const __m256 mhalf = _mm256_set1_ps(-0.5f);
  const __m256 el = ExpV8(
      _mm256_mul_ps(mhalf, _mm256_mul_ps(_mm256_mul_ps(dl, dl), inv_h2)));
  const __m256 eu = ExpV8(
      _mm256_mul_ps(mhalf, _mm256_mul_ps(_mm256_mul_ps(du, du), inv_h2)));
  const __m256 diff =
      _mm256_fmsub_ps(dl, el, _mm256_mul_ps(du, eu));
  return _mm256_mul_ps(
      _mm256_mul_ps(_mm256_set1_ps(0.3989422804014327f), inv_h2), diff);
}

/// 8-wide mirror of kernel::EpanechnikovCdfDiffDhF over the hoisted 1/h.
/// On the clamped z the density 0.75(1-z²) is >= 0, exactly zero at the
/// support's edge, so it needs no mask.
__attribute__((target("avx2,fma"))) inline __m256 DcdfEpaV8(__m256 t,
                                                            __m256 inv,
                                                            __m256 lo,
                                                            __m256 hi) {
  const __m256 zl = ClampToSupportV8(_mm256_mul_ps(_mm256_sub_ps(lo, t), inv));
  const __m256 zu = ClampToSupportV8(_mm256_mul_ps(_mm256_sub_ps(hi, t), inv));
  const __m256 c = _mm256_set1_ps(0.75f);
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 kl = _mm256_mul_ps(c, _mm256_fnmadd_ps(zl, zl, one));
  const __m256 ku = _mm256_mul_ps(c, _mm256_fnmadd_ps(zu, zu, one));
  return _mm256_mul_ps(
      _mm256_fmsub_ps(zl, kl, _mm256_mul_ps(zu, ku)), inv);
}

/// Widens an 8-float lane to two 4-double stores.
__attribute__((target("avx2,fma"))) inline void StoreWide8(__m256 lane,
                                                           double* out) {
  _mm256_storeu_pd(out, _mm256_cvtps_pd(_mm256_castps256_ps128(lane)));
  _mm256_storeu_pd(out + 4, _mm256_cvtps_pd(_mm256_extractf128_ps(lane, 1)));
}

/// Float-precision fused contribution: 8-wide lanes over the strips,
/// scalar float mirrors (same math) on the remainder tail, double
/// accumulation at store.
__attribute__((target("avx2,fma"))) void ContributionFloatAvx2(
    const ShardKernelView& v, const double* qb, double* contrib,
    std::size_t begin, std::size_t end) {
  const std::size_t d = v.d;
  const std::size_t stride = v.stride;
  float inv_f[kMaxDims];
  float lo_f[kMaxDims];
  float hi_f[kMaxDims];
  for (std::size_t j = 0; j < d; ++j) {
    const double h = v.h[j];
    inv_f[j] = static_cast<float>(
        v.kernel == KernelType::kGaussian ? kernel::kInvSqrt2 / h : 1.0 / h);
    lo_f[j] = static_cast<float>(qb[j]);
    hi_f[j] = static_cast<float>(qb[d + j]);
  }
  std::size_t i = begin;
  const __m256 one = _mm256_set1_ps(1.0f);
  for (; i + 8 <= end; i += 8) {
    __m256 rcp = one;
    if (v.scales != nullptr) {
      rcp = _mm256_div_ps(one, _mm256_loadu_ps(v.scales + i));
    }
    __m256 prod = one;
    for (std::size_t j = 0; j < d; ++j) {
      const __m256 t = _mm256_loadu_ps(v.sample + j * stride + i);
      __m256 inv = _mm256_set1_ps(inv_f[j]);
      if (v.scales != nullptr) inv = _mm256_mul_ps(inv, rcp);
      prod = _mm256_mul_ps(prod, CdfDiffV8(v.kernel, t, inv,
                                           _mm256_set1_ps(lo_f[j]),
                                           _mm256_set1_ps(hi_f[j])));
    }
    StoreWide8(prod, contrib + i);
  }
  for (; i < end; ++i) {
    const float rcp = v.scales != nullptr ? 1.0f / v.scales[i] : 1.0f;
    float prod = 1.0f;
    for (std::size_t j = 0; j < d; ++j) {
      const float t = v.sample[j * stride + i];
      const float inv = v.scales != nullptr ? inv_f[j] * rcp : inv_f[j];
      prod *= kernel::CdfDiffHoistedF(v.kernel, t, inv, lo_f[j], hi_f[j]);
    }
    contrib[i] = static_cast<double>(prod);
  }
}

/// Float-precision fused contribution+gradient: per-dimension lane
/// registers for cdf/dcdf, float prefix/suffix products, widened stores.
__attribute__((target("avx2,fma"))) void ContributionGradFloatAvx2(
    const ShardKernelView& v, const double* qb, double* contrib,
    double* partials, std::size_t pitch, std::size_t origin,
    std::size_t begin, std::size_t end) {
  const std::size_t d = v.d;
  const std::size_t stride = v.stride;
  const bool gaussian = v.kernel == KernelType::kGaussian;
  float inv_f[kMaxDims];
  float inv_dh_f[kMaxDims];
  float lo_f[kMaxDims];
  float hi_f[kMaxDims];
  for (std::size_t j = 0; j < d; ++j) {
    const double h = v.h[j];
    if (gaussian) {
      inv_f[j] = static_cast<float>(kernel::kInvSqrt2 / h);
      inv_dh_f[j] = static_cast<float>(1.0 / (h * h));
    } else {
      inv_f[j] = static_cast<float>(1.0 / h);
      inv_dh_f[j] = inv_f[j];
    }
    lo_f[j] = static_cast<float>(qb[j]);
    hi_f[j] = static_cast<float>(qb[d + j]);
  }
  const __m256 one = _mm256_set1_ps(1.0f);
  __m256 cdf[kMaxDims];
  __m256 dcdf[kMaxDims];
  __m256 suffix[kMaxDims + 1];
  std::size_t i = begin;
  for (; i + 8 <= end; i += 8) {
    __m256 sc = one;
    __m256 rcp = one;
    __m256 rcp_dh = one;
    if (v.scales != nullptr) {
      sc = _mm256_loadu_ps(v.scales + i);
      rcp = _mm256_div_ps(one, sc);
      rcp_dh = gaussian ? _mm256_mul_ps(rcp, rcp) : rcp;
    }
    for (std::size_t j = 0; j < d; ++j) {
      const __m256 t = _mm256_loadu_ps(v.sample + j * stride + i);
      __m256 inv = _mm256_set1_ps(inv_f[j]);
      __m256 inv_dh = _mm256_set1_ps(inv_dh_f[j]);
      if (v.scales != nullptr) {
        inv = _mm256_mul_ps(inv, rcp);
        inv_dh = _mm256_mul_ps(inv_dh, rcp_dh);
      }
      const __m256 lo = _mm256_set1_ps(lo_f[j]);
      const __m256 hi = _mm256_set1_ps(hi_f[j]);
      cdf[j] = CdfDiffV8(v.kernel, t, inv, lo, hi);
      __m256 dc = gaussian ? DcdfGaussV8(t, inv_dh, lo, hi)
                           : DcdfEpaV8(t, inv_dh, lo, hi);
      // Chain rule for the variable model (see the scalar backend).
      if (v.scales != nullptr) dc = _mm256_mul_ps(dc, sc);
      dcdf[j] = dc;
    }
    suffix[d] = one;
    for (std::size_t j = d; j-- > 0;) {
      suffix[j] = _mm256_mul_ps(suffix[j + 1], cdf[j]);
    }
    StoreWide8(suffix[0], contrib + i);
    __m256 prefix = one;
    for (std::size_t j = 0; j < d; ++j) {
      StoreWide8(
          _mm256_mul_ps(_mm256_mul_ps(prefix, dcdf[j]), suffix[j + 1]),
          partials + j * pitch + (i - origin));
      prefix = _mm256_mul_ps(prefix, cdf[j]);
    }
  }
  // Remainder tail: scalar float mirrors of the lane math.
  float cdf_s[kMaxDims];
  float dcdf_s[kMaxDims];
  float suffix_s[kMaxDims + 1];
  for (; i < end; ++i) {
    const float sc = v.scales != nullptr ? v.scales[i] : 1.0f;
    const float rcp = v.scales != nullptr ? 1.0f / sc : 1.0f;
    const float rcp_dh =
        v.scales != nullptr ? (gaussian ? rcp * rcp : rcp) : 1.0f;
    for (std::size_t j = 0; j < d; ++j) {
      const float t = v.sample[j * stride + i];
      const float inv = v.scales != nullptr ? inv_f[j] * rcp : inv_f[j];
      const float inv_dh =
          v.scales != nullptr ? inv_dh_f[j] * rcp_dh : inv_dh_f[j];
      cdf_s[j] = kernel::CdfDiffHoistedF(v.kernel, t, inv, lo_f[j], hi_f[j]);
      float dc =
          kernel::CdfDiffDhHoistedF(v.kernel, t, inv_dh, lo_f[j], hi_f[j]);
      if (v.scales != nullptr) dc *= sc;
      dcdf_s[j] = dc;
    }
    suffix_s[d] = 1.0f;
    for (std::size_t j = d; j-- > 0;) {
      suffix_s[j] = suffix_s[j + 1] * cdf_s[j];
    }
    contrib[i] = static_cast<double>(suffix_s[0]);
    float prefix = 1.0f;
    for (std::size_t j = 0; j < d; ++j) {
      partials[j * pitch + (i - origin)] =
          static_cast<double>(prefix * dcdf_s[j] * suffix_s[j + 1]);
      prefix *= cdf_s[j];
    }
  }
}

// ---------------------------------------------------------------------------
// 4-wide double Epanechnikov lanes, bitwise equal to the scalar body on
// every input. They evaluate the scalar expressions of kernels.h
// operation for operation, in the same order, with the per-lane
// reciprocals computed by the same divides. No FMA may stand in for a
// multiply and an add: these functions compile for avx2 alone, so the
// fma instructions are not available to them, and the file builds with
// -ffp-contract=off so that a -mfma build cannot contract them (or the
// scalar body) either.

/// kernel::ClampToSupport, with z as the operand max and min return when
/// it is NaN or equal to the constant, as std::max and std::min do.
__attribute__((target("avx2"))) inline __m256d ClampToSupportV4(__m256d z) {
  return _mm256_min_pd(_mm256_set1_pd(1.0),
                       _mm256_max_pd(_mm256_set1_pd(-1.0), z));
}

/// kernel::EpanechnikovCdf on a z already clamped to [-1, 1]:
/// `0.25 * ((2 + 3z) - (z*z)*z)`. The polynomial is exactly 0 at z = -1
/// and exactly 1 at z = 1, the constants the scalar branches return
/// outside the support.
__attribute__((target("avx2"))) inline __m256d EpaPolyV4(__m256d z) {
  const __m256d poly = _mm256_sub_pd(
      _mm256_add_pd(_mm256_set1_pd(2.0),
                    _mm256_mul_pd(_mm256_set1_pd(3.0), z)),
      _mm256_mul_pd(_mm256_mul_pd(z, z), z));
  return _mm256_mul_pd(_mm256_set1_pd(0.25), poly);
}

/// z times the Epanechnikov density, `z * (0.75 * (1 - z*z))`, on a z
/// already clamped to [-1, 1]. There the density is >= +0 (exactly +0 at
/// |z| = 1), so no mask is needed: ±1 * +0 keeps the sign of the scalar
/// `z * 0.0` outside the support, and a NaN z passes through.
__attribute__((target("avx2"))) inline __m256d EpaZDensityV4(__m256d z) {
  const __m256d one_minus = _mm256_sub_pd(_mm256_set1_pd(1.0),
                                         _mm256_mul_pd(z, z));
  return _mm256_mul_pd(z, _mm256_mul_pd(_mm256_set1_pd(0.75), one_minus));
}

/// The lanes' clamped z = (x - t) * inv of one query bound x.
__attribute__((target("avx2"))) inline __m256d ClampedZV4(__m256d x,
                                                          __m256d t,
                                                          __m256d inv) {
  return ClampToSupportV4(_mm256_mul_pd(_mm256_sub_pd(x, t), inv));
}

/// kernel::EpanechnikovCdfDiffHoisted from the clamped zl, zu.
__attribute__((target("avx2"))) inline __m256d CdfDiffEpaV4(__m256d zl,
                                                            __m256d zu) {
  return _mm256_sub_pd(EpaPolyV4(zu), EpaPolyV4(zl));
}

/// kernel::EpanechnikovCdfDiffDhHoisted from the same clamped zl, zu.
__attribute__((target("avx2"))) inline __m256d CdfDiffDhEpaV4(__m256d zl,
                                                              __m256d zu,
                                                              __m256d inv) {
  return _mm256_mul_pd(_mm256_sub_pd(EpaZDensityV4(zl), EpaZDensityV4(zu)),
                       inv);
}

/// Coordinate j of points [i, i + 4), widened to double.
__attribute__((target("avx2"))) inline __m256d LoadWide4(const float* p) {
  return _mm256_cvtps_pd(_mm_loadu_ps(p));
}

/// The lanes' reciprocal bandwidth in dimension j: the hoisted `1 / h_j`,
/// or with point scales the `1 / (h_j * s_i)` each lane divides, as the
/// scalar body does (not `(1/h_j) * (1/s_i)`, which rounds differently).
__attribute__((target("avx2"))) inline __m256d InvV4(
    const ShardKernelView& v, const double* inv_h, std::size_t j,
    __m256d scale) {
  if (v.scales == nullptr) return _mm256_set1_pd(inv_h[j]);
  return _mm256_div_pd(_mm256_set1_pd(1.0),
                       _mm256_mul_pd(_mm256_set1_pd(v.h[j]), scale));
}

/// Double-precision Epanechnikov fused contribution: ScalarContribution
/// on 4-wide lanes. The remainder tail runs the scalar body.
__attribute__((target("avx2"))) void ContributionEpaDoubleAvx2(
    const ShardKernelView& v, const double* qb, double* contrib,
    std::size_t begin, std::size_t end) {
  const std::size_t d = v.d;
  const std::size_t stride = v.stride;
  double inv_h[kMaxDims];
  for (std::size_t j = 0; j < d; ++j) {
    inv_h[j] = kernel::HoistFactors(v.kernel, v.h[j]).inv_cdf;
  }
  const __m256d one = _mm256_set1_pd(1.0);
  std::size_t i = begin;
  for (; i + 4 <= end; i += 4) {
    __m256d scale = one;
    if (v.scales != nullptr) scale = LoadWide4(v.scales + i);
    __m256d prod = one;
    for (std::size_t j = 0; j < d; ++j) {
      const __m256d t = LoadWide4(v.sample + j * stride + i);
      const __m256d inv = InvV4(v, inv_h, j, scale);
      prod = _mm256_mul_pd(
          prod, CdfDiffEpaV4(ClampedZV4(_mm256_set1_pd(qb[j]), t, inv),
                             ClampedZV4(_mm256_set1_pd(qb[d + j]), t, inv)));
    }
    _mm256_storeu_pd(contrib + i, prod);
  }
  if (i < end) ScalarContribution(v, qb, contrib, i, end);
}

/// Double-precision Epanechnikov fused contribution+gradient:
/// ScalarContributionGrad on 4-wide lanes — the suffix products right to
/// left, the prefix products left to right, the variable model's chain
/// rule factor s_i last. The remainder tail runs the scalar body.
__attribute__((target("avx2"))) void ContributionGradEpaDoubleAvx2(
    const ShardKernelView& v, const double* qb, double* contrib,
    double* partials, std::size_t pitch, std::size_t origin,
    std::size_t begin, std::size_t end) {
  const std::size_t d = v.d;
  const std::size_t stride = v.stride;
  // Epanechnikov's two hoisted reciprocals (inv_cdf, inv_dh) are one 1/h.
  double inv_h[kMaxDims];
  for (std::size_t j = 0; j < d; ++j) {
    inv_h[j] = kernel::HoistFactors(v.kernel, v.h[j]).inv_cdf;
  }
  const __m256d one = _mm256_set1_pd(1.0);
  __m256d cdf[kMaxDims];
  __m256d dcdf[kMaxDims];
  std::size_t i = begin;
  for (; i + 4 <= end; i += 4) {
    __m256d scale = one;
    if (v.scales != nullptr) scale = LoadWide4(v.scales + i);
    for (std::size_t j = 0; j < d; ++j) {
      const __m256d t = LoadWide4(v.sample + j * stride + i);
      const __m256d inv = InvV4(v, inv_h, j, scale);
      const __m256d lo = _mm256_set1_pd(qb[j]);
      const __m256d hi = _mm256_set1_pd(qb[d + j]);
      const __m256d zl = ClampedZV4(lo, t, inv);
      const __m256d zu = ClampedZV4(hi, t, inv);
      cdf[j] = CdfDiffEpaV4(zl, zu);
      __m256d dc = CdfDiffDhEpaV4(zl, zu, inv);
      // Chain rule for the variable model (see the scalar backend).
      if (v.scales != nullptr) dc = _mm256_mul_pd(scale, dc);
      dcdf[j] = dc;
    }
    __m256d suffix[kMaxDims + 1];
    suffix[d] = one;
    for (std::size_t j = d; j-- > 0;) {
      suffix[j] = _mm256_mul_pd(suffix[j + 1], cdf[j]);
    }
    _mm256_storeu_pd(contrib + i, suffix[0]);
    __m256d prefix = one;
    for (std::size_t j = 0; j < d; ++j) {
      _mm256_storeu_pd(
          partials + j * pitch + (i - origin),
          _mm256_mul_pd(_mm256_mul_pd(prefix, dcdf[j]), suffix[j + 1]));
      prefix = _mm256_mul_pd(prefix, cdf[j]);
    }
  }
  if (i < end) {
    ScalarContributionGrad(v, qb, contrib, partials, pitch, origin, i, end);
  }
}

#endif  // FKDE_KB_X86

}  // namespace

FKDE_HOT void FusedContribution(const ShardKernelView& view,
                                const double* qb, double* contrib,
                                std::size_t begin, std::size_t end) {
#if defined(FKDE_KB_X86)
  if (view.backend == KernelBackend::kSimd && CpuSupportsSimd()) {
    if (view.precision == KernelPrecision::kFloat) {
      ContributionFloatAvx2(view, qb, contrib, begin, end);
      return;
    }
    if (view.kernel == KernelType::kEpanechnikov) {
      ContributionEpaDoubleAvx2(view, qb, contrib, begin, end);
      return;
    }
  }
#endif
  ScalarContribution(view, qb, contrib, begin, end);
}

FKDE_HOT void FusedContributionGrad(const ShardKernelView& view,
                                    const double* qb, double* contrib,
                                    double* partials, std::size_t row_pitch,
                                    std::size_t begin, std::size_t end,
                                    std::size_t partials_origin) {
#if defined(FKDE_KB_X86)
  if (view.backend == KernelBackend::kSimd && CpuSupportsSimd()) {
    if (view.precision == KernelPrecision::kFloat) {
      ContributionGradFloatAvx2(view, qb, contrib, partials, row_pitch,
                                partials_origin, begin, end);
      return;
    }
    if (view.kernel == KernelType::kEpanechnikov) {
      ContributionGradEpaDoubleAvx2(view, qb, contrib, partials, row_pitch,
                                    partials_origin, begin, end);
      return;
    }
  }
#endif
  ScalarContributionGrad(view, qb, contrib, partials, row_pitch,
                         partials_origin, begin, end);
}

/// Dimension outside, point inside: every load and store is a sequential
/// stream. Pure widen-then-double math, so results are backend- and
/// precision-independent.
FKDE_HOT void Moments(const ShardKernelView& view, double* out,
                      std::size_t rows, std::size_t begin,
                      std::size_t end) {
  for (std::size_t dim = 0; dim < view.d; ++dim) {
    const float* strip = view.sample + dim * view.stride;
    double* first = out + (2 * dim) * rows;
    double* second = out + (2 * dim + 1) * rows;
    for (std::size_t i = begin; i < end; ++i) {
      const double val = static_cast<double>(strip[i]);
      first[i] = val;
      second[i] = val * val;
    }
  }
}

namespace {

/// Rows of the gradient partials tile: a multiple of both lane widths
/// (8 float, 4 double) that divides the group, so tiling moves no row
/// between the vector lanes and the scalar tail.
constexpr std::size_t kGradTileRows = 32;
static_assert(kReduceGroupSize % kGradTileRows == 0 && kGradTileRows % 8 == 0);

}  // namespace

FKDE_HOT void ContributionGroups(const ShardKernelView& view,
                                 const double* qb, double* contrib,
                                 double* group_sums, std::size_t rows,
                                 std::size_t group_begin,
                                 std::size_t group_end) {
  // Group boundaries are multiples of every lane width, so one call over
  // the whole range splits rows between lanes and tail as per-group calls
  // would.
  FusedContribution(view, qb, contrib, group_begin * kReduceGroupSize,
                    std::min(group_end * kReduceGroupSize, rows));
  for (std::size_t g = group_begin; g < group_end; ++g) {
    const std::size_t hi = std::min((g + 1) * kReduceGroupSize, rows);
    double acc = 0.0;
    for (std::size_t i = g * kReduceGroupSize; i < hi; ++i) acc += contrib[i];
    group_sums[g] = acc;
  }
}

FKDE_HOT void ContributionGradGroups(const ShardKernelView& view,
                                     const double* qb, double* contrib,
                                     double* grad_sums, double* est_sums,
                                     std::size_t rows,
                                     std::size_t group_begin,
                                     std::size_t group_end) {
  const std::size_t d = view.d;
  const std::size_t groups = RowGroups{rows}.groups();
  double tile[kMaxDims * kGradTileRows];
  double acc[kMaxDims];
  for (std::size_t g = group_begin; g < group_end; ++g) {
    const std::size_t lo = g * kReduceGroupSize;
    const std::size_t hi = std::min(lo + kReduceGroupSize, rows);
    std::fill(acc, acc + d, 0.0);
    double est = 0.0;
    for (std::size_t t = lo; t < hi; t += kGradTileRows) {
      const std::size_t n = std::min(kGradTileRows, hi - t);
      FusedContributionGrad(view, qb, contrib, tile, kGradTileRows, t, t + n,
                            /*partials_origin=*/t);
      for (std::size_t j = 0; j < d; ++j) {
        const double* partials = tile + j * kGradTileRows;
        for (std::size_t i = 0; i < n; ++i) acc[j] += partials[i];
      }
      for (std::size_t i = t; i < t + n; ++i) est += contrib[i];
    }
    for (std::size_t j = 0; j < d; ++j) grad_sums[j * groups + g] = acc[j];
    if (est_sums != nullptr) est_sums[g] = est;
  }
}

FKDE_HOT void MomentsGroups(const ShardKernelView& view, double* sums,
                            std::size_t rows, std::size_t group_begin,
                            std::size_t group_end) {
  const std::size_t groups = RowGroups{rows}.groups();
  for (std::size_t dim = 0; dim < view.d; ++dim) {
    const float* strip = view.sample + dim * view.stride;
    for (std::size_t g = group_begin; g < group_end; ++g) {
      const std::size_t hi = std::min((g + 1) * kReduceGroupSize, rows);
      double sum = 0.0;
      double sum_sq = 0.0;
      for (std::size_t i = g * kReduceGroupSize; i < hi; ++i) {
        const double val = static_cast<double>(strip[i]);
        sum += val;
        sum_sq += val * val;
      }
      sums[(2 * dim) * groups + g] = sum;
      sums[(2 * dim + 1) * groups + g] = sum_sq;
    }
  }
}

namespace {

/// Times `repetitions` single-threaded passes of the fused contribution
/// loop, or of the fused contribution+gradient loop, over a deterministic
/// synthetic sample. Returns point-attributes per second.
double MeasureFusedThroughput(KernelBackend backend,
                              KernelPrecision precision, KernelType kernel,
                              std::size_t rows, std::size_t d,
                              int repetitions, bool gradient) {
  FKDE_CHECK(rows > 0 && d > 0 && d <= kMaxDims && repetitions > 0);
  // Deterministic synthetic sample in [0, 1): an LCG avoids dragging RNG
  // dependencies into this layer.
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  auto next_unit = [&state]() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<double>(state >> 11) *
           (1.0 / 9007199254740992.0);
  };
  std::vector<float> strips(rows * d);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < d; ++j) {
      strips[j * rows + i] = static_cast<float>(next_unit());
    }
  }
  std::vector<double> h(d, 0.12);
  std::vector<double> qb(2 * d);
  for (std::size_t j = 0; j < d; ++j) {
    qb[j] = 0.2;
    qb[d + j] = 0.7;
  }
  std::vector<double> contrib(rows, 0.0);
  std::vector<double> partials(gradient ? rows * d : 0, 0.0);

  ShardKernelView view;
  view.backend = ResolveKernelBackend(backend);
  view.precision = ResolveKernelPrecision(precision);
  view.kernel = kernel;
  view.d = d;
  view.sample = strips.data();
  view.stride = rows;
  view.h = h.data();

  auto pass = [&] {
    if (gradient) {
      FusedContributionGrad(view, qb.data(), contrib.data(), partials.data(),
                            rows, 0, rows);
    } else {
      FusedContribution(view, qb.data(), contrib.data(), 0, rows);
    }
  };
  pass();  // Warm-up.
  const auto start = std::chrono::steady_clock::now();
  for (int rep = 0; rep < repetitions; ++rep) pass();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  const double ops = static_cast<double>(repetitions) *
                     static_cast<double>(rows) * static_cast<double>(d);
  return ops / std::max(seconds, 1e-9);
}

}  // namespace

double MeasureFusedContributionThroughput(KernelBackend backend,
                                          KernelPrecision precision,
                                          KernelType kernel, std::size_t rows,
                                          std::size_t d, int repetitions) {
  return MeasureFusedThroughput(backend, precision, kernel, rows, d,
                                repetitions, /*gradient=*/false);
}

double MeasureFusedContributionGradThroughput(KernelBackend backend,
                                              KernelPrecision precision,
                                              KernelType kernel,
                                              std::size_t rows, std::size_t d,
                                              int repetitions) {
  return MeasureFusedThroughput(backend, precision, kernel, rows, d,
                                repetitions, /*gradient=*/true);
}

const BackendCalibration& CalibrateKernelBackends() {
  static const BackendCalibration calibration = [] {
    BackendCalibration c;
    constexpr std::size_t kRows = 1 << 16;
    constexpr std::size_t kDims = 3;
    constexpr int kReps = 3;
    c.scalar_ops_per_sec = MeasureFusedContributionThroughput(
        KernelBackend::kScalar, KernelPrecision::kDouble,
        KernelType::kGaussian, kRows, kDims, kReps);
    c.simd_ops_per_sec = MeasureFusedContributionThroughput(
        KernelBackend::kSimd, KernelPrecision::kFloat, KernelType::kGaussian,
        kRows, kDims, kReps);
    c.ratio = c.scalar_ops_per_sec > 0.0
                  ? c.simd_ops_per_sec / c.scalar_ops_per_sec
                  : 1.0;
    // When the simd request resolves to scalar (no AVX2, or forced via
    // FKDE_KERNEL_BACKEND=scalar) the two measurements raced the same
    // loop; pin the ratio to exactly 1 so the cost model stays the seed's.
    if (ResolveKernelBackend(KernelBackend::kSimd) ==
        KernelBackend::kScalar) {
      c.ratio = 1.0;
    }
    SetSimdThroughputRatio(c.ratio);
    return c;
  }();
  return calibration;
}

}  // namespace kb
}  // namespace fkde
