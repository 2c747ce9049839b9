/// \file kernels.h
/// \brief Kernel functions and their closed-form range integrals.
///
/// The estimator only ever needs two per-dimension quantities (paper
/// Appendix B/C):
///
///  * the *CDF difference* — the probability mass a kernel centered at
///    sample value t with bandwidth h places on the interval [l, u]
///    (one factor of eq. 13), and
///  * its *partial derivative with respect to h* (one factor of eq. 17).
///
/// Because both supported kernels are product kernels, the d-dimensional
/// contribution of a sample point is the product of these per-dimension
/// factors, and the bandwidth gradient follows from the product rule.
///
/// The paper mainly derives the Gaussian; we also provide the Epanechnikov
/// kernel it mentions as the cheaper alternative (Appendix A).

#ifndef FKDE_KDE_KERNELS_H_
#define FKDE_KDE_KERNELS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>

#include "common/status.h"

namespace fkde {

/// Shape of the local probability distributions (paper Section 3.1.2).
enum class KernelType {
  kGaussian,      ///< Standard normal kernel; smooth, infinite support.
  kEpanechnikov,  ///< Truncated quadratic; compact support, cheap.
};

/// Parses "gaussian"/"epanechnikov" (case-insensitive).
Result<KernelType> ParseKernelName(const std::string& name);
const char* KernelName(KernelType type);

namespace kernel {

constexpr double kInvSqrt2 = 0.7071067811865476;
constexpr double kInvSqrt2Pi = 0.3989422804014327;

/// Gaussian factor of eq. (13): probability mass that a 1D Gaussian kernel
/// centered at `t` with bandwidth `h` places on [l, u]:
///   0.5 * (erf((u-t)/(sqrt(2) h)) - erf((l-t)/(sqrt(2) h))).
inline double GaussianCdfDiff(double t, double h, double l, double u) {
  const double inv = kInvSqrt2 / h;
  return 0.5 * (std::erf((u - t) * inv) - std::erf((l - t) * inv));
}

/// A bound's offset x = l - t for the Gaussian density term
/// x exp(-x^2 / 2h^2), with an infinite offset (a half-open bound) taken
/// as 0: the term's limit is 0, where inf * 0 would give NaN. A finite
/// offset passes unchanged.
template <class T>
inline T FiniteOffset(T x) {
  return std::isinf(x) ? T(0) : x;
}

/// z clamped to the Epanechnikov support [-1, 1] for the density term
/// z K(z). Outside the support K is zero and the clamped z keeps the
/// product's signed zero, but an infinite z (a half-open bound) no longer
/// makes it inf * 0 = NaN. NaN passes through.
template <class T>
inline T ClampToSupport(T z) {
  return std::min(std::max(z, T(-1)), T(1));
}

/// The Epanechnikov density K(z) = 0.75 (1 - z^2) on a z clamped to the
/// support: exactly +0 at z = ±1, so no branch zeroes it outside.
template <class T>
inline T EpanechnikovDensity(T z) {
  return T(0.75) * (T(1) - z * z);
}

/// d/dh of GaussianCdfDiff (one factor of eq. 17):
///   (1 / (sqrt(2 pi) h^2)) *
///     ((l-t) exp(-(l-t)^2 / 2h^2) - (u-t) exp(-(u-t)^2 / 2h^2)).
inline double GaussianCdfDiffDh(double t, double h, double l, double u) {
  const double inv_h2 = 1.0 / (h * h);
  const double dl = FiniteOffset(l - t);
  const double du = FiniteOffset(u - t);
  return kInvSqrt2Pi * inv_h2 *
         (dl * std::exp(-0.5 * dl * dl * inv_h2) -
          du * std::exp(-0.5 * du * du * inv_h2));
}

/// CDF of the standard Epanechnikov kernel K(z) = 0.75 (1 - z^2) on
/// [-1, 1]: F(z) = 0.25 (2 + 3z - z^3), clamped outside the support.
inline double EpanechnikovCdf(double z) {
  if (z <= -1.0) return 0.0;
  if (z >= 1.0) return 1.0;
  return 0.25 * (2.0 + 3.0 * z - z * z * z);
}

/// Epanechnikov analogue of GaussianCdfDiff.
inline double EpanechnikovCdfDiff(double t, double h, double l, double u) {
  const double inv = 1.0 / h;
  return EpanechnikovCdf((u - t) * inv) - EpanechnikovCdf((l - t) * inv);
}

/// d/dh of EpanechnikovCdfDiff. With z = (x - t)/h,
/// d/dh F(z) = -z/h * K(z), so the difference is
/// (z_l K(z_l) - z_u K(z_u)) / h (zero outside the support).
inline double EpanechnikovCdfDiffDh(double t, double h, double l, double u) {
  const double inv = 1.0 / h;
  const double zl = ClampToSupport((l - t) * inv);
  const double zu = ClampToSupport((u - t) * inv);
  return (zl * EpanechnikovDensity(zl) - zu * EpanechnikovDensity(zu)) * inv;
}

/// Dispatching wrappers (branch predicted perfectly inside kernels since
/// the type is loop-invariant).
inline double CdfDiff(KernelType type, double t, double h, double l,
                      double u) {
  return type == KernelType::kGaussian ? GaussianCdfDiff(t, h, l, u)
                                       : EpanechnikovCdfDiff(t, h, l, u);
}

inline double CdfDiffDh(KernelType type, double t, double h, double l,
                        double u) {
  return type == KernelType::kGaussian ? GaussianCdfDiffDh(t, h, l, u)
                                       : EpanechnikovCdfDiffDh(t, h, l, u);
}

// ---------------------------------------------------------------------------
// Hoisted-factor variants.
//
// Every CdfDiff above recomputes a per-(query, dim) reciprocal —
// `kInvSqrt2 / h`, `1/h`, or `1/h²` — for every sample point, even though
// it is loop-invariant across the point loop. These variants take the
// reciprocal precomputed by `HoistFactors` once per query descriptor. The
// hoisted reciprocal is computed by the *identical* expression, so the
// per-point math (and therefore the result) is bitwise-identical to the
// unhoisted functions; kernels_test pins this.

/// The loop-invariant reciprocals of one (kernel, bandwidth) pair:
/// `inv_cdf` feeds CdfDiffHoisted, `inv_dh` feeds CdfDiffDhHoisted.
struct HoistedFactors {
  double inv_cdf;
  double inv_dh;
};

inline HoistedFactors HoistFactors(KernelType type, double h) {
  if (type == KernelType::kGaussian) {
    return HoistedFactors{kInvSqrt2 / h, 1.0 / (h * h)};
  }
  const double inv = 1.0 / h;
  return HoistedFactors{inv, inv};
}

inline double GaussianCdfDiffHoisted(double t, double inv, double l,
                                     double u) {
  return 0.5 * (std::erf((u - t) * inv) - std::erf((l - t) * inv));
}

inline double GaussianCdfDiffDhHoisted(double t, double inv_h2, double l,
                                       double u) {
  const double dl = FiniteOffset(l - t);
  const double du = FiniteOffset(u - t);
  return kInvSqrt2Pi * inv_h2 *
         (dl * std::exp(-0.5 * dl * dl * inv_h2) -
          du * std::exp(-0.5 * du * du * inv_h2));
}

inline double EpanechnikovCdfDiffHoisted(double t, double inv, double l,
                                         double u) {
  return EpanechnikovCdf((u - t) * inv) - EpanechnikovCdf((l - t) * inv);
}

inline double EpanechnikovCdfDiffDhHoisted(double t, double inv, double l,
                                           double u) {
  const double zl = ClampToSupport((l - t) * inv);
  const double zu = ClampToSupport((u - t) * inv);
  return (zl * EpanechnikovDensity(zl) - zu * EpanechnikovDensity(zu)) * inv;
}

inline double CdfDiffHoisted(KernelType type, double t, double inv, double l,
                             double u) {
  return type == KernelType::kGaussian
             ? GaussianCdfDiffHoisted(t, inv, l, u)
             : EpanechnikovCdfDiffHoisted(t, inv, l, u);
}

inline double CdfDiffDhHoisted(KernelType type, double t, double inv_dh,
                               double l, double u) {
  return type == KernelType::kGaussian
             ? GaussianCdfDiffDhHoisted(t, inv_dh, l, u)
             : EpanechnikovCdfDiffDhHoisted(t, inv_dh, l, u);
}

// ---------------------------------------------------------------------------
// Float-precision approximations (the mixed-precision kernel backend's
// lane math — see parallel/simd.h and kde/kernel_backend.h).
//
// The SIMD float path cannot call libm per lane, so it uses polynomial
// approximations with proven bounds; these scalar mirrors compute the
// SAME formulas and serve as the remainder-lane tail of the vector
// kernels and as the reference for the pinned error-bound tests.

/// Cephes-style single-precision exp: x = n·ln2 + r with |r| ≤ ln2/2,
/// e^r by a degree-6 minimax polynomial, scale by 2^n through the
/// exponent bits. Relative error ≤ 2^-21 (~5e-7) over the clamped domain
/// [-87.3, 88.7]; inputs below/above clamp to the boundary value.
inline float ExpApproxF(float x) {
  constexpr float kLog2E = 1.44269504088896341f;
  constexpr float kC1 = 0.693359375f;        // ln2 split: high part,
  constexpr float kC2 = -2.12194440e-4f;     // low part (Cody-Waite).
  x = x > 88.7f ? 88.7f : (x < -87.3f ? -87.3f : x);
  const float n = std::floor(kLog2E * x + 0.5f);
  float r = x - n * kC1;
  r -= n * kC2;
  const float r2 = r * r;
  float p = 1.9875691500e-4f;
  p = p * r + 1.3981999507e-3f;
  p = p * r + 8.3334519073e-3f;
  p = p * r + 4.1665795894e-2f;
  p = p * r + 1.6666665459e-1f;
  p = p * r + 5.0000001201e-1f;
  const float y = p * r2 + r + 1.0f;
  // 2^n via exponent-bit assembly (n is integral and within [-127, 127]
  // after the clamp above).
  union {
    std::uint32_t bits;
    float value;
  } scale;
  scale.bits =
      static_cast<std::uint32_t>(static_cast<int>(n) + 127) << 23;
  return y * scale.value;
}

/// Abramowitz & Stegun 7.1.26 single-precision erf: with
/// s = 1/(1 + p·|x|), erf(|x|) ≈ 1 − (a1·s + … + a5·s⁵)·e^(−x²), extended
/// oddly to x < 0. The rational bound is ≤ 1.5e-7 absolute in exact
/// arithmetic; with float rounding and ExpApproxF's error the total
/// absolute error is ≤ 1e-6 (pinned by kernel_backend_test over a dense
/// sweep).
inline float ErfApproxF(float x) {
  constexpr float kP = 0.3275911f;
  constexpr float kA1 = 0.254829592f;
  constexpr float kA2 = -0.284496736f;
  constexpr float kA3 = 1.421413741f;
  constexpr float kA4 = -1.453152027f;
  constexpr float kA5 = 1.061405429f;
  const float ax = x < 0.0f ? -x : x;
  const float s = 1.0f / (1.0f + kP * ax);
  float poly = kA5;
  poly = poly * s + kA4;
  poly = poly * s + kA3;
  poly = poly * s + kA2;
  poly = poly * s + kA1;
  const float y = 1.0f - poly * s * ExpApproxF(-ax * ax);
  return x < 0.0f ? -y : y;
}

/// Float GaussianCdfDiff over the hoisted reciprocal `inv` = kInvSqrt2/h.
/// Absolute error ≤ 1e-6 per factor (half the sum of two ErfApproxF
/// errors, plus rounding).
inline float GaussianCdfDiffF(float t, float inv, float l, float u) {
  return 0.5f * (ErfApproxF((u - t) * inv) - ErfApproxF((l - t) * inv));
}

/// Float GaussianCdfDiffDh over the hoisted `inv_h2` = 1/h². The leading
/// 1/h² factor means the error is relative to the gradient's own scale;
/// the backend tests pin an atol+rtol form.
inline float GaussianCdfDiffDhF(float t, float inv_h2, float l, float u) {
  constexpr float kInvSqrt2PiF = 0.3989422804014327f;
  const float dl = FiniteOffset(l - t);
  const float du = FiniteOffset(u - t);
  return kInvSqrt2PiF * inv_h2 *
         (dl * ExpApproxF(-0.5f * dl * dl * inv_h2) -
          du * ExpApproxF(-0.5f * du * du * inv_h2));
}

inline float EpanechnikovCdfF(float z) {
  if (z <= -1.0f) return 0.0f;
  if (z >= 1.0f) return 1.0f;
  return 0.25f * (2.0f + 3.0f * z - z * z * z);
}

/// Float EpanechnikovCdfDiff over the hoisted `inv` = 1/h. Pure
/// polynomial: error is float rounding only (≤ a few ulp).
inline float EpanechnikovCdfDiffF(float t, float inv, float l, float u) {
  return EpanechnikovCdfF((u - t) * inv) - EpanechnikovCdfF((l - t) * inv);
}

inline float EpanechnikovCdfDiffDhF(float t, float inv, float l, float u) {
  const float zl = ClampToSupport((l - t) * inv);
  const float zu = ClampToSupport((u - t) * inv);
  return (zl * EpanechnikovDensity(zl) - zu * EpanechnikovDensity(zu)) * inv;
}

inline float CdfDiffHoistedF(KernelType type, float t, float inv, float l,
                             float u) {
  return type == KernelType::kGaussian ? GaussianCdfDiffF(t, inv, l, u)
                                       : EpanechnikovCdfDiffF(t, inv, l, u);
}

inline float CdfDiffDhHoistedF(KernelType type, float t, float inv_dh,
                               float l, float u) {
  return type == KernelType::kGaussian
             ? GaussianCdfDiffDhF(t, inv_dh, l, u)
             : EpanechnikovCdfDiffDhF(t, inv_dh, l, u);
}

}  // namespace kernel
}  // namespace fkde

#endif  // FKDE_KDE_KERNELS_H_
