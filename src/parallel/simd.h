/// \file simd.h
/// \brief Kernel-backend selection: scalar vs explicitly vectorized CPU
/// kernels, double vs mixed-precision float lane math.
///
/// Every KDE hot path bottoms out in a fused per-point loop (contribution,
/// contribution+gradient, moments). The *backend* decides how that loop
/// executes on the host threads that back a `Device`:
///
///  * `kScalar` — the seed's per-point loop over `kernel::CdfDiff` and
///    friends. Bit-identical to the pre-backend engine.
///  * `kSimd`   — an explicitly vectorized AVX2 path (8-wide float /
///    4-wide double lanes) over the dim-major sample strips.
///
/// The *precision* decides the lane type of the SIMD path:
///
///  * `kDouble` — double lane math. Bitwise equal to the scalar backend
///    (pinned by kernel_backend_test): the Epanechnikov lanes evaluate the
///    scalar expressions in the same order without FMA, and the Gaussian
///    runs the scalar body, since a vector `erf` cannot reproduce libm's
///    bits.
///  * `kFloat`  — float storage and float lane math with polynomial
///    `erf`/`exp` approximations (see kde/kernels.h for the documented
///    error bounds); accumulation into the contribution/partial buffers
///    stays double, so the segmented reductions are unchanged.
///
/// Because the double vector body moves no bit, the engine picks the
/// body from the CPU: every shard resolves `ResolveKernelBackend(kSimd)`,
/// i.e. runs simd where AVX2 is present. A device profile's
/// `DeviceProfile::kernel_backend` request keeps two other meanings: it is
/// modeled (`DeviceProfile::SimdCpu()`'s calibrated throughput), and only
/// a request resolving to `kSimd` lets `kernel_precision` select float
/// math, so stock profiles keep double math. The environment variables
/// `FKDE_KERNEL_BACKEND` (`scalar`|`simd`|`auto`) and
/// `FKDE_KERNEL_PRECISION` (`double`|`float`) override every profile — the
/// CI forced-scalar leg sets `FKDE_KERNEL_BACKEND=scalar`, which pins the
/// scalar fallback of every device.

#ifndef FKDE_PARALLEL_SIMD_H_
#define FKDE_PARALLEL_SIMD_H_

#include <string>

#include "common/status.h"

namespace fkde {

/// How the fused per-point kernels execute on the host threads.
enum class KernelBackend {
  kScalar,  ///< Seed-identical per-point loops.
  kSimd,    ///< AVX2 lanes over the dim-major sample strips (falls
            ///< back to kScalar when the CPU lacks AVX2).
};

/// Lane precision of the fused kernels (storage is float either way; the
/// reductions always accumulate in double).
enum class KernelPrecision {
  kDouble,  ///< Double lanes, bitwise equal to scalar.
  kFloat,   ///< Polynomial erf/exp, documented & test-pinned error bound.
};

const char* KernelBackendName(KernelBackend backend);
const char* KernelPrecisionName(KernelPrecision precision);

/// Parses "scalar"/"simd" (case-insensitive).
Result<KernelBackend> ParseKernelBackendName(const std::string& name);
/// Parses "double"/"float" (case-insensitive).
Result<KernelPrecision> ParseKernelPrecisionName(const std::string& name);

/// True when this process can execute the AVX2 kernel path (compile-time
/// x86-64 support and runtime CPUID check, cached after the first call).
bool CpuSupportsSimd();

/// Resolves the backend a device profile requested into the backend that
/// will actually run: applies the `FKDE_KERNEL_BACKEND` environment
/// override (`scalar` forces the fallback everywhere, `simd` forces the
/// vector path where supported, `auto`/unset respects `requested`), then
/// falls back to `kScalar` when the CPU lacks AVX2.
KernelBackend ResolveKernelBackend(KernelBackend requested);

/// Resolves the precision: `FKDE_KERNEL_PRECISION` overrides `requested`
/// when set to `double` or `float`.
KernelPrecision ResolveKernelPrecision(KernelPrecision requested);

}  // namespace fkde

#endif  // FKDE_PARALLEL_SIMD_H_
