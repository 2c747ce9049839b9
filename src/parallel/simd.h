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
///    4-wide double lanes) reading a structure-of-arrays view of the
///    sample so lanes load contiguous per-dimension strips.
///
/// The *precision* decides the lane type of the SIMD path (and the math
/// used by the scalar fallback when float is forced):
///
///  * `kDouble` — double lane math, libm `erf`/`exp`. Results stay within
///    1e-12 of the scalar backend (pinned by kernel_backend_test).
///  * `kFloat`  — float storage and float lane math with polynomial
///    `erf`/`exp` approximations (see kde/kernels.h for the documented
///    error bounds); accumulation into the contribution/partial buffers
///    stays double, so the segmented reductions are unchanged.
///
/// Selection is **per device** through `DeviceProfile::kernel_backend` /
/// `kernel_precision`, resolved at engine construction with runtime CPU
/// dispatch: requesting `kSimd` on a machine without AVX2 quietly falls
/// back to `kScalar`. The environment variables `FKDE_KERNEL_BACKEND`
/// (`scalar`|`simd`|`auto`) and `FKDE_KERNEL_PRECISION`
/// (`double`|`float`) override every profile — the CI scalar-fallback leg
/// sets `FKDE_KERNEL_BACKEND=scalar` and reruns the equivalence suites.

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
  kDouble,  ///< libm erf/exp, 1e-12-equivalent to scalar.
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
