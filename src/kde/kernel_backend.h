/// \file kernel_backend.h
/// \brief Pluggable execution backends for the fused KDE inner loops.
///
/// Every KDE hot path runs one of three fused per-point loops inside a
/// kernel body: the contribution kernel (eq. 13 product of per-dimension
/// CDF differences), the fused contribution+gradient kernel (eq. 17 via
/// prefix/suffix products), and the Scott moments kernel. All of them
/// read the sample in its one device layout, dim-major strips
/// (`sample[j * stride + i]`, see sample.h). This layer provides those
/// loops in two backends behind one call signature, plus group entry
/// points over them that also add each 256-row group into group sums (the
/// first reduction level), so the engine's `EnqueueLaunch` bodies are
/// thin dispatchers:
///
///  * **scalar** — the seed's per-point loops over `kernel::CdfDiff*`.
///    With the per-(query, dim) reciprocals hoisted by
///    `kernel::HoistFactors` the math is bitwise-identical to the
///    pre-backend engine. Also the fallback of every simd body the CPU
///    or the precision cannot vectorize, and the remainder tail of the
///    double lanes.
///  * **simd** — explicitly vectorized AVX2 loops, each lane load a
///    contiguous run of one strip. 8-wide float lanes in `kFloat`
///    precision with the polynomial `ErfApproxF`/`ExpApproxF` math of
///    kernels.h; 4-wide double lanes for the Epanechnikov contribution and
///    gradient in `kDouble` precision. The Gaussian double paths run the
///    scalar body: they need libm `erf`/`exp` per lane, and a vector
///    `erf` cannot reproduce libm's bits.
///
/// The engine picks the body from the CPU, not from the device profile:
/// every shard runs simd where AVX2 is present (unless
/// `FKDE_KERNEL_BACKEND=scalar`), and the profile only decides whether it
/// gets float lane math (see KdeEngine::shard_backend).
///
/// ## Precision contract
///
/// The contribution/partial buffers are ALWAYS double and the segmented
/// reductions are untouched: float lane products are widened to double at
/// store. Consequences, pinned by kernel_backend_test:
///
///  * `kDouble` lanes are bitwise equal to the scalar backend on every
///    input: the same operations in the same order, with no FMA
///    contraction (kernel_backend.cc builds with `-ffp-contract=off`),
///    per-lane point-scale reciprocals by the same divide, and a
///    branchless clamp that lands exactly on the scalar branches'
///    constants. Finite inputs give identical bits; NaN bounds give NaN
///    from both bodies.
///  * `kFloat` lanes carry the polynomial-approximation error: each
///    Gaussian CDF-difference factor is within 1e-6 absolute (A&S 7.1.26
///    bound + float rounding), so a d-dimensional per-point contribution
///    is within ~d·1e-6 absolute and the averaged estimate within
///    `FloatPathEstimateTolerance(d)`.
///
/// ## Calibration
///
/// `CalibrateKernelBackends()` measures the raw per-element throughput of
/// the fused contribution loop under both backends (cached after the
/// first call) and installs the simd/scalar ratio via
/// `SetSimdThroughputRatio`, so `DeviceProfile::SimdCpu()` profiles
/// created afterwards model the cpu shard of `cpu-simd+gpu` topologies at
/// this machine's real vectorized throughput.

#ifndef FKDE_KDE_KERNEL_BACKEND_H_
#define FKDE_KDE_KERNEL_BACKEND_H_

#include <cstddef>

#include "common/annotations.h"
#include "kde/kernels.h"
#include "parallel/simd.h"

namespace fkde {
namespace kb {

/// Dimension ceiling of the fused loops' stack arrays; must match the
/// engine's kMaxDims (static_asserted in engine.cc).
inline constexpr std::size_t kMaxDims = 32;

/// \brief Everything a fused loop needs to read one shard: resolved
/// backend/precision, kernel type, and raw device pointers. The engine
/// captures the pointer-free part by value into kernel bodies, and each
/// body binds it (`Over`) to the pointers its launch's accessors hand it.
struct ShardKernelView {
  KernelBackend backend = KernelBackend::kScalar;
  KernelPrecision precision = KernelPrecision::kDouble;
  KernelType kernel = KernelType::kGaussian;
  std::size_t d = 0;
  /// Dim-major sample strips: coordinate j of point i at
  /// `sample[j * stride + i]`.
  const float* sample = nullptr;
  std::size_t stride = 0;
  /// Device-resident diagonal bandwidth (d doubles).
  const double* h = nullptr;
  /// Per-point bandwidth scales (variable KDE), or nullptr. Scales defeat
  /// the per-query hoisting (h_eff = h_j * scale_i is per point) but both
  /// backends still vectorize/stream over them.
  const float* scales = nullptr;

  /// This view reading the given sample strips, bandwidth and scales.
  ShardKernelView Over(const float* sample_strips,
                       const double* bandwidth = nullptr,
                       const float* point_scales = nullptr) const {
    ShardKernelView view = *this;
    view.sample = sample_strips;
    view.h = bandwidth;
    view.scales = point_scales;
    return view;
  }
};

/// Fused contribution loop over points [begin, end): writes the
/// d-dimensional product of CDF differences for query bounds `qb`
/// (layout l_0..l_{d-1}, u_0..u_{d-1}) into `contrib[i]`. Serves both the
/// single-query kernel and, called once per query of a tile, the batched
/// kernel.
FKDE_HOT void FusedContribution(const ShardKernelView& view,
                                const double* qb, double* contrib,
                                std::size_t begin, std::size_t end);

/// Fused contribution+gradient loop: additionally writes the per-dimension
/// gradient partial `prefix_j * dcdf_j * suffix_{j+1}` into
/// `partials[j * row_pitch + (i - partials_origin)]`. For a whole-shard
/// partials buffer the origin is 0 and `row_pitch` the segment pitch of
/// the downstream segmented reduction (the shard's current row count);
/// for a tile of rows [begin, end) the origin is `begin`, so `partials`
/// points at the tile itself.
FKDE_HOT void FusedContributionGrad(const ShardKernelView& view,
                                    const double* qb, double* contrib,
                                    double* partials, std::size_t row_pitch,
                                    std::size_t begin, std::size_t end,
                                    std::size_t partials_origin = 0);

/// Scott moments loop: writes x into `out[(2j) * rows + i]` and x² into
/// `out[(2j+1) * rows + i]` for each dimension j. Always double math on
/// the widened float value (both precisions), so results are
/// backend-independent. The engine runs `MomentsGroups`; this loop is its
/// unfused reference.
FKDE_HOT void Moments(const ShardKernelView& view, double* out,
                      std::size_t rows, std::size_t begin, std::size_t end);

// Group entry points. Each runs over the row groups [group_begin,
// group_end) of a shard of `rows` rows — `kReduceGroupSize` rows per
// group, the last one possibly short — and adds each group's values left
// to right from 0.0 into one group sum: the order of the first level of
// the device reduction tree, so a segmented reduction over the group sums
// (segment size G = ⌈rows / kReduceGroupSize⌉) yields the bits a
// reduction over the per-row values would.

/// `FusedContribution` over the groups' rows, which it still writes to
/// `contrib` (Karma reads them), plus each group's contribution sum into
/// `group_sums[g]`.
FKDE_HOT void ContributionGroups(const ShardKernelView& view,
                                 const double* qb, double* contrib,
                                 double* group_sums, std::size_t rows,
                                 std::size_t group_begin,
                                 std::size_t group_end);

/// `FusedContributionGrad` over the groups' rows: contributions into
/// `contrib`, dimension j's partial sum of group g into
/// `grad_sums[j * G + g]` and, when `est_sums` is non-null, the
/// contribution sum into `est_sums[g]`. The partials exist only in a
/// fixed-size stack tile.
FKDE_HOT void ContributionGradGroups(const ShardKernelView& view,
                                     const double* qb, double* contrib,
                                     double* grad_sums, double* est_sums,
                                     std::size_t rows,
                                     std::size_t group_begin,
                                     std::size_t group_end);

/// The `Moments` values' group sums: Σx of dimension j into
/// `sums[(2j) * G + g]`, Σx² into `sums[(2j+1) * G + g]`.
FKDE_HOT void MomentsGroups(const ShardKernelView& view, double* sums,
                            std::size_t rows, std::size_t group_begin,
                            std::size_t group_end);

/// Absolute tolerance of the float-precision estimate (mean of s
/// per-point contributions, each a product of d factors with ≤1e-6
/// absolute error on factors bounded by 1): d · 1e-6 plus slack for
/// accumulated float rounding. Pinned empirically by kernel_backend_test.
inline double FloatPathEstimateTolerance(std::size_t d) {
  return 2e-6 * static_cast<double>(d);
}

/// \brief Measured raw throughput of the fused contribution loop, in
/// point-attributes per second (the `ops_per_item` unit of the device
/// cost model).
struct BackendCalibration {
  double scalar_ops_per_sec = 0.0;
  double simd_ops_per_sec = 0.0;
  /// simd / scalar; 1.0 when the simd backend resolves to scalar (no
  /// AVX2 or `FKDE_KERNEL_BACKEND=scalar`).
  double ratio = 1.0;
};

/// Measures both backends once per process (Gaussian kernel, d=3,
/// thousands of points, single-threaded raw loops — no Device in the
/// way), caches the result, and installs the ratio into the parallel
/// layer via `SetSimdThroughputRatio`. Call before constructing
/// `DeviceProfile::SimdCpu()` devices whose modeled time should reflect
/// the measured CPU (the bench harness does this for `cpu-simd`
/// topologies).
const BackendCalibration& CalibrateKernelBackends();

/// Raw single-threaded throughput of one backend/precision combination
/// over `rows` synthetic points in `d` dimensions — the measurement
/// underlying both `CalibrateKernelBackends` and the backend_check bench.
/// Returns point-attributes per second.
double MeasureFusedContributionThroughput(KernelBackend backend,
                                          KernelPrecision precision,
                                          KernelType kernel, std::size_t rows,
                                          std::size_t d, int repetitions);

/// `MeasureFusedContributionThroughput` for the fused contribution+gradient
/// loop (`FusedContributionGrad`) over the same synthetic points.
double MeasureFusedContributionGradThroughput(KernelBackend backend,
                                              KernelPrecision precision,
                                              KernelType kernel,
                                              std::size_t rows, std::size_t d,
                                              int repetitions);

}  // namespace kb
}  // namespace fkde

#endif  // FKDE_KDE_KERNEL_BACKEND_H_
