// Tests for the pluggable kernel backends (kde/kernel_backend.h): the
// pinned error bounds of the float approximation stack, the simd-vs-scalar
// equivalence sweep (double path within 1e-12, float path within the
// documented tolerance, remainder-lane tails included), and the one
// dim-major sample layout under point replacement and shard migration.

#include "kde/kernel_backend.h"

#include <cmath>
#include <cstdlib>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/box.h"
#include "kde/engine.h"
#include "kde/sample.h"
#include "parallel/device.h"
#include "parallel/device_group.h"

namespace fkde {
namespace {

// Whether the simd request actually resolves to vector code in this
// process (AVX2 present and no FKDE_KERNEL_BACKEND=scalar override). The
// equivalence sweeps still run when it does not — the simd engine then
// falls back to the scalar body, which must also match.
bool SimdResolved() {
  return ResolveKernelBackend(KernelBackend::kSimd) == KernelBackend::kSimd;
}

TEST(FloatApprox, ErfBoundPinned) {
  // A&S 7.1.26 is bounded by 1.5e-7 in exact arithmetic; with float
  // rounding and ExpApproxF the documented contract is 1e-6 absolute.
  double worst = 0.0;
  for (int i = -60000; i <= 60000; ++i) {
    const double x = static_cast<double>(i) * 1e-4;  // [-6, 6]
    const double err = std::abs(
        static_cast<double>(kernel::ErfApproxF(static_cast<float>(x))) -
        std::erf(x));
    worst = std::max(worst, err);
  }
  EXPECT_LE(worst, 1e-6);
  // Odd extension and saturation.
  EXPECT_EQ(kernel::ErfApproxF(0.0f), 0.0f);
  EXPECT_NEAR(kernel::ErfApproxF(10.0f), 1.0f, 1e-6f);
  EXPECT_NEAR(kernel::ErfApproxF(-10.0f), -1.0f, 1e-6f);
}

TEST(FloatApprox, ExpBoundPinned) {
  // The float argument reduction loses precision with |x| (the n * ln2
  // subtraction), so the pin tightens toward the origin. The kernel math
  // only reads exp where its value is non-negligible — ErfApproxF
  // saturates past |x| ~ 6 and the Gaussian dh factor decays as
  // exp(-z^2/2) — which is the inner range.
  double worst_near = 0.0;   // [-10, 10]
  double worst_mid = 0.0;    // [-40, 40]
  double worst_full = 0.0;   // [-80, 80]
  for (int i = -8000; i <= 8000; ++i) {
    const double x = static_cast<double>(i) * 1e-2;
    const double exact = std::exp(x);
    const double approx =
        static_cast<double>(kernel::ExpApproxF(static_cast<float>(x)));
    const double rel = std::abs(approx - exact) / exact;
    worst_full = std::max(worst_full, rel);
    if (std::abs(x) <= 40.0) worst_mid = std::max(worst_mid, rel);
    if (std::abs(x) <= 10.0) worst_near = std::max(worst_near, rel);
  }
  EXPECT_LE(worst_near, 1e-6);
  EXPECT_LE(worst_mid, 3e-6);
  EXPECT_LE(worst_full, 5e-6);
}

TEST(FloatApprox, EpanechnikovCdfExactAtSupportBoundaries) {
  // The branchless lane clamp relies on the polynomial being exact at the
  // support edge in float arithmetic: F(-1) = 0, F(1) = 1.
  EXPECT_EQ(0.25f * (2.0f + 3.0f * -1.0f - (-1.0f * -1.0f * -1.0f)), 0.0f);
  EXPECT_EQ(0.25f * (2.0f + 3.0f * 1.0f - (1.0f * 1.0f * 1.0f)), 1.0f);
  EXPECT_EQ(kernel::EpanechnikovCdfF(-1.0f), 0.0f);
  EXPECT_EQ(kernel::EpanechnikovCdfF(1.0f), 1.0f);
}

// ---------------------------------------------------------------------------
// Backend equivalence sweep.

struct EnginePair {
  std::unique_ptr<Device> device;
  std::unique_ptr<DeviceSample> sample;
  std::unique_ptr<KdeEngine> engine;
};

std::vector<double> MakeRows(std::size_t s, std::size_t d,
                             std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> rows(s * d);
  for (double& x : rows) x = rng.Uniform();
  return rows;
}

EnginePair MakeEngine(const DeviceProfile& profile,
                      const std::vector<double>& rows, std::size_t s,
                      std::size_t d, KernelType kernel) {
  EnginePair pair;
  pair.device = std::make_unique<Device>(profile);
  pair.sample = std::make_unique<DeviceSample>(pair.device.get(), s, d);
  FKDE_CHECK_OK(pair.sample->LoadRows(rows, s));
  pair.engine = std::make_unique<KdeEngine>(pair.sample.get(), kernel);
  return pair;
}

DeviceProfile SimdDoubleProfile() {
  DeviceProfile profile = DeviceProfile::SimdCpu();
  profile.kernel_precision = KernelPrecision::kDouble;
  return profile;
}

std::vector<Box> SweepBoxes(std::size_t d, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Box> boxes;
  for (std::size_t q = 0; q < 12; ++q) {
    std::vector<double> lo(d), hi(d);
    for (std::size_t j = 0; j < d; ++j) {
      const double a = rng.Uniform();
      const double b = rng.Uniform();
      lo[j] = std::min(a, b);
      hi[j] = std::max(a, b);
    }
    boxes.emplace_back(lo, hi);
  }
  return boxes;
}

// Sweeps s x d x kernel comparing the simd backend against the scalar
// reference: estimates, gradients, and the batched path. The s values are
// chosen to exercise the remainder-lane tails (1 and 7 are all-tail; 1023
// = 127*8 + 7 and 4097 = 512*8 + 1 leave partial tails).
TEST(BackendEquivalence, SimdMatchesScalarAcrossSizesAndDims) {
  for (const KernelType kernel :
       {KernelType::kGaussian, KernelType::kEpanechnikov}) {
    for (const std::size_t s : {std::size_t{1}, std::size_t{7},
                                std::size_t{1023}, std::size_t{4097}}) {
      for (const std::size_t d :
           {std::size_t{1}, std::size_t{3}, std::size_t{8}}) {
        const std::vector<double> rows = MakeRows(s, d, 17 * s + d);
        EnginePair scalar =
            MakeEngine(DeviceProfile::OpenClCpu(), rows, s, d, kernel);
        EnginePair simd_f64 =
            MakeEngine(SimdDoubleProfile(), rows, s, d, kernel);
        EnginePair simd_f32 =
            MakeEngine(DeviceProfile::SimdCpu(), rows, s, d, kernel);
        ASSERT_EQ(scalar.engine->shard_backend(0), KernelBackend::kScalar);

        // Identical samples and backend-independent moments must yield
        // identical Scott bandwidths.
        ASSERT_EQ(scalar.engine->bandwidth(), simd_f64.engine->bandwidth());
        ASSERT_EQ(scalar.engine->bandwidth(), simd_f32.engine->bandwidth());

        const std::vector<Box> boxes = SweepBoxes(d, 23 * s + d);
        std::vector<double> g_ref, g_f64, g_f32;
        for (const Box& box : boxes) {
          const double ref =
              scalar.engine->EstimateWithGradient(box, &g_ref);
          const double e64 =
              simd_f64.engine->EstimateWithGradient(box, &g_f64);
          const double e32 =
              simd_f32.engine->EstimateWithGradient(box, &g_f32);

          // Double lanes: 1e-12 relative of the scalar backend.
          EXPECT_NEAR(e64, ref, 1e-12 * std::max(1.0, std::abs(ref)));
          for (std::size_t j = 0; j < d; ++j) {
            EXPECT_NEAR(g_f64[j], g_ref[j],
                        1e-12 * std::max(1.0, std::abs(g_ref[j])));
          }

          // Float lanes: the documented absolute estimate bound, and an
          // atol+rtol form for the gradient (its scale carries 1/h^2).
          EXPECT_NEAR(e32, ref, kb::FloatPathEstimateTolerance(d));
          for (std::size_t j = 0; j < d; ++j) {
            const double h = scalar.engine->bandwidth()[j];
            const double tol =
                1e-4 * std::max(1.0, std::abs(g_ref[j])) + 2e-5 / h;
            EXPECT_NEAR(g_f32[j], g_ref[j], tol)
                << "kernel=" << static_cast<int>(kernel) << " s=" << s
                << " d=" << d << " j=" << j;
          }
        }

        // Batched path, all queries in one pass.
        std::vector<double> batch_ref(boxes.size());
        std::vector<double> batch_f64(boxes.size());
        std::vector<double> batch_f32(boxes.size());
        scalar.engine->EstimateBatch(boxes, batch_ref);
        simd_f64.engine->EstimateBatch(boxes, batch_f64);
        simd_f32.engine->EstimateBatch(boxes, batch_f32);
        for (std::size_t q = 0; q < boxes.size(); ++q) {
          EXPECT_NEAR(batch_f64[q], batch_ref[q],
                      1e-12 * std::max(1.0, std::abs(batch_ref[q])));
          EXPECT_NEAR(batch_f32[q], batch_ref[q],
                      kb::FloatPathEstimateTolerance(d));
        }
      }
    }
  }
}

// The variable-KDE point scales defeat the per-query hoist; both backends
// must still agree.
TEST(BackendEquivalence, SimdMatchesScalarWithPointScales) {
  const std::size_t s = 1023;
  const std::size_t d = 3;
  const std::vector<double> rows = MakeRows(s, d, 99);
  for (const KernelType kernel :
       {KernelType::kGaussian, KernelType::kEpanechnikov}) {
    EnginePair scalar =
        MakeEngine(DeviceProfile::OpenClCpu(), rows, s, d, kernel);
    EnginePair simd_f64 = MakeEngine(SimdDoubleProfile(), rows, s, d, kernel);
    EnginePair simd_f32 =
        MakeEngine(DeviceProfile::SimdCpu(), rows, s, d, kernel);
    Rng rng(7);
    std::vector<double> scales(s);
    for (double& x : scales) x = 0.5 + rng.Uniform();
    FKDE_CHECK_OK(scalar.engine->SetPointScales(scales));
    FKDE_CHECK_OK(simd_f64.engine->SetPointScales(scales));
    FKDE_CHECK_OK(simd_f32.engine->SetPointScales(scales));
    for (const Box& box : SweepBoxes(d, 31)) {
      const double ref = scalar.engine->Estimate(box);
      EXPECT_NEAR(simd_f64.engine->Estimate(box), ref,
                  1e-12 * std::max(1.0, std::abs(ref)));
      EXPECT_NEAR(simd_f32.engine->Estimate(box), ref,
                  kb::FloatPathEstimateTolerance(d));
    }
  }
}

// ---------------------------------------------------------------------------
// One sample layout: point replacement and shard migration write rows into
// the dim-major strips, which must then hold exactly what a fresh upload
// of the same rows into the same shard layout holds.

std::vector<double> FloatRounded(std::vector<double> rows) {
  for (double& x : rows) x = static_cast<double>(static_cast<float>(x));
  return rows;
}

TEST(SampleLayout, ReplaceRowMatchesFreshLoad) {
  const std::size_t s = 513;  // Odd size: remainder tail in every lane op.
  const std::size_t d = 3;
  for (const DeviceProfile& profile :
       {DeviceProfile::OpenClCpu(), DeviceProfile::SimdCpu()}) {
    SCOPED_TRACE(profile.name);
    std::vector<double> rows = MakeRows(s, d, 5);
    EnginePair replaced =
        MakeEngine(profile, rows, s, d, KernelType::kGaussian);
    const Box box(std::vector<double>(d, 0.2), std::vector<double>(d, 0.8));
    (void)replaced.engine->Estimate(box);

    // Replace a scatter of rows (the Karma/reservoir path): one d-float
    // transfer each.
    Rng rng(11);
    for (const std::size_t slot : {std::size_t{0}, std::size_t{8},
                                   std::size_t{511}, std::size_t{512}}) {
      std::vector<double> row(d);
      for (double& x : row) x = rng.Uniform();
      for (std::size_t j = 0; j < d; ++j) rows[slot * d + j] = row[j];
      const TransferLedger before = replaced.device->ledger();
      replaced.sample->ReplaceRow(slot, row);
      EXPECT_EQ(replaced.device->ledger().transfers_to_device,
                before.transfers_to_device + 1);
      EXPECT_EQ(replaced.device->ledger().bytes_to_device,
                before.bytes_to_device + d * sizeof(float));
      EXPECT_EQ(replaced.sample->ReadRow(slot), FloatRounded(row));
    }

    Device device(profile);
    DeviceSample fresh_sample(&device, s, d);
    FKDE_CHECK_OK(fresh_sample.LoadShardLayout(
        rows, s, replaced.sample->ShardSlots()));
    KdeEngine fresh(&fresh_sample, KernelType::kGaussian);
    FKDE_CHECK_OK(fresh.SetBandwidth(replaced.engine->bandwidth()));
    EXPECT_EQ(replaced.sample->GatherRows(), FloatRounded(rows));
    EXPECT_EQ(replaced.engine->Estimate(box), fresh.Estimate(box));
    std::vector<double> g_replaced, g_fresh;
    EXPECT_EQ(replaced.engine->EstimateWithGradient(box, &g_replaced),
              fresh.EstimateWithGradient(box, &g_fresh));
    EXPECT_EQ(g_replaced, g_fresh);
  }
}

TEST(SampleLayout, MigrationMatchesFreshLoad) {
  // Skewed busy observations force a migrating rebalance on gpu+gpu; the
  // receiver's strips then hold the donor's tail rows exactly as a fresh
  // upload of the post-migration layout would.
  const std::size_t s = 1024;
  const std::size_t d = 3;
  const std::vector<double> rows = MakeRows(s, d, 13);
  const std::vector<DeviceProfile> profiles =
      ParseDeviceTopology("gpu+gpu").ValueOrDie();
  DeviceGroupOptions options;
  options.rebalance_interval = 1;
  DeviceGroup group(profiles, std::move(options));
  DeviceSample sample(&group, s, d);
  FKDE_CHECK_OK(sample.LoadRows(rows, s));
  KdeEngine engine(&sample, KernelType::kGaussian);
  const Box box(std::vector<double>(d, 0.2), std::vector<double>(d, 0.8));
  (void)engine.Estimate(box);

  // Pretend shard 0 is 4x slower than shard 1 until rows migrate.
  const std::uint64_t epoch = sample.migration_epoch();
  for (int pass = 0; pass < 64 && sample.migration_epoch() == epoch;
       ++pass) {
    const double sizes[] = {static_cast<double>(sample.shard_size(0)),
                            static_cast<double>(sample.shard_size(1))};
    const double busy[] = {sizes[0] * 4e-6, sizes[1] * 1e-6};
    sample.ObserveShardSeconds(busy);
    sample.MaybeRebalance();
  }
  ASSERT_GT(sample.migration_epoch(), epoch) << "no migration triggered";
  ASSERT_GT(sample.rows_migrated(), 0u);
  const double migrated = engine.Estimate(box);

  DeviceGroupOptions fixed;
  fixed.rebalance = false;
  DeviceGroup fresh_group(profiles, std::move(fixed));
  DeviceSample fresh_sample(&fresh_group, s, d);
  FKDE_CHECK_OK(fresh_sample.LoadShardLayout(rows, s, sample.ShardSlots()));
  KdeEngine fresh(&fresh_sample, KernelType::kGaussian);
  FKDE_CHECK_OK(fresh.SetBandwidth(engine.bandwidth()));
  EXPECT_EQ(fresh_sample.shard_sizes(), sample.shard_sizes());
  EXPECT_EQ(sample.GatherRows(), FloatRounded(rows));
  EXPECT_EQ(fresh.Estimate(box), migrated);
}

// ---------------------------------------------------------------------------
// Resolution, profiles, calibration.

TEST(BackendResolution, ParseAndNames) {
  EXPECT_EQ(ParseKernelBackendName("scalar").ValueOrDie(),
            KernelBackend::kScalar);
  EXPECT_EQ(ParseKernelBackendName("SIMD").ValueOrDie(),
            KernelBackend::kSimd);
  EXPECT_FALSE(ParseKernelBackendName("avx9000").ok());
  EXPECT_EQ(ParseKernelPrecisionName("float").ValueOrDie(),
            KernelPrecision::kFloat);
  EXPECT_EQ(ParseKernelPrecisionName("f64").ValueOrDie(),
            KernelPrecision::kDouble);
  EXPECT_STREQ(KernelBackendName(KernelBackend::kSimd), "simd");
  EXPECT_STREQ(KernelPrecisionName(KernelPrecision::kFloat), "float");
}

TEST(BackendResolution, EnvOverrideForcesScalar) {
  // The CI matrix runs this binary once plainly and once with
  // FKDE_KERNEL_BACKEND=scalar; under the override every simd request
  // must resolve to scalar (and the sweeps above then pin that the
  // fallback still matches the reference).
  const char* env = std::getenv("FKDE_KERNEL_BACKEND");
  if (env != nullptr && std::string(env) == "scalar") {
    EXPECT_EQ(ResolveKernelBackend(KernelBackend::kSimd),
              KernelBackend::kScalar);
    EnginePair simd = MakeEngine(DeviceProfile::SimdCpu(),
                                 MakeRows(64, 2, 3), 64, 2,
                                 KernelType::kGaussian);
    EXPECT_EQ(simd.engine->shard_backend(0), KernelBackend::kScalar);
  } else if (CpuSupportsSimd()) {
    EXPECT_EQ(ResolveKernelBackend(KernelBackend::kSimd),
              KernelBackend::kSimd);
  }
}

TEST(Calibration, InstallsRatioIntoSimdCpuProfile) {
  const kb::BackendCalibration& cal = kb::CalibrateKernelBackends();
  EXPECT_GT(cal.scalar_ops_per_sec, 0.0);
  EXPECT_GT(cal.simd_ops_per_sec, 0.0);
  if (!SimdResolved()) {
    EXPECT_EQ(cal.ratio, 1.0);
    return;
  }
  EXPECT_GT(cal.ratio, 1.0);
  EXPECT_EQ(SimdThroughputRatio(), cal.ratio);
  // Profiles built after calibration model the measured CPU.
  const DeviceProfile cpu = DeviceProfile::OpenClCpu();
  const DeviceProfile simd = DeviceProfile::SimdCpu();
  EXPECT_NEAR(simd.compute_throughput, cpu.compute_throughput * cal.ratio,
              1e-9 * simd.compute_throughput);
}

}  // namespace
}  // namespace fkde
