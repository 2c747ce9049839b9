// Tests for the pluggable kernel backends (kde/kernel_backend.h): the
// pinned error bounds of the float approximation stack, the double vector
// bodies pinned bit for bit to the scalar body (edge cases at kb level,
// and every engine path against a direct scalar reference, remainder-lane
// tails included), the float path within its documented tolerance, and
// the one dim-major sample layout under point replacement and shard
// migration.

#include "kde/kernel_backend.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
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
// The double bodies at kb level: the vector body against the scalar body,
// bit for bit, on the inputs where the branchless lanes and the branching
// scalar code could part.

std::vector<std::uint64_t> BitsOf(const std::vector<double>& values) {
  std::vector<std::uint64_t> bits;
  bits.reserve(values.size());
  for (double x : values) bits.push_back(std::bit_cast<std::uint64_t>(x));
  return bits;
}

// Both fused loops over every point of one double-precision view.
struct KbPass {
  std::vector<double> contrib;       // FusedContribution
  std::vector<double> grad_contrib;  // FusedContributionGrad's estimate
  std::vector<double> partials;      // d strips of s
};

struct KbInputs {
  std::size_t s = 0;
  std::size_t d = 0;
  std::vector<float> strips;  // Dim-major, stride s.
  std::vector<double> h;
  std::vector<float> scales;  // Empty: no point scales.
};

KbPass RunKb(KernelBackend backend, KernelType kernel, const KbInputs& in,
             const std::vector<double>& qb) {
  kb::ShardKernelView view;
  view.backend = backend;
  view.precision = KernelPrecision::kDouble;
  view.kernel = kernel;
  view.d = in.d;
  view.stride = in.s;
  view = view.Over(in.strips.data(), in.h.data(),
                   in.scales.empty() ? nullptr : in.scales.data());
  KbPass pass;
  pass.contrib.resize(in.s);
  pass.grad_contrib.resize(in.s);
  pass.partials.resize(in.d * in.s);
  kb::FusedContribution(view, qb.data(), pass.contrib.data(), 0, in.s);
  kb::FusedContributionGrad(view, qb.data(), pass.grad_contrib.data(),
                            pass.partials.data(), in.s, 0, in.s);
  return pass;
}

// The vector body and the scalar body over the same inputs, bit for bit.
void ExpectBodiesAgree(KernelType kernel, const KbInputs& in,
                       const std::vector<double>& qb) {
  const KbPass scalar = RunKb(KernelBackend::kScalar, kernel, in, qb);
  const KbPass simd = RunKb(KernelBackend::kSimd, kernel, in, qb);
  EXPECT_EQ(BitsOf(simd.contrib), BitsOf(scalar.contrib));
  EXPECT_EQ(BitsOf(simd.grad_contrib), BitsOf(scalar.grad_contrib));
  EXPECT_EQ(BitsOf(simd.partials), BitsOf(scalar.partials));
}

// One dimension, h = 0.25 (an exact 1/h of 4), points placed on the box
// [0.25, 0.75]: at l, at u, at z = -1 / +1 for either bound, just inside
// and outside the edges. Nine points: two full lanes and a one-point
// tail, with the lanes holding every kind of point.
KbInputs EdgePoints(bool with_scales) {
  KbInputs in;
  in.s = 9;
  in.d = 1;
  in.strips = {0.25f, 0.75f, 0.5f, 0.0f, 1.0f, 0.25f,
               std::nextafter(0.75f, 1.0f), std::nextafter(0.5f, 0.0f),
               0.75f};
  in.h = {0.25};
  if (with_scales) {
    in.scales = {1.0f, 0.5f, 1.0f, 1.0f, 1.0f, 2.0f, 1.0f, 0.75f, 4.0f};
  }
  return in;
}

TEST(KbEdgeCases, BoundaryPointsMatchScalarBranches) {
  for (const bool with_scales : {false, true}) {
    SCOPED_TRACE(with_scales ? "point scales" : "no scales");
    const KbInputs in = EdgePoints(with_scales);
    for (const KernelType kernel :
         {KernelType::kEpanechnikov, KernelType::kGaussian}) {
      ExpectBodiesAgree(kernel, in, {0.25, 0.75});
    }
  }
  // The clamp lands exactly on the scalar branches' constants: a point
  // at the box centre sees z = -1 and z = +1, so F(1) - F(-1) = 1.
  const KbPass simd = RunKb(KernelBackend::kSimd, KernelType::kEpanechnikov,
                            EdgePoints(false), {0.25, 0.75});
  EXPECT_EQ(simd.contrib[2], 1.0);
  EXPECT_EQ(simd.contrib[3], 0.0);  // z_l = 1: right of the support.
  EXPECT_EQ(simd.contrib[4], 0.0);  // z_u = -1: left of the support.
}

TEST(KbEdgeCases, ZeroWidthBoxesMatchScalar) {
  for (const bool with_scales : {false, true}) {
    const KbInputs in = EdgePoints(with_scales);
    for (const double x : {0.25, 0.5, 0.75, 0.0, 2.0}) {
      ExpectBodiesAgree(KernelType::kEpanechnikov, in, {x, x});
    }
  }
}

TEST(KbEdgeCases, InfiniteBoundsMatchScalarBitwise) {
  const double inf = std::numeric_limits<double>::infinity();
  const KbInputs in = EdgePoints(false);
  for (const auto& qb : std::vector<std::vector<double>>{
           {-inf, inf}, {-inf, 0.5}, {0.5, inf}, {-inf, -inf}, {inf, inf}}) {
    SCOPED_TRACE(::testing::Message() << "[" << qb[0] << ", " << qb[1] << "]");
    ExpectBodiesAgree(KernelType::kEpanechnikov, in, qb);
    // An infinite bound's density term is zero, not inf * 0: both
    // kernels' estimates and partials stay finite on both bodies.
    for (const KernelType kernel :
         {KernelType::kEpanechnikov, KernelType::kGaussian}) {
      for (const KernelBackend backend :
           {KernelBackend::kScalar, KernelBackend::kSimd}) {
        const KbPass pass = RunKb(backend, kernel, in, qb);
        for (std::size_t i = 0; i < in.s; ++i) {
          EXPECT_TRUE(std::isfinite(pass.contrib[i])) << i;
          EXPECT_TRUE(std::isfinite(pass.grad_contrib[i])) << i;
          EXPECT_TRUE(std::isfinite(pass.partials[i])) << i;
        }
      }
    }
  }
}

TEST(KbEdgeCases, NanBoundsGiveNanFromBothBodies) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const bool with_scales : {false, true}) {
    const KbInputs in = EdgePoints(with_scales);
    for (const auto& qb :
         std::vector<std::vector<double>>{{nan, 0.5}, {0.5, nan}, {nan, nan}}) {
      for (const KernelBackend backend :
           {KernelBackend::kScalar, KernelBackend::kSimd}) {
        const KbPass pass = RunKb(backend, KernelType::kEpanechnikov, in, qb);
        for (std::size_t i = 0; i < in.s; ++i) {
          EXPECT_TRUE(std::isnan(pass.contrib[i])) << i;
          EXPECT_TRUE(std::isnan(pass.grad_contrib[i])) << i;
          EXPECT_TRUE(std::isnan(pass.partials[i])) << i;
        }
      }
    }
  }
}

// kernels.h's Epanechnikov expressions with every operation rounded on
// its own: each intermediate goes through a volatile, so no build of this
// file can fuse a multiply and an add into one FMA. Contracting the
// scalar body would agree with contracted lanes and still move the bits
// every build without fma produces; this oracle catches both.
double EpaCdfRounded(double z) {
  if (z <= -1.0) return 0.0;
  if (z >= 1.0) return 1.0;
  volatile double three_z = 3.0 * z;
  volatile double z2 = z * z;
  volatile double z3 = z2 * z;
  volatile double head = 2.0 + three_z;
  volatile double poly = head - z3;
  volatile double cdf = 0.25 * poly;
  return cdf;
}

double EpaDensityTimesZRounded(double z) {
  if (z <= -1.0 || z >= 1.0) return z * 0.0;
  volatile double z2 = z * z;
  volatile double one_minus = 1.0 - z2;
  volatile double density = 0.75 * one_minus;
  volatile double product = z * density;
  return product;
}

TEST(KbEdgeCases, BodiesRoundEveryOperationAsWritten) {
  const std::size_t s = 4099;  // Full lanes and a three-point tail.
  const std::size_t d = 2;
  Rng rng(41);
  KbInputs in;
  in.s = s;
  in.d = d;
  for (std::size_t k = 0; k < s * d; ++k) {
    in.strips.push_back(static_cast<float>(rng.Uniform()));
  }
  in.h = {0.3, 0.17};
  const std::vector<double> qb = {0.2, 0.35, 0.7, 0.6};
  std::vector<double> contrib(s), partials(d * s);
  for (std::size_t i = 0; i < s; ++i) {
    double cdf[d];
    double dcdf[d];
    for (std::size_t j = 0; j < d; ++j) {
      const double t = static_cast<double>(in.strips[j * s + i]);
      const double inv = 1.0 / in.h[j];
      const double zl = (qb[j] - t) * inv;
      const double zu = (qb[d + j] - t) * inv;
      volatile double upper = EpaCdfRounded(zu);
      volatile double lower = EpaCdfRounded(zl);
      cdf[j] = upper - lower;
      volatile double dl = EpaDensityTimesZRounded(zl);
      volatile double du = EpaDensityTimesZRounded(zu);
      volatile double diff = dl - du;
      dcdf[j] = diff * inv;
    }
    contrib[i] = cdf[0] * cdf[1];
    partials[i] = dcdf[0] * cdf[1];
    partials[s + i] = cdf[0] * dcdf[1];
  }
  for (const KernelBackend backend :
       {KernelBackend::kScalar, KernelBackend::kSimd}) {
    SCOPED_TRACE(KernelBackendName(backend));
    const KbPass pass = RunKb(backend, KernelType::kEpanechnikov, in, qb);
    EXPECT_EQ(BitsOf(pass.contrib), BitsOf(contrib));
    EXPECT_EQ(BitsOf(pass.grad_contrib), BitsOf(contrib));
    EXPECT_EQ(BitsOf(pass.partials), BitsOf(partials));
  }
}

// ---------------------------------------------------------------------------
// Backend equivalence sweep: engines against a direct scalar kb
// reference.

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

// What a single-shard engine must return for one box, from the scalar kb
// body: its per-point contributions and partials, folded by the device
// reduction every engine pass runs, then finished with each path's own
// host arithmetic (Estimate divides by s; the gradient and batched paths
// multiply by 1/s; each sums its shards into a 0.0).
struct ScalarReference {
  double estimate = 0.0;
  double batched = 0.0;
  double grad_estimate = 0.0;
  std::vector<double> gradient;
};

ScalarReference ReferenceFor(KernelType kernel, const KbInputs& in,
                             const Box& box) {
  const std::size_t s = in.s;
  const std::size_t d = in.d;
  std::vector<double> qb(2 * d);
  for (std::size_t j = 0; j < d; ++j) {
    qb[j] = box.lower(j);
    qb[d + j] = box.upper(j);
  }
  const KbPass pass = RunKb(KernelBackend::kScalar, kernel, in, qb);
  Device device(DeviceProfile::OpenClCpu());
  DeviceBuffer<double> contrib = device.CreateBuffer<double>(s);
  DeviceBuffer<double> grad_contrib = device.CreateBuffer<double>(s);
  DeviceBuffer<double> partials = device.CreateBuffer<double>(d * s);
  DeviceBuffer<double> partial_sums = device.CreateBuffer<double>(d);
  device.CopyToDevice(pass.contrib.data(), s, &contrib);
  device.CopyToDevice(pass.grad_contrib.data(), s, &grad_contrib);
  device.CopyToDevice(pass.partials.data(), d * s, &partials);
  ReduceSumSegments(&device, partials, 0, s, d, &partial_sums);
  std::vector<double> sums(d);
  device.CopyToHost(partial_sums, 0, d, sums.data());

  const double inv_s = 1.0 / static_cast<double>(s);
  ScalarReference ref;
  const double total = 0.0 + ReduceSum(&device, contrib, 0, s);
  ref.estimate = total / static_cast<double>(s);
  ref.batched = total * inv_s;
  ref.grad_estimate = (0.0 + ReduceSum(&device, grad_contrib, 0, s)) * inv_s;
  for (const double sum : sums) ref.gradient.push_back((0.0 + sum) * inv_s);
  return ref;
}

KbInputs InputsOf(const std::vector<double>& rows, std::size_t s,
                  std::size_t d, const std::vector<double>& h,
                  const std::vector<double>& scales) {
  KbInputs in;
  in.s = s;
  in.d = d;
  in.strips.resize(s * d);
  for (std::size_t i = 0; i < s; ++i) {
    for (std::size_t j = 0; j < d; ++j) {
      in.strips[j * s + i] = static_cast<float>(rows[i * d + j]);
    }
  }
  in.h = h;
  for (const double x : scales) in.scales.push_back(static_cast<float>(x));
  return in;
}

// Sweeps kernel x s x d, with or without point scales. Every double engine
// — the stock cpu and gpu profiles, which run the vector body wherever
// the CPU has AVX2, and cpu-simd held to double — must return the scalar
// reference's bits on every path; the float engine stays within its
// documented bounds. The s values exercise the remainder-lane tails (1
// and 7 are all-tail for 8-wide lanes; 1023 and 4097 leave partial tails
// for 4- and 8-wide lanes alike).
void SweepAgainstScalarReference(bool with_scales) {
  for (const KernelType kernel :
       {KernelType::kGaussian, KernelType::kEpanechnikov}) {
    for (const std::size_t s : {std::size_t{1}, std::size_t{7},
                                std::size_t{1023}, std::size_t{4097}}) {
      for (const std::size_t d : {std::size_t{1}, std::size_t{3},
                                  std::size_t{8}, kb::kMaxDims}) {
        SCOPED_TRACE(::testing::Message()
                     << "kernel=" << static_cast<int>(kernel) << " s=" << s
                     << " d=" << d << (with_scales ? " scaled" : ""));
        const std::vector<double> rows = MakeRows(s, d, 17 * s + d);
        std::vector<double> scales;
        if (with_scales) {
          Rng rng(7 + s + d);
          for (std::size_t i = 0; i < s; ++i) {
            scales.push_back(0.5 + rng.Uniform());
          }
        }
        std::vector<EnginePair> f64;
        for (const DeviceProfile& profile :
             {DeviceProfile::OpenClCpu(), DeviceProfile::SimulatedGtx460(),
              SimdDoubleProfile()}) {
          f64.push_back(MakeEngine(profile, rows, s, d, kernel));
          ASSERT_EQ(f64.back().engine->shard_precision(0),
                    KernelPrecision::kDouble);
        }
        EnginePair f32 =
            MakeEngine(DeviceProfile::SimdCpu(), rows, s, d, kernel);
        if (with_scales) {
          for (EnginePair& pair : f64) {
            FKDE_CHECK_OK(pair.engine->SetPointScales(scales));
          }
          FKDE_CHECK_OK(f32.engine->SetPointScales(scales));
        }
        // Identical samples and backend-independent moments must yield
        // identical Scott bandwidths.
        const std::vector<double> h = f64[0].engine->bandwidth();
        for (const EnginePair& pair : f64) {
          ASSERT_EQ(pair.engine->bandwidth(), h);
        }
        ASSERT_EQ(f32.engine->bandwidth(), h);
        const KbInputs in = InputsOf(rows, s, d, h, scales);

        const std::vector<Box> boxes = SweepBoxes(d, 23 * s + d);
        std::vector<ScalarReference> refs;
        for (const Box& box : boxes) {
          refs.push_back(ReferenceFor(kernel, in, box));
        }

        // Double engines: the reference's bits on every path.
        std::vector<double> g;
        std::vector<double> batch(boxes.size());
        std::vector<double> batch_g(boxes.size());
        std::vector<double> batch_grad(boxes.size() * d);
        for (EnginePair& pair : f64) {
          SCOPED_TRACE(pair.device->profile().name);
          for (std::size_t q = 0; q < boxes.size(); ++q) {
            EXPECT_EQ(pair.engine->Estimate(boxes[q]), refs[q].estimate);
            EXPECT_EQ(pair.engine->EstimateWithGradient(boxes[q], &g),
                      refs[q].grad_estimate);
            EXPECT_EQ(g, refs[q].gradient);
          }
          pair.engine->EstimateBatch(boxes, batch);
          pair.engine->EstimateBatchWithGradient(boxes, batch_g, batch_grad);
          for (std::size_t q = 0; q < boxes.size(); ++q) {
            EXPECT_EQ(batch[q], refs[q].batched);
            EXPECT_EQ(batch_g[q], refs[q].grad_estimate);
            for (std::size_t j = 0; j < d; ++j) {
              EXPECT_EQ(batch_grad[q * d + j], refs[q].gradient[j]);
            }
          }
        }

        // Float lanes: the documented absolute estimate bound, and an
        // atol+rtol form for the gradient (its scale carries 1/h^2).
        for (std::size_t q = 0; q < boxes.size(); ++q) {
          EXPECT_NEAR(f32.engine->Estimate(boxes[q]), refs[q].estimate,
                      kb::FloatPathEstimateTolerance(d));
          if (with_scales) continue;
          EXPECT_NEAR(f32.engine->EstimateWithGradient(boxes[q], &g),
                      refs[q].grad_estimate,
                      kb::FloatPathEstimateTolerance(d));
          for (std::size_t j = 0; j < d; ++j) {
            const double tol =
                1e-4 * std::max(1.0, std::abs(refs[q].gradient[j])) +
                2e-5 / h[j];
            EXPECT_NEAR(g[j], refs[q].gradient[j], tol) << "j=" << j;
          }
        }
        f32.engine->EstimateBatch(boxes, batch);
        for (std::size_t q = 0; q < boxes.size(); ++q) {
          EXPECT_NEAR(batch[q], refs[q].batched,
                      kb::FloatPathEstimateTolerance(d));
        }
      }
    }
  }
}

TEST(BackendEquivalence, SimdMatchesScalarAcrossSizesAndDims) {
  SweepAgainstScalarReference(/*with_scales=*/false);
}

// The variable-KDE point scales defeat the per-query hoist: each lane
// divides 1 / (h_j * s_i) as the scalar body does.
TEST(BackendEquivalence, SimdMatchesScalarWithPointScales) {
  SweepAgainstScalarReference(/*with_scales=*/true);
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

TEST(BackendResolution, BodyFollowsTheCpuAndProfileGatesFloat) {
  // Every device runs the vector body where the CPU has it; only a simd
  // profile asking for float gets float lane math.
  const std::vector<double> rows = MakeRows(64, 2, 3);
  for (const DeviceProfile& profile :
       {DeviceProfile::OpenClCpu(), DeviceProfile::SimulatedGtx460(),
        SimdDoubleProfile(), DeviceProfile::SimdCpu()}) {
    SCOPED_TRACE(profile.name);
    EnginePair pair =
        MakeEngine(profile, rows, 64, 2, KernelType::kEpanechnikov);
    EXPECT_EQ(pair.engine->shard_backend(0),
              ResolveKernelBackend(KernelBackend::kSimd));
    const bool float_math =
        ResolveKernelBackend(profile.kernel_backend) == KernelBackend::kSimd &&
        ResolveKernelPrecision(profile.kernel_precision) ==
            KernelPrecision::kFloat;
    EXPECT_EQ(pair.engine->shard_precision(0),
              float_math ? KernelPrecision::kFloat : KernelPrecision::kDouble);
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
