#include "kde/engine.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <tuple>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/generators.h"
#include "kde/kde_estimator.h"
#include "opt/optimizer.h"
#include "parallel/device_group.h"
#include "workload/workload.h"

namespace fkde {
namespace {

/// Host-side reference implementation of eq. (2)/(13) for validation.
double ReferenceEstimate(const std::vector<double>& sample, std::size_t s,
                         std::size_t d, const std::vector<double>& h,
                         const Box& box, KernelType kernel) {
  double total = 0.0;
  for (std::size_t i = 0; i < s; ++i) {
    double prod = 1.0;
    for (std::size_t j = 0; j < d; ++j) {
      prod *= kernel::CdfDiff(kernel, sample[i * d + j], h[j], box.lower(j),
                              box.upper(j));
    }
    total += prod;
  }
  return total / static_cast<double>(s);
}

struct EngineFixture {
  EngineFixture(std::size_t rows, std::size_t dims, std::size_t sample_size,
                KernelType kernel, std::uint64_t seed) {
    ClusterBoxesParams params;
    params.rows = rows;
    params.dims = dims;
    table = std::make_unique<Table>(GenerateClusterBoxes(params, seed));
    device = std::make_unique<Device>(DeviceProfile::OpenClCpu());
    sample = std::make_unique<DeviceSample>(device.get(), sample_size, dims);
    Rng rng(seed + 1);
    FKDE_CHECK_OK(sample->LoadFromTable(*table, &rng));
    engine = std::make_unique<KdeEngine>(sample.get(), kernel);
    // Host copy of the sample (row-major) for reference computations.
    host_sample = sample->GatherRows();
  }

  std::unique_ptr<Table> table;
  std::unique_ptr<Device> device;
  std::unique_ptr<DeviceSample> sample;
  std::unique_ptr<KdeEngine> engine;
  std::vector<double> host_sample;
};

TEST(Sample, LoadAndReadBack) {
  Device device(DeviceProfile::OpenClCpu());
  Table table(2);
  table.Insert(std::vector<double>{1.0, 2.0});
  table.Insert(std::vector<double>{3.0, 4.0});
  DeviceSample sample(&device, 2, 2);
  Rng rng(1);
  ASSERT_TRUE(sample.LoadFromTable(table, &rng).ok());
  EXPECT_EQ(sample.size(), 2u);
  // Both table rows must be present (sample == table here).
  const auto r0 = sample.ReadRow(0);
  const auto r1 = sample.ReadRow(1);
  const bool ordered = (r0[0] == 1.0 && r1[0] == 3.0);
  const bool swapped = (r0[0] == 3.0 && r1[0] == 1.0);
  EXPECT_TRUE(ordered || swapped);
}

TEST(Sample, ReplaceRowSingleTransfer) {
  Device device(DeviceProfile::OpenClCpu());
  Table table(3);
  for (int i = 0; i < 10; ++i) {
    table.Insert(std::vector<double>{1.0 * i, 2.0 * i, 3.0 * i});
  }
  DeviceSample sample(&device, 4, 3);
  Rng rng(2);
  ASSERT_TRUE(sample.LoadFromTable(table, &rng).ok());
  const auto before = device.ledger();
  sample.ReplaceRow(2, std::vector<double>{7.0, 8.0, 9.0});
  const auto after = device.ledger();
  EXPECT_EQ(after.transfers_to_device - before.transfers_to_device, 1u);
  EXPECT_EQ(after.bytes_to_device - before.bytes_to_device,
            3u * sizeof(float));
  EXPECT_EQ(sample.ReadRow(2), (std::vector<double>{7.0, 8.0, 9.0}));
}

TEST(Sample, RejectsMismatchedInputs) {
  Device device(DeviceProfile::OpenClCpu());
  Table narrow(1);
  narrow.Insert(std::vector<double>{1.0});
  DeviceSample sample(&device, 4, 2);
  Rng rng(3);
  EXPECT_FALSE(sample.LoadFromTable(narrow, &rng).ok());
  Table empty(2);
  EXPECT_FALSE(sample.LoadFromTable(empty, &rng).ok());
  EXPECT_FALSE(sample.LoadRows(std::vector<double>{1.0, 2.0, 3.0}, 2).ok());
}

TEST(Engine, ScottMatchesHostFormula) {
  EngineFixture f(20000, 3, 512, KernelType::kGaussian, 10);
  const std::vector<double> device_scott = f.engine->bandwidth();
  const std::size_t s = f.sample->size();
  for (std::size_t j = 0; j < 3; ++j) {
    double sum = 0.0, sum_sq = 0.0;
    for (std::size_t i = 0; i < s; ++i) {
      sum += f.host_sample[i * 3 + j];
      sum_sq += f.host_sample[i * 3 + j] * f.host_sample[i * 3 + j];
    }
    const double mean = sum / s;
    const double sigma = std::sqrt(std::max(sum_sq / s - mean * mean, 0.0));
    const double expected = std::pow(static_cast<double>(s), -1.0 / 7.0) *
                            sigma;
    EXPECT_NEAR(device_scott[j], expected, 1e-6 * expected) << "dim " << j;
  }
}

TEST(Engine, EstimateMatchesReference) {
  EngineFixture f(20000, 3, 512, KernelType::kGaussian, 11);
  Rng rng(12);
  for (int round = 0; round < 20; ++round) {
    std::vector<double> lo(3), hi(3);
    for (int j = 0; j < 3; ++j) {
      const double a = rng.Uniform(), b = rng.Uniform();
      lo[j] = std::min(a, b);
      hi[j] = std::max(a, b);
    }
    const Box box(lo, hi);
    const double device_est = f.engine->Estimate(box);
    const double reference =
        ReferenceEstimate(f.host_sample, f.sample->size(), 3,
                          f.engine->bandwidth(), box, KernelType::kGaussian);
    EXPECT_NEAR(device_est, reference, 1e-10);
    EXPECT_DOUBLE_EQ(f.engine->last_estimate(), device_est);
  }
}

TEST(Engine, FullDomainEstimateIsOne) {
  EngineFixture f(10000, 2, 256, KernelType::kGaussian, 13);
  // A region vastly larger than data +- many bandwidths captures all mass.
  const Box everything({-1000.0, -1000.0}, {1000.0, 1000.0});
  EXPECT_NEAR(f.engine->Estimate(everything), 1.0, 1e-9);
}

TEST(Engine, EmptyRegionFarAwayIsZero) {
  EngineFixture f(10000, 2, 256, KernelType::kGaussian, 14);
  const Box far({100.0, 100.0}, {101.0, 101.0});
  EXPECT_NEAR(f.engine->Estimate(far), 0.0, 1e-12);
}

TEST(Engine, MonotoneUnderBoxInclusion) {
  EngineFixture f(10000, 3, 256, KernelType::kGaussian, 15);
  const Box small({0.3, 0.3, 0.3}, {0.6, 0.6, 0.6});
  const Box large({0.2, 0.2, 0.2}, {0.7, 0.7, 0.7});
  EXPECT_LE(f.engine->Estimate(small), f.engine->Estimate(large) + 1e-12);
}

TEST(Engine, EstimateTracksActualSelectivity) {
  // With a decent sample and Scott bandwidth, the estimate lands in the
  // right ballpark for a mid-size region.
  EngineFixture f(50000, 2, 1024, KernelType::kGaussian, 16);
  const Box box({0.2, 0.2}, {0.6, 0.6});
  const double truth = static_cast<double>(f.table->CountInBox(box)) /
                       static_cast<double>(f.table->num_rows());
  const double estimate = f.engine->Estimate(box);
  EXPECT_NEAR(estimate, truth, 0.3 * std::max(truth, 0.05));
}

TEST(Engine, EpanechnikovEstimateMatchesReference) {
  EngineFixture f(10000, 3, 256, KernelType::kEpanechnikov, 17);
  Rng rng(18);
  for (int round = 0; round < 10; ++round) {
    std::vector<double> lo(3), hi(3);
    for (int j = 0; j < 3; ++j) {
      const double a = rng.Uniform(), b = rng.Uniform();
      lo[j] = std::min(a, b);
      hi[j] = std::max(a, b);
    }
    const Box box(lo, hi);
    EXPECT_NEAR(f.engine->Estimate(box),
                ReferenceEstimate(f.host_sample, f.sample->size(), 3,
                                  f.engine->bandwidth(), box,
                                  KernelType::kEpanechnikov),
                1e-10);
  }
}

TEST(Engine, SetBandwidthValidation) {
  EngineFixture f(1000, 2, 64, KernelType::kGaussian, 19);
  EXPECT_FALSE(f.engine->SetBandwidth(std::vector<double>{1.0}).ok());
  EXPECT_FALSE(f.engine->SetBandwidth(std::vector<double>{1.0, 0.0}).ok());
  EXPECT_FALSE(f.engine->SetBandwidth(std::vector<double>{1.0, -2.0}).ok());
  EXPECT_FALSE(
      f.engine
          ->SetBandwidth(std::vector<double>{
              1.0, std::numeric_limits<double>::infinity()})
          .ok());
  EXPECT_TRUE(f.engine->SetBandwidth(std::vector<double>{0.5, 2.0}).ok());
  EXPECT_EQ(f.engine->bandwidth(), (std::vector<double>{0.5, 2.0}));
}

// The estimator gradient (eq. 17) against finite differences — the core
// correctness requirement of the whole optimization machinery.
class EngineGradientSweep
    : public ::testing::TestWithParam<std::tuple<int, KernelType>> {};

TEST_P(EngineGradientSweep, GradientMatchesFiniteDifference) {
  const int dims = std::get<0>(GetParam());
  const KernelType kernel = std::get<1>(GetParam());
  EngineFixture f(5000, dims, 128, kernel, 20 + dims);
  Rng rng(21);
  // A few random boxes, gradient checked in h-space.
  for (int round = 0; round < 5; ++round) {
    std::vector<double> lo(dims), hi(dims);
    for (int j = 0; j < dims; ++j) {
      const double a = rng.Uniform(), b = rng.Uniform();
      lo[j] = std::min(a, b);
      hi[j] = std::max(a, b);
    }
    const Box box(lo, hi);
    const std::vector<double> h0 = f.engine->bandwidth();

    Objective objective = [&](std::span<const double> h,
                              std::span<double> grad) {
      FKDE_CHECK_OK(f.engine->SetBandwidth(h));
      if (grad.empty()) return f.engine->Estimate(box);
      std::vector<double> g;
      const double est = f.engine->EstimateWithGradient(box, &g);
      std::copy(g.begin(), g.end(), grad.begin());
      return est;
    };
    EXPECT_LT(MaxGradientError(objective, h0, 1e-5), 2e-3)
        << "dims=" << dims << " kernel=" << KernelName(kernel) << " box "
        << box.ToString();
    FKDE_CHECK_OK(f.engine->SetBandwidth(h0));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, EngineGradientSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 5, 8),
                       ::testing::Values(KernelType::kGaussian,
                                         KernelType::kEpanechnikov)));

TEST(Engine, GradientAgreesWithEstimate) {
  // EstimateWithGradient must return the same estimate as Estimate.
  EngineFixture f(5000, 3, 128, KernelType::kGaussian, 30);
  const Box box({0.2, 0.3, 0.1}, {0.7, 0.8, 0.9});
  const double plain = f.engine->Estimate(box);
  std::vector<double> grad;
  const double with_grad = f.engine->EstimateWithGradient(box, &grad);
  EXPECT_DOUBLE_EQ(plain, with_grad);
  EXPECT_EQ(grad.size(), 3u);
}

TEST(Engine, ContributionsRetainedAndConsistent) {
  EngineFixture f(5000, 2, 128, KernelType::kGaussian, 31);
  const Box box({0.1, 0.1}, {0.5, 0.5});
  const double estimate = f.engine->Estimate(box);
  // Average of retained per-point contributions equals the estimate.
  const std::size_t s = f.sample->size();
  std::vector<double> contrib(s);
  f.device->CopyToHost(f.engine->contributions(), 0, s, contrib.data());
  double total = 0.0;
  for (double c : contrib) {
    EXPECT_GE(c, 0.0);
    EXPECT_LE(c, 1.0 + 1e-12);
    total += c;
  }
  EXPECT_NEAR(total / static_cast<double>(s), estimate, 1e-12);
}

TEST(Engine, PerQueryTrafficIsTiny) {
  // The paper's transfer-efficiency property: after construction, an
  // estimate moves only bounds down and one scalar up.
  EngineFixture f(5000, 4, 1024, KernelType::kGaussian, 32);
  const Box box({0.1, 0.1, 0.1, 0.1}, {0.5, 0.5, 0.5, 0.5});
  (void)f.engine->Estimate(box);  // Warm.
  const auto before = f.device->ledger();
  (void)f.engine->Estimate(box);
  const auto after = f.device->ledger();
  EXPECT_EQ(after.bytes_to_device - before.bytes_to_device,
            2 * 4 * sizeof(double));  // Bounds.
  EXPECT_EQ(after.bytes_to_host - before.bytes_to_host, sizeof(double));
}

TEST(Engine, EstimateOnlySlotsHoldNoGradientPartials) {
  // No slot holds gradient partials: the gradient producer folds them
  // into pooled group sums, so a slot that ran a gradient pass holds
  // exactly what an estimate-only slot does.
  constexpr std::size_t kDims = 4;
  constexpr std::size_t kSample = 512;
  EngineFixture f(5000, kDims, kSample, KernelType::kGaussian, 33);
  const Box box({0.1, 0.1, 0.1, 0.1}, {0.5, 0.5, 0.5, 0.5});
  const std::size_t estimate_only =
      (2 * kDims + kSample + kDims + 1) * sizeof(double);
  EXPECT_EQ(f.engine->SlotBytes(), estimate_only);
  (void)f.engine->Estimate(box);
  std::vector<double> estimates(3);
  f.engine->EstimateBatch(std::vector<Box>(3, box), estimates);
  EXPECT_EQ(f.engine->SlotBytes(), estimate_only);

  std::vector<double> gradient;
  (void)f.engine->EstimateWithGradient(box, &gradient);
  EXPECT_EQ(f.engine->SlotBytes(), estimate_only);
}

TEST(Engine, LazilyAllocatedPartialsKeepGradientsBitwise) {
  // The enqueued (adaptive) gradient of a slot, whose producer emits no
  // estimate group sums, equals the synchronous gradient bitwise.
  EngineFixture a(5000, 3, 1024, KernelType::kEpanechnikov, 34);
  EngineFixture b(5000, 3, 1024, KernelType::kEpanechnikov, 34);
  const Box box({0.1, 0.2, 0.1}, {0.6, 0.5, 0.7});
  std::vector<double> sync_gradient;
  (void)a.engine->EstimateWithGradient(box, &sync_gradient);
  const std::size_t slot = b.engine->BeginEstimateSlot(box);
  (void)b.engine->FinishEstimateSlot(slot);
  b.engine->EnqueueGradientSlot(slot);
  std::vector<double> gradient;
  b.engine->CollectGradientSlot(slot, &gradient);
  b.engine->ReleaseSlot(slot);
  ASSERT_EQ(gradient.size(), sync_gradient.size());
  for (std::size_t j = 0; j < gradient.size(); ++j) {
    EXPECT_EQ(gradient[j], sync_gradient[j]) << "dim " << j;
  }
}


// ---------------------------------------------------------------------------
// ReduceFold: every producer adds its 256-row groups into group sums — the
// first level of the reduction tree — so the separate reduction starts at
// level 2. The reference runs the unfused kernels (kb::FusedContribution,
// FusedContributionGrad, Moments) into device buffers and reduces them with
// the standalone tree (ReduceSum / ReduceSumSegments): the engine must
// match it bit for bit, on one device and across uneven shards.

std::uint64_t Bits(double v) { return std::bit_cast<std::uint64_t>(v); }

std::vector<double> UniformRows(std::size_t rows, std::size_t dims,
                                std::uint64_t seed) {
  std::vector<double> data(rows * dims);
  Rng rng(seed);
  for (double& v : data) v = rng.Uniform();
  return data;
}

/// One shard's unfused reference pass for `bounds`: the per-row
/// contributions, their tree sum and, for the gradient kernel, the tree
/// sums of the d dim-major partial segments.
struct ShardReference {
  std::vector<double> contributions;
  double estimate_sum = 0.0;
  std::vector<double> gradient_sums;
};

ShardReference ReferencePass(const KdeEngine& engine,
                             const DeviceSample& sample, std::size_t shard,
                             const std::vector<double>& bounds,
                             const std::vector<double>& scales,
                             bool gradient) {
  const std::size_t d = engine.dims();
  const std::size_t rows = sample.shard_size(shard);
  Device* dev = sample.shard_device(shard);
  kb::ShardKernelView view;
  view.backend = engine.shard_backend(shard);
  view.precision = engine.shard_precision(shard);
  view.kernel = engine.kernel();
  view.d = d;
  view.stride = sample.stride();

  auto h = dev->CreateBuffer<double>(d);
  dev->CopyToDevice(engine.bandwidth().data(), d, &h);
  auto qb = dev->CreateBuffer<double>(2 * d);
  dev->CopyToDevice(bounds.data(), 2 * d, &qb);
  auto local_scales = dev->CreateBuffer<float>(rows);
  if (!scales.empty()) {
    std::vector<float> staging(rows);
    for (std::size_t i = 0; i < rows; ++i) {
      staging[i] = static_cast<float>(scales[sample.GlobalSlot(shard, i)]);
    }
    dev->CopyToDevice(staging.data(), rows, &local_scales);
  }
  auto contrib = dev->CreateBuffer<double>(rows);
  auto partials = dev->CreateBuffer<double>(d * rows);
  const auto reads = std::tuple(
      In(sample.shard_buffer(shard), 0, rows, sample.stride(), d),
      In(h, 0, d), InIf(!scales.empty(), local_scales, 0, rows),
      In(qb, 0, 2 * d));
  ShardReference ref;
  if (gradient) {
    dev->Launch("reference_contributions_grad", rows, 3.0 * d,
                std::tuple_cat(reads, std::tuple(Out(contrib, 0, rows),
                                                 Out(partials, 0, d * rows))),
                [view, rows](std::size_t begin, std::size_t end,
                             const float* x, const double* hp,
                             const float* sc, const double* q, double* c,
                             double* p) {
                  kb::FusedContributionGrad(view.Over(x, hp, sc), q, c, p,
                                            rows, begin, end);
                });
    auto sums = dev->CreateBuffer<double>(d);
    ReduceSumSegments(dev, partials, 0, rows, d, &sums);
    ref.gradient_sums.resize(d);
    dev->CopyToHost(sums, 0, d, ref.gradient_sums.data());
  } else {
    dev->Launch("reference_contributions", rows, 1.0 * d,
                std::tuple_cat(reads, std::tuple(Out(contrib, 0, rows))),
                [view](std::size_t begin, std::size_t end, const float* x,
                       const double* hp, const float* sc, const double* q,
                       double* c) {
                  kb::FusedContribution(view.Over(x, hp, sc), q, c, begin,
                                        end);
                });
  }
  ref.estimate_sum = ReduceSum(dev, contrib, 0, rows);
  ref.contributions.resize(rows);
  dev->CopyToHost(contrib, 0, rows, ref.contributions.data());
  return ref;
}

/// The engine's host fold of the reference: shard sums added in shard
/// order from 0.0, then scaled by 1/s (the estimate of `Estimate` divides).
struct FoldedReference {
  double estimate = 0.0;
  std::vector<double> gradient;
  std::vector<std::vector<double>> contributions;  // Per shard.
};

FoldedReference Reference(const KdeEngine& engine, const DeviceSample& sample,
                          const Box& box, const std::vector<double>& scales,
                          bool gradient) {
  const std::size_t d = engine.dims();
  std::vector<double> bounds(2 * d);
  for (std::size_t j = 0; j < d; ++j) {
    bounds[j] = box.lower(j);
    bounds[d + j] = box.upper(j);
  }
  FoldedReference out;
  out.gradient.assign(d, 0.0);
  out.contributions.resize(sample.num_shards());
  double total = 0.0;
  for (std::size_t si = 0; si < sample.num_shards(); ++si) {
    if (sample.shard_size(si) == 0) continue;
    ShardReference ref =
        ReferencePass(engine, sample, si, bounds, scales, gradient);
    total += ref.estimate_sum;
    for (std::size_t j = 0; j < ref.gradient_sums.size(); ++j) {
      out.gradient[j] += ref.gradient_sums[j];
    }
    out.contributions[si] = std::move(ref.contributions);
  }
  const double inv_s = 1.0 / static_cast<double>(sample.size());
  out.estimate = gradient ? total * inv_s
                          : total / static_cast<double>(sample.size());
  for (double& g : out.gradient) g *= inv_s;
  return out;
}

/// Scott's rule from the unfused moments kernel and the standalone tree.
std::vector<double> ReferenceScott(const KdeEngine& engine,
                                   const DeviceSample& sample) {
  const std::size_t d = engine.dims();
  std::vector<double> total(2 * d, 0.0);
  for (std::size_t si = 0; si < sample.num_shards(); ++si) {
    const std::size_t rows = sample.shard_size(si);
    if (rows == 0) continue;
    Device* dev = sample.shard_device(si);
    kb::ShardKernelView view;
    view.d = d;
    view.stride = sample.stride();
    auto moments = dev->CreateBuffer<double>(2 * d * rows);
    dev->Launch("reference_moments", rows, 2.0 * d,
                std::tuple(In(sample.shard_buffer(si), 0, rows,
                              sample.stride(), d),
                           Out(moments, 0, 2 * d * rows)),
                [view, rows](std::size_t begin, std::size_t end,
                             const float* x, double* out) {
                  kb::Moments(view.Over(x), out, rows, begin, end);
                });
    auto sums = dev->CreateBuffer<double>(2 * d);
    ReduceSumSegments(dev, moments, 0, rows, 2 * d, &sums);
    std::vector<double> host(2 * d);
    dev->CopyToHost(sums, 0, 2 * d, host.data());
    for (std::size_t k = 0; k < 2 * d; ++k) total[k] += host[k];
  }
  const double s = static_cast<double>(sample.size());
  const double factor = std::pow(s, -1.0 / (static_cast<double>(d) + 4.0));
  std::vector<double> bandwidth(d);
  for (std::size_t j = 0; j < d; ++j) {
    const double mean = total[2 * j] / s;
    const double variance =
        std::max(total[2 * j + 1] / s - mean * mean, 0.0);
    double sigma = std::sqrt(variance);
    if (sigma <= 0.0) sigma = 1e-6 * std::max(std::abs(mean), 1.0);
    bandwidth[j] = factor * sigma;
  }
  return bandwidth;
}

/// The shard contributions `engine` retains for the feedback slot.
std::vector<std::vector<double>> RetainedContributions(
    const KdeEngine& engine, const DeviceSample& sample) {
  std::vector<std::vector<double>> out(sample.num_shards());
  for (std::size_t si = 0; si < sample.num_shards(); ++si) {
    const std::size_t rows = sample.shard_size(si);
    if (rows == 0) continue;
    out[si].resize(rows);
    sample.shard_device(si)->CopyToHost(engine.shard_contributions(si), 0,
                                        rows, out[si].data());
  }
  return out;
}

void ExpectSameBits(const std::vector<double>& a, const std::vector<double>& b,
                    const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(Bits(a[i]), Bits(b[i])) << what << " [" << i << "]";
  }
}

class ReduceFold
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

TEST_P(ReduceFold, EveryProducerMatchesTheUnfusedReferenceBitwise) {
  const auto [s, d] = GetParam();
  const std::vector<double> rows = UniformRows(s, d, 1000 + s + d);
  std::vector<double> lower(d, 0.2);
  std::vector<double> upper(d, 0.75);
  const Box box(lower, upper);
  Rng rng(s * 31 + d);
  std::vector<double> scales(s);
  for (double& v : scales) v = rng.Uniform(0.5, 2.0);

  for (const bool sharded : {false, true}) {
    for (const KernelType kernel :
         {KernelType::kGaussian, KernelType::kEpanechnikov}) {
      for (const bool with_scales : {false, true}) {
        SCOPED_TRACE(::testing::Message()
                     << "s=" << s << " d=" << d
                     << (sharded ? " gpu+gpu" : " cpu") << " "
                     << KernelName(kernel)
                     << (with_scales ? " scaled" : ""));
        std::unique_ptr<Device> device;
        std::unique_ptr<DeviceGroup> group;
        std::unique_ptr<DeviceSample> sample;
        if (sharded) {
          // Uneven shards: a 90/10 start, then a forced migration toward
          // a 1:2.7 measured throughput split, so shard boundaries fall
          // inside a reduction group.
          DeviceGroupOptions options;
          options.initial_weights = {0.9, 0.1};
          options.rebalance_interval = 1;
          group = std::make_unique<DeviceGroup>(
              ParseDeviceTopology("gpu+gpu").ValueOrDie(), options);
          sample = std::make_unique<DeviceSample>(group.get(), s, d);
          FKDE_CHECK_OK(sample->LoadRows(rows, s));
          const std::vector<std::size_t> sizes = sample->shard_sizes();
          sample->ObserveShardSeconds(std::vector<double>{
              sizes[0] / 1000.0,
              std::max<std::size_t>(sizes[1], 1) / 2700.0});
          const bool migrated = sample->MaybeRebalance();
          if (s >= 1024) {
            ASSERT_TRUE(migrated);
          }
        } else {
          device = std::make_unique<Device>(DeviceProfile::OpenClCpu());
          sample = std::make_unique<DeviceSample>(device.get(), s, d);
          FKDE_CHECK_OK(sample->LoadRows(rows, s));
        }
        KdeEngine engine(sample.get(), kernel);
        const std::vector<double> scott = ReferenceScott(engine, *sample);
        ExpectSameBits(engine.bandwidth(), scott, "scott");
        ExpectSameBits(engine.ComputeScottBandwidth(), scott,
                       "scott recomputed");
        const std::vector<double> no_scales;
        if (with_scales) {
          ASSERT_TRUE(engine.SetPointScales(scales).ok());
        }
        const std::vector<double>& ref_scales =
            with_scales ? scales : no_scales;

        // Estimate, and the contributions it retains for Karma.
        const double estimate = engine.Estimate(box);
        const FoldedReference est_ref =
            Reference(engine, *sample, box, ref_scales, false);
        EXPECT_EQ(Bits(estimate), Bits(est_ref.estimate)) << "estimate";
        const auto retained = RetainedContributions(engine, *sample);
        for (std::size_t si = 0; si < retained.size(); ++si) {
          ExpectSameBits(retained[si], est_ref.contributions[si],
                         "retained contributions");
        }

        // The synchronous estimate + gradient.
        std::vector<double> gradient;
        const double with_gradient =
            engine.EstimateWithGradient(box, &gradient);
        const FoldedReference grad_ref =
            Reference(engine, *sample, box, ref_scales, true);
        EXPECT_EQ(Bits(with_gradient), Bits(grad_ref.estimate))
            << "estimate with gradient";
        ExpectSameBits(gradient, grad_ref.gradient, "gradient");
        const auto grad_retained = RetainedContributions(engine, *sample);
        for (std::size_t si = 0; si < grad_retained.size(); ++si) {
          ExpectSameBits(grad_retained[si], grad_ref.contributions[si],
                         "gradient pass contributions");
        }

        // The enqueued slot gradient.
        const std::size_t slot = engine.BeginEstimateSlot(box);
        (void)engine.FinishEstimateSlot(slot);
        engine.EnqueueGradientSlot(slot);
        std::vector<double> slot_gradient;
        engine.CollectGradientSlot(slot, &slot_gradient);
        engine.ReleaseSlot(slot);
        ExpectSameBits(slot_gradient,
                       Reference(engine, *sample, box, ref_scales, true)
                           .gradient,
                       "slot gradient");
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ReduceFold,
    ::testing::Combine(::testing::Values(std::size_t{1}, std::size_t{255},
                                         std::size_t{256}, std::size_t{257},
                                         std::size_t{1024}, std::size_t{4097},
                                         std::size_t{70000}),
                       ::testing::Values(std::size_t{1}, std::size_t{3},
                                         std::size_t{8})));

/// Kernel launches each adaptive estimate + feedback cycle books on one
/// device.
std::vector<std::uint64_t> AdaptiveCycleLaunches(std::size_t sample_size) {
  ClusterBoxesParams params;
  params.rows = 8000;
  params.dims = 3;
  const Table table = GenerateClusterBoxes(params, 77);
  Device device(DeviceProfile::OpenClCpu());
  KdeConfig config;
  config.sample_size = sample_size;
  auto model = KdeSelectivityEstimator::Create(
                   KdeSelectivityEstimator::Mode::kAdaptive, &device, &table,
                   config)
                   .MoveValueOrDie();
  WorkloadGenerator generator(table);
  Rng rng(78);
  const std::vector<Query> queries =
      generator.Generate(ParseWorkloadName("dt").ValueOrDie(), 25, &rng);
  std::vector<std::uint64_t> launches;
  for (const Query& q : queries) {
    const std::uint64_t before = device.ledger().kernel_launches;
    (void)model->EstimateSelectivity(q.box);
    model->ObserveTrueSelectivity(q.box, q.selectivity);
    launches.push_back(device.ledger().kernel_launches - before);
  }
  return launches;
}

// Per cycle: the estimate producer and one reduction level (s = 1024 is
// four groups), the gradient producer and one level, and the Karma pass;
// at s = 256 the producers write the sums themselves.
TEST(ReduceFoldLaunches, AdaptiveCycleBooksFiveAtS1024AndThreeAtS256) {
  for (const std::uint64_t n : AdaptiveCycleLaunches(1024)) {
    EXPECT_EQ(n, 5u);
  }
  for (const std::uint64_t n : AdaptiveCycleLaunches(256)) {
    EXPECT_EQ(n, 3u);
  }
}

}  // namespace
}  // namespace fkde
