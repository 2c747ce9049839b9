#include "kde/engine.h"

#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/generators.h"
#include "opt/optimizer.h"

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
  // A slot allocates its d*capacity gradient partials at its first
  // gradient pass, so an estimate-only (Heuristic) model never holds them.
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
  EXPECT_EQ(f.engine->SlotBytes(),
            estimate_only + kDims * kSample * sizeof(double));
}

TEST(Engine, LazilyAllocatedPartialsKeepGradientsBitwise) {
  // The enqueued (adaptive) gradient of a slot that allocates its
  // partials on first use equals the synchronous gradient bitwise.
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

}  // namespace
}  // namespace fkde
