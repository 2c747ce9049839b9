// Multi-device sharded execution: numerical equivalence against the
// single-device engine, the segmented-reduction sweep, self-tuning
// rebalancing, Karma across migrations, and the modeled multi-device
// speedup (paper Section 5.4 past one device's ceiling).

#include <cmath>
#include <cstddef>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/box.h"
#include "kde/engine.h"
#include "kde/karma.h"
#include "kde/sample.h"
#include "parallel/device.h"
#include "parallel/device_group.h"

namespace fkde {
namespace {

std::vector<double> RandomRows(std::size_t rows, std::size_t dims,
                               std::uint64_t seed) {
  std::vector<double> data(rows * dims);
  Rng rng(seed);
  for (double& v : data) v = rng.Uniform();
  return data;
}

Box RandomBox(std::size_t dims, Rng* rng) {
  std::vector<double> lo(dims), hi(dims);
  for (std::size_t j = 0; j < dims; ++j) {
    const double a = rng->Uniform();
    const double b = rng->Uniform();
    lo[j] = std::min(a, b);
    hi[j] = std::max(a, b);
  }
  return Box(std::move(lo), std::move(hi));
}

/// The same rows loaded into a single-device engine and a sharded one.
struct Twin {
  Twin(std::size_t rows_count, std::size_t dims, const std::string& topology,
       DeviceGroupOptions options = {}, std::uint64_t seed = 42)
      : rows(RandomRows(rows_count, dims, seed)) {
    single_device = std::make_unique<Device>(DeviceProfile::SimulatedGtx460());
    single_sample =
        std::make_unique<DeviceSample>(single_device.get(), rows_count, dims);
    FKDE_CHECK_OK(single_sample->LoadRows(rows, rows_count));
    single = std::make_unique<KdeEngine>(single_sample.get(),
                                         KernelType::kGaussian);

    group = std::make_unique<DeviceGroup>(
        ParseDeviceTopology(topology).ValueOrDie(), std::move(options));
    sharded_sample =
        std::make_unique<DeviceSample>(group.get(), rows_count, dims);
    FKDE_CHECK_OK(sharded_sample->LoadRows(rows, rows_count));
    sharded = std::make_unique<KdeEngine>(sharded_sample.get(),
                                          KernelType::kGaussian);
  }

  std::vector<double> rows;
  std::unique_ptr<Device> single_device;
  std::unique_ptr<DeviceSample> single_sample;
  std::unique_ptr<KdeEngine> single;
  std::unique_ptr<DeviceGroup> group;
  std::unique_ptr<DeviceSample> sharded_sample;
  std::unique_ptr<KdeEngine> sharded;
};

// ---------------------------------------------------------------------------
// Satellite: segmented reduction vs a scalar reference, per shard and after
// the cross-device fold, sweeping segment sizes around the group-size
// boundaries (1, sub-group, group^2 - 1, just past group^2).

TEST(ShardedReduction, SegmentSweepMatchesScalarReference) {
  for (const std::size_t s : {std::size_t{1}, std::size_t{7},
                              std::size_t{1023}, std::size_t{4097}}) {
    Device device(DeviceProfile::OpenClCpu());
    const std::size_t segments = 3;
    std::vector<double> host(segments * s);
    Rng rng(s);
    for (double& v : host) v = rng.Uniform(-1.0, 1.0);
    auto buffer = device.CreateBuffer<double>(host.size());
    device.CopyToDevice(host.data(), host.size(), &buffer);
    auto out = device.CreateBuffer<double>(segments);

    Event done = EnqueueReduceSumSegments(device.default_queue(), buffer, 0,
                                          s, segments, &out);
    done.Wait();
    std::vector<double> sums(segments);
    device.CopyToHost(out, 0, segments, sums.data());
    for (std::size_t seg = 0; seg < segments; ++seg) {
      double reference = 0.0;
      for (std::size_t i = 0; i < s; ++i) reference += host[seg * s + i];
      EXPECT_NEAR(sums[seg], reference, 1e-12 * std::max(1.0, s * 1.0))
          << "s=" << s << " segment=" << seg;
      // The blocking single-segment primitive agrees with the segmented
      // one bit-for-bit (same group tree).
      EXPECT_DOUBLE_EQ(ReduceSum(&device, buffer, seg * s, s), sums[seg]);
    }
  }
}

TEST(ShardedReduction, CrossDeviceFoldMatchesScalarReference) {
  DeviceGroup group(ParseDeviceTopology("cpu+gpu").ValueOrDie());
  for (const std::size_t s : {std::size_t{1}, std::size_t{7},
                              std::size_t{1023}, std::size_t{4097}}) {
    // Split the same logical vector across the two devices at an uneven
    // cut, reduce each shard on its own queue, fold on the host.
    std::vector<double> host(2 * s + 1);
    Rng rng(1000 + s);
    for (double& v : host) v = rng.Uniform(-1.0, 1.0);
    const std::size_t cut = s;  // Shard 0: s values, shard 1: s + 1.
    double reference = 0.0;
    for (double v : host) reference += v;

    double fold = 0.0;
    std::vector<DeviceBuffer<double>> buffers;
    std::vector<DeviceBuffer<double>> outs;
    std::vector<Event> events;
    for (std::size_t shard = 0; shard < 2; ++shard) {
      Device* device = group.device(shard);
      const std::size_t begin = shard == 0 ? 0 : cut;
      const std::size_t count = shard == 0 ? cut : host.size() - cut;
      buffers.push_back(device->CreateBuffer<double>(count));
      device->CopyToDevice(host.data() + begin, count, &buffers.back());
      outs.push_back(device->CreateBuffer<double>(1));
      events.push_back(EnqueueReduceSumSegments(
          device->default_queue(), buffers.back(), 0, count, 1,
          &outs.back()));
    }
    for (std::size_t shard = 0; shard < 2; ++shard) {
      events[shard].Wait();
      double partial = 0.0;
      group.device(shard)->CopyToHost(outs[shard], 0, 1, &partial);
      fold += partial;
    }
    EXPECT_NEAR(fold, reference, 1e-12 * std::max(1.0, s * 1.0)) << "s=" << s;
  }
}

// ---------------------------------------------------------------------------
// Numerical equivalence: every engine hot path folds to the single-device
// answer within 1e-12.

TEST(ShardedEngine, ScottBandwidthMatchesSingleDevice) {
  Twin twin(2048, 3, "cpu+gpu");
  const std::vector<double>& a = twin.single->bandwidth();
  const std::vector<double>& b = twin.sharded->bandwidth();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t j = 0; j < a.size(); ++j) {
    EXPECT_NEAR(a[j], b[j], 1e-12 * a[j]) << "dim " << j;
  }
}

TEST(ShardedEngine, EstimateMatchesSingleDevice) {
  Twin twin(2048, 3, "cpu+gpu");
  Rng rng(7);
  for (int q = 0; q < 8; ++q) {
    const Box box = RandomBox(3, &rng);
    EXPECT_NEAR(twin.sharded->Estimate(box), twin.single->Estimate(box),
                1e-12)
        << "query " << q;
  }
}

TEST(ShardedEngine, GradientPathsMatchSingleDevice) {
  Twin twin(1536, 4, "cpu+gpu");
  Rng rng(11);
  for (int q = 0; q < 4; ++q) {
    const Box box = RandomBox(4, &rng);
    std::vector<double> g_single, g_sharded;
    const double e_single =
        twin.single->EstimateWithGradient(box, &g_single);
    const double e_sharded =
        twin.sharded->EstimateWithGradient(box, &g_sharded);
    EXPECT_NEAR(e_sharded, e_single, 1e-12);
    ASSERT_EQ(g_sharded.size(), g_single.size());
    for (std::size_t j = 0; j < g_single.size(); ++j) {
      EXPECT_NEAR(g_sharded[j], g_single[j],
                  1e-12 * std::max(1.0, std::fabs(g_single[j])));
    }

    // The asynchronous enqueue/collect pair folds to the same gradient.
    const std::size_t s_single = twin.single->BeginEstimateSlot(box);
    const std::size_t s_sharded = twin.sharded->BeginEstimateSlot(box);
    (void)twin.single->FinishEstimateSlot(s_single);
    (void)twin.sharded->FinishEstimateSlot(s_sharded);
    twin.single->EnqueueGradientSlot(s_single);
    twin.sharded->EnqueueGradientSlot(s_sharded);
    std::vector<double> a_single, a_sharded;
    twin.single->CollectGradientSlot(s_single, &a_single);
    twin.sharded->CollectGradientSlot(s_sharded, &a_sharded);
    twin.single->ReleaseSlot(s_single);
    twin.sharded->ReleaseSlot(s_sharded);
    for (std::size_t j = 0; j < a_single.size(); ++j) {
      EXPECT_NEAR(a_sharded[j], a_single[j],
                  1e-12 * std::max(1.0, std::fabs(a_single[j])));
    }
  }
}

TEST(ShardedEngine, BatchPathsMatchSingleDevice) {
  Twin twin(2048, 3, "cpu+gpu");
  Rng rng(13);
  std::vector<Box> boxes;
  for (int q = 0; q < 17; ++q) boxes.push_back(RandomBox(3, &rng));

  std::vector<double> est_single(boxes.size()), est_sharded(boxes.size());
  twin.single->EstimateBatch(boxes, est_single);
  twin.sharded->EstimateBatch(boxes, est_sharded);
  for (std::size_t q = 0; q < boxes.size(); ++q) {
    EXPECT_NEAR(est_sharded[q], est_single[q], 1e-12) << "query " << q;
  }

  std::vector<double> grad_single(boxes.size() * 3);
  std::vector<double> grad_sharded(boxes.size() * 3);
  twin.single->EstimateBatchWithGradient(boxes, est_single, grad_single);
  twin.sharded->EstimateBatchWithGradient(boxes, est_sharded, grad_sharded);
  for (std::size_t q = 0; q < boxes.size(); ++q) {
    EXPECT_NEAR(est_sharded[q], est_single[q], 1e-12);
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_NEAR(grad_sharded[q * 3 + j], grad_single[q * 3 + j],
                  1e-12 * std::max(1.0, std::fabs(grad_single[q * 3 + j])));
    }
  }
}

TEST(ShardedEngine, BatchLossMatchesSingleDevice) {
  Twin twin(2048, 3, "cpu+gpu");
  Rng rng(17);
  std::vector<Box> boxes;
  std::vector<double> truths;
  for (int q = 0; q < 9; ++q) {
    boxes.push_back(RandomBox(3, &rng));
    truths.push_back(rng.Uniform());
  }
  for (const LossType loss :
       {LossType::kQuadratic, LossType::kSquaredQ}) {
    std::vector<double> g_single, g_sharded;
    const double l_single = twin.single->EstimateBatchLoss(
        boxes, truths, loss, 1e-5, &g_single);
    const double l_sharded = twin.sharded->EstimateBatchLoss(
        boxes, truths, loss, 1e-5, &g_sharded);
    EXPECT_NEAR(l_sharded, l_single,
                1e-10 * std::max(1.0, std::fabs(l_single)));
    ASSERT_EQ(g_sharded.size(), g_single.size());
    for (std::size_t j = 0; j < g_single.size(); ++j) {
      EXPECT_NEAR(g_sharded[j], g_single[j],
                  1e-10 * std::max(1.0, std::fabs(g_single[j])));
    }
    // Loss-only path too.
    EXPECT_NEAR(twin.sharded->EstimateBatchLoss(boxes, truths, loss, 1e-5,
                                                nullptr),
                l_single, 1e-10 * std::max(1.0, std::fabs(l_single)));
  }
}

TEST(ShardedEngine, PointScalesMatchSingleDevice) {
  Twin twin(1024, 3, "cpu+gpu");
  std::vector<double> scales(1024);
  Rng rng(19);
  for (double& v : scales) v = rng.Uniform(0.5, 2.0);
  ASSERT_TRUE(twin.single->SetPointScales(scales).ok());
  ASSERT_TRUE(twin.sharded->SetPointScales(scales).ok());
  Rng qrng(23);
  for (int q = 0; q < 6; ++q) {
    const Box box = RandomBox(3, &qrng);
    EXPECT_NEAR(twin.sharded->Estimate(box), twin.single->Estimate(box),
                1e-12);
  }
}

TEST(ShardedEngine, GpuGpuTopologyAlsoMatches) {
  Twin twin(1024, 2, "gpu+gpu");
  Rng rng(29);
  for (int q = 0; q < 4; ++q) {
    const Box box = RandomBox(2, &rng);
    EXPECT_NEAR(twin.sharded->Estimate(box), twin.single->Estimate(box),
                1e-12);
  }
}

// ---------------------------------------------------------------------------
// Self-tuning rebalancer.

TEST(ShardedSample, RebalancerConvergesFromSkewedStart) {
  // Two identical devices, but a deliberately wrong 95/5 initial split.
  // The measured-throughput EWMA must pull the partition back toward the
  // modeled-throughput ratio (50/50 here) within a handful of passes.
  // The sample must be large enough that per-row compute dominates the
  // fixed per-pass launch/transfer latencies — otherwise rows/busy-second
  // cannot resolve the device's intrinsic throughput (the same reason the
  // paper's Figure 7 is latency-flat for small models).
  DeviceGroupOptions options;
  options.initial_weights = {0.95, 0.05};
  options.rebalance_interval = 2;
  options.ewma_alpha = 0.5;
  Twin twin(262144, 8, "gpu+gpu", options, /*seed=*/5);
  const std::vector<std::size_t> before = twin.sharded_sample->shard_sizes();
  EXPECT_GT(before[0], 3u * before[1]);  // Skew actually applied.

  Rng rng(31);
  std::vector<double> reference;
  std::vector<Box> boxes;
  for (int pass = 0; pass < 16; ++pass) {
    const Box box = RandomBox(8, &rng);
    boxes.push_back(box);
    reference.push_back(twin.single->Estimate(box));
    (void)twin.sharded->Estimate(box);
  }
  const std::vector<std::size_t> after = twin.sharded_sample->shard_sizes();
  const double total = static_cast<double>(after[0] + after[1]);
  // Identical devices => modeled-throughput ratio 1.0; converge within
  // 10% of the even split.
  EXPECT_NEAR(static_cast<double>(after[0]) / total, 0.5, 0.10)
      << after[0] << "/" << after[1];
  EXPECT_GT(twin.sharded_sample->rows_migrated(), 0u);
  EXPECT_GT(twin.sharded_sample->migration_epoch(), 0u);

  // Migration preserved the model: estimates still match the
  // single-device engine after rows moved between devices (tolerance
  // scaled for quarter-million-term reordered sums).
  for (std::size_t q = 0; q < 4; ++q) {
    EXPECT_NEAR(twin.sharded->Estimate(boxes[q]), reference[q], 1e-10);
  }
}

TEST(ShardedSample, ReplaceRowFollowsMigratedSlots) {
  DeviceGroupOptions options;
  options.initial_weights = {0.9, 0.1};
  options.rebalance_interval = 1;
  DeviceGroup group(ParseDeviceTopology("gpu+gpu").ValueOrDie(), options);
  DeviceSample sample(&group, 512, 2);
  FKDE_CHECK_OK(sample.LoadRows(RandomRows(512, 2, 3), 512));
  // Force a migration by reporting equal per-row throughput.
  const std::vector<std::size_t> sizes = sample.shard_sizes();
  std::vector<double> busy = {sizes[0] / 1000.0, sizes[1] / 1000.0};
  sample.ObserveShardSeconds(busy);
  ASSERT_TRUE(sample.MaybeRebalance());
  // Global slots stay addressable through the slot map.
  const std::vector<double> row = {0.25, 0.75};
  for (const std::size_t slot : {std::size_t{0}, std::size_t{300},
                                 std::size_t{511}}) {
    sample.ReplaceRow(slot, row);
    EXPECT_EQ(sample.ReadRow(slot),
              (std::vector<double>{0.25, 0.75}));
  }
}

// ---------------------------------------------------------------------------
// Karma over a sharded sample.

TEST(ShardedKarma, UpdateReturnsGlobalSlots) {
  Twin twin(1024, 2, "cpu+gpu", {}, /*seed=*/9);
  KarmaOptions options;
  options.threshold = -0.0;  // Any negative Karma flags a replacement.
  options.empty_region_shortcut = false;
  KarmaMaintainer single_k(twin.single.get(), options);
  KarmaMaintainer sharded_k(twin.sharded.get(), options);
  Rng rng(37);
  for (int q = 0; q < 6; ++q) {
    const Box box = RandomBox(2, &rng);
    const double est = twin.single->Estimate(box);
    (void)twin.sharded->Estimate(box);
    // Feed a deliberately wrong truth so Karma moves.
    const double truth = est < 0.5 ? est + 0.4 : est - 0.4;
    const std::vector<std::size_t> a = single_k.Update(box, truth);
    const std::vector<std::size_t> b = sharded_k.Update(box, truth);
    EXPECT_EQ(a, b) << "query " << q;
    for (const std::size_t slot : b) EXPECT_LT(slot, 1024u);
  }
  // Karma scores gathered back in global-slot order agree too.
  const std::vector<double> ka = single_k.ReadKarma();
  const std::vector<double> kb = sharded_k.ReadKarma();
  ASSERT_EQ(ka.size(), kb.size());
  for (std::size_t i = 0; i < ka.size(); ++i) {
    EXPECT_NEAR(kb[i], ka[i], 1e-9 * std::max(1.0, std::fabs(ka[i])));
  }
}

TEST(ShardedKarma, MigrationInFlightDiscardsThePass) {
  DeviceGroupOptions options;
  options.initial_weights = {0.9, 0.1};
  options.rebalance_interval = 1;
  Twin twin(1024, 2, "gpu+gpu", options, /*seed=*/9);
  KarmaOptions karma_options;
  karma_options.empty_region_shortcut = false;
  KarmaMaintainer karma(twin.sharded.get(), karma_options);
  Rng rng(41);
  const Box box = RandomBox(2, &rng);
  const double est = twin.sharded->Estimate(box);
  karma.EnqueueUpdate(box, est + 0.4);
  // Rows migrate while the pass is in flight: local-row Karma becomes
  // meaningless, so the collect must discard the pass and re-zero.
  DeviceSample* sample = twin.sharded_sample.get();
  const std::vector<std::size_t> sizes = sample->shard_sizes();
  sample->ObserveShardSeconds(
      std::vector<double>{sizes[0] / 1000.0, sizes[1] / 1000.0});
  ASSERT_TRUE(sample->MaybeRebalance());
  EXPECT_TRUE(karma.CollectPending().empty());
  for (const double k : karma.ReadKarma()) EXPECT_DOUBLE_EQ(k, 0.0);
}

// ---------------------------------------------------------------------------
// Modeled multi-device speedup (ISSUE acceptance): with launch latency
// amortized at 256K x 8D, two GPUs beat one by >= 1.5x and the CPU+GPU mix
// beats the best single device by >= 1.2x (its theoretical ceiling is the
// combined-throughput ratio 1.31e9/1.05e9 ~ 1.25x).

TEST(ShardedSpeedup, MultiDeviceBeatsSingleDevice) {
  const std::size_t s = 262144;
  const std::size_t d = 8;
  const std::vector<double> rows = RandomRows(s, d, 47);
  Rng rng(53);
  const Box box = RandomBox(d, &rng);

  const auto modeled_single = [&](DeviceProfile profile) {
    Device device(profile);
    DeviceSample sample(&device, s, d);
    FKDE_CHECK_OK(sample.LoadRows(rows, s));
    KdeEngine engine(&sample, KernelType::kGaussian);
    device.ResetModeledTime();
    (void)engine.Estimate(box);
    return device.ModeledSeconds();
  };
  const auto modeled_group = [&](const std::string& topology) {
    DeviceGroupOptions options;
    options.rebalance = false;  // Pure static throughput-weighted split.
    DeviceGroup group(ParseDeviceTopology(topology).ValueOrDie(),
                      std::move(options));
    DeviceSample sample(&group, s, d);
    FKDE_CHECK_OK(sample.LoadRows(rows, s));
    KdeEngine engine(&sample, KernelType::kGaussian);
    group.ResetModeledTime();
    (void)engine.Estimate(box);
    return group.MaxModeledSeconds();
  };

  const double t_gpu = modeled_single(DeviceProfile::SimulatedGtx460());
  const double t_cpu = modeled_single(DeviceProfile::OpenClCpu());
  const double best_single = std::min(t_gpu, t_cpu);

  const double t_gpu_gpu = modeled_group("gpu+gpu");
  EXPECT_GE(best_single / t_gpu_gpu, 1.5)
      << "gpu+gpu " << t_gpu_gpu << "s vs best single " << best_single;

  const double t_cpu_gpu = modeled_group("cpu+gpu");
  EXPECT_GE(best_single / t_cpu_gpu, 1.2)
      << "cpu+gpu " << t_cpu_gpu << "s vs best single " << best_single;
}

}  // namespace
}  // namespace fkde
