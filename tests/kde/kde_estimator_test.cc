#include "kde/kde_estimator.h"

#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>

#include <gtest/gtest.h>

#include "data/generators.h"
#include "parallel/device_group.h"
#include "runtime/driver.h"
#include "runtime/topology.h"

namespace fkde {
namespace {

using Mode = KdeSelectivityEstimator::Mode;

struct EstimatorFixture {
  explicit EstimatorFixture(std::uint64_t seed, std::size_t dims = 3,
                            std::size_t rows = 20000) {
    ClusterBoxesParams params;
    params.rows = rows;
    params.dims = dims;
    params.num_clusters = 6;
    params.noise_fraction = 0.05;
    table = std::make_unique<Table>(GenerateClusterBoxes(params, seed));
    device = std::make_unique<Device>(DeviceProfile::OpenClCpu());
    WorkloadGenerator generator(*table);
    Rng rng(seed + 1);
    const WorkloadSpec spec = ParseWorkloadName("dt").ValueOrDie();
    training = generator.Generate(spec, 50, &rng);
    test = generator.Generate(spec, 100, &rng);
  }

  std::unique_ptr<KdeSelectivityEstimator> Build(Mode mode,
                                                 KdeConfig config = {}) {
    config.sample_size = 512;
    return KdeSelectivityEstimator::Create(mode, device.get(), table.get(),
                                           config, training)
        .MoveValueOrDie();
  }

  std::unique_ptr<Table> table;
  std::unique_ptr<Device> device;
  std::vector<Query> training;
  std::vector<Query> test;
};

TEST(KdeEstimator, OnlyGradientModelsHoldGradientPartials) {
  // No slot holds gradient partials (the gradient producer folds them
  // into pooled group sums), so the Adaptive model, which runs a
  // gradient pass at every feedback, holds exactly the slot bytes of the
  // frozen Heuristic model, which never runs one.
  EstimatorFixture f(41);
  auto heuristic = f.Build(Mode::kHeuristic);
  auto adaptive = f.Build(Mode::kAdaptive);
  for (std::size_t i = 0; i < 12; ++i) {
    (void)heuristic->EstimateSelectivity(f.test[i].box);
    (void)adaptive->EstimateSelectivity(f.test[i].box);
    adaptive->ObserveTrueSelectivity(f.test[i].box, f.test[i].selectivity);
  }
  const std::size_t d = 3;
  const std::size_t s = 512;
  const std::size_t slot_bytes = (2 * d + s + d + 1) * sizeof(double);
  EXPECT_EQ(heuristic->engine()->SlotBytes(), slot_bytes);
  EXPECT_EQ(adaptive->engine()->SlotBytes(), slot_bytes);
}

TEST(KdeEstimator, NamesMatchModes) {
  EstimatorFixture f(1);
  EXPECT_EQ(f.Build(Mode::kHeuristic)->name(), "kde_heuristic");
  EXPECT_EQ(f.Build(Mode::kBatch)->name(), "kde_batch");
  EXPECT_EQ(f.Build(Mode::kAdaptive)->name(), "kde_adaptive");
  EXPECT_EQ(KdeModeName(Mode::kScv), "kde_scv");
}

TEST(KdeEstimator, EstimatesAreValidSelectivities) {
  EstimatorFixture f(2);
  auto estimator = f.Build(Mode::kHeuristic);
  for (const Query& q : f.test) {
    const double est = estimator->EstimateSelectivity(q.box);
    EXPECT_GE(est, 0.0);
    EXPECT_LE(est, 1.0);
  }
}

TEST(KdeEstimator, BatchBeatsHeuristicOnClusteredData) {
  EstimatorFixture f(3);
  auto heuristic = f.Build(Mode::kHeuristic);
  auto batch = f.Build(Mode::kBatch);
  const RunStats h = FeedbackDriver::RunPrecomputed(heuristic.get(), f.test);
  const RunStats b = FeedbackDriver::RunPrecomputed(batch.get(), f.test);
  EXPECT_LT(b.MeanAbsoluteError(), h.MeanAbsoluteError());
}

TEST(KdeEstimator, BatchReportsOptimization) {
  EstimatorFixture f(4);
  auto batch = f.Build(Mode::kBatch);
  EXPECT_LE(batch->batch_report().final_error,
            batch->batch_report().initial_error);
  EXPECT_GT(batch->batch_report().evaluations, 0u);
}

TEST(KdeEstimator, BatchRequiresTraining) {
  EstimatorFixture f(5);
  KdeConfig config;
  config.sample_size = 128;
  const auto result = KdeSelectivityEstimator::Create(
      Mode::kBatch, f.device.get(), f.table.get(), config, {});
  EXPECT_FALSE(result.ok());
}

TEST(KdeEstimator, AdaptiveImprovesWithFeedback) {
  EstimatorFixture f(6);
  auto adaptive = f.Build(Mode::kAdaptive);
  // Warm up on the training stream (estimate + feedback).
  FeedbackDriver::Train(adaptive.get(), f.training);
  FeedbackDriver::Train(adaptive.get(), f.training);
  const RunStats tuned = FeedbackDriver::RunPrecomputed(adaptive.get(),
                                                        f.test);
  auto heuristic = f.Build(Mode::kHeuristic);
  const RunStats frozen =
      FeedbackDriver::RunPrecomputed(heuristic.get(), f.test);
  EXPECT_LT(tuned.MeanAbsoluteError(), frozen.MeanAbsoluteError());
}

TEST(KdeEstimator, AdaptiveChangesBandwidthOverStream) {
  EstimatorFixture f(7);
  auto adaptive = f.Build(Mode::kAdaptive);
  const std::vector<double> initial = adaptive->bandwidth();
  FeedbackDriver::Train(adaptive.get(), f.training);
  EXPECT_NE(adaptive->bandwidth(), initial);
  for (double h : adaptive->bandwidth()) EXPECT_GT(h, 0.0);
}

TEST(KdeEstimator, NonAdaptiveModesIgnoreFeedback) {
  EstimatorFixture f(8);
  for (Mode mode : {Mode::kHeuristic, Mode::kBatch}) {
    auto estimator = f.Build(mode);
    const std::vector<double> before = estimator->bandwidth();
    FeedbackDriver::Train(estimator.get(), f.training);
    EXPECT_EQ(estimator->bandwidth(), before);
  }
}

TEST(KdeEstimator, ScvModeProducesDistinctValidBandwidth) {
  EstimatorFixture f(9);
  auto scv = f.Build(Mode::kScv);
  for (double h : scv->bandwidth()) {
    EXPECT_GT(h, 0.0);
    EXPECT_TRUE(std::isfinite(h));
  }
  const RunStats stats = FeedbackDriver::RunPrecomputed(scv.get(), f.test);
  EXPECT_LT(stats.MeanAbsoluteError(), 0.5);
}

TEST(KdeEstimator, OutOfOrderFeedbackIsHandled) {
  EstimatorFixture f(10);
  auto adaptive = f.Build(Mode::kAdaptive);
  // Feedback for a box never estimated: must not crash, must still adapt.
  for (const Query& q : f.training) {
    adaptive->ObserveTrueSelectivity(q.box, q.selectivity);
  }
  for (double h : adaptive->bandwidth()) EXPECT_GT(h, 0.0);
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

using ServeFn =
    std::function<void(KdeSelectivityEstimator*, const Query&, const Query&)>;

// Twin Adaptive models on one gpu device: `served` drives one with an
// out-of-order feedback pattern, `explicit_seq` drives the other with the
// estimate-then-feedback sequence that pattern must equal. Both models
// must then agree bitwise on the bandwidth and on later estimates.
void ExpectClassicContract(const ServeFn& served, const ServeFn& explicit_seq) {
  EstimatorFixture f(20);
  Device gpu(DeviceProfile::SimulatedGtx460());
  KdeConfig config;
  config.sample_size = 512;
  auto a = KdeSelectivityEstimator::Create(Mode::kAdaptive, &gpu,
                                           f.table.get(), config)
               .MoveValueOrDie();
  auto b = KdeSelectivityEstimator::Create(Mode::kAdaptive, &gpu,
                                           f.table.get(), config)
               .MoveValueOrDie();
  const std::vector<double> scott = a->bandwidth();
  // 25 feedbacks span several RMSprop mini-batches.
  for (std::size_t i = 0; i < 25; ++i) {
    served(a.get(), f.test[i], f.training[i]);
    explicit_seq(b.get(), f.test[i], f.training[i]);
  }
  EXPECT_FALSE(SameBits(a->bandwidth(), scott));
  EXPECT_TRUE(SameBits(a->bandwidth(), b->bandwidth()));
  for (std::size_t i = 25; i < 35; ++i) {
    const double ea = a->EstimateSelectivity(f.test[i].box);
    const double eb = b->EstimateSelectivity(f.test[i].box);
    EXPECT_EQ(std::memcmp(&ea, &eb, sizeof(double)), 0) << "query " << i;
  }
}

TEST(KdeEstimator, FeedbackWithoutEstimateEqualsEstimateThenFeedback) {
  ExpectClassicContract(
      [](KdeSelectivityEstimator* m, const Query&, const Query& q) {
        m->ObserveTrueSelectivity(q.box, q.selectivity);
      },
      [](KdeSelectivityEstimator* m, const Query&, const Query& q) {
        (void)m->EstimateSelectivity(q.box);
        m->ObserveTrueSelectivity(q.box, q.selectivity);
      });
}

TEST(KdeEstimator, UnansweredEstimateIsRetiredByTheNext) {
  ExpectClassicContract(
      [](KdeSelectivityEstimator* m, const Query& other, const Query& q) {
        (void)m->EstimateSelectivity(other.box);
        (void)m->EstimateSelectivity(q.box);
        m->ObserveTrueSelectivity(q.box, q.selectivity);
      },
      [](KdeSelectivityEstimator* m, const Query&, const Query& q) {
        (void)m->EstimateSelectivity(q.box);
        m->ObserveTrueSelectivity(q.box, q.selectivity);
      });
}

TEST(KdeEstimator, SecondFeedbackEqualsReEstimatePlusFeedback) {
  ExpectClassicContract(
      [](KdeSelectivityEstimator* m, const Query&, const Query& q) {
        (void)m->EstimateSelectivity(q.box);
        m->ObserveTrueSelectivity(q.box, q.selectivity);
        m->ObserveTrueSelectivity(q.box, q.selectivity);
      },
      [](KdeSelectivityEstimator* m, const Query&, const Query& q) {
        (void)m->EstimateSelectivity(q.box);
        m->ObserveTrueSelectivity(q.box, q.selectivity);
        (void)m->EstimateSelectivity(q.box);
        m->ObserveTrueSelectivity(q.box, q.selectivity);
      });
}

// The classic estimate/feedback loop still feeds the sample rebalancer:
// every estimate is admitted onto an empty slot ring, so it may rebalance
// first and its busy time reaches the throughput EWMA. Two identical
// devices with a deliberately wrong 95/5 initial split must converge
// toward 50/50. The sample is large so per-row compute dominates the
// fixed per-pass latencies.
TEST(KdeEstimator, ClassicLoopFeedsTheRebalancer) {
  DeviceGroupOptions options;
  options.initial_weights = {0.95, 0.05};
  options.rebalance_interval = 2;
  options.ewma_alpha = 0.5;
  auto group = std::make_unique<DeviceGroup>(
      ParseDeviceTopology("gpu+gpu").ValueOrDie(), std::move(options));
  const Table table =
      GenerateDataset("synthetic", 262144, 8, 5).MoveValueOrDie();
  WorkloadGenerator generator(table);
  Rng rng(31);
  const std::vector<Query> workload = generator.Generate(
      ParseWorkloadName("dt").ValueOrDie(), 16, &rng);
  KdeConfig config;
  config.sample_size = 262144;
  auto model = KdeSelectivityEstimator::Create(Mode::kAdaptive, group.get(),
                                               &table, config)
                   .MoveValueOrDie();
  DeviceSample* sample = model->engine()->sample();
  const std::vector<std::size_t> before = sample->shard_sizes();
  EXPECT_GT(before[0], 3u * before[1]);  // Skew actually applied.

  FeedbackDriver::RunPrecomputed(model.get(), workload);
  const std::vector<std::size_t> after = sample->shard_sizes();
  const double total = static_cast<double>(after[0] + after[1]);
  EXPECT_NEAR(static_cast<double>(after[0]) / total, 0.5, 0.10)
      << after[0] << "/" << after[1];
  EXPECT_GT(sample->rows_migrated(), 0u);
}

TEST(KdeEstimator, KarmaReplacesStalePointsAfterBulkDelete) {
  // Build on clustered data, delete one cluster, query its region
  // repeatedly with truth 0: the sample points of that cluster must get
  // replaced.
  EstimatorFixture f(11);
  auto adaptive = f.Build(Mode::kAdaptive);
  // Identify cluster 0's bounding box from tagged rows.
  std::vector<double> lo(3, 1e300), hi(3, -1e300);
  for (std::size_t i = 0; i < f.table->num_rows(); ++i) {
    if (f.table->Tag(i) != 0) continue;
    for (std::size_t j = 0; j < 3; ++j) {
      lo[j] = std::min(lo[j], f.table->At(i, j));
      hi[j] = std::max(hi[j], f.table->At(i, j));
    }
  }
  const Box cluster_box(lo, hi);
  f.table->DeleteByTag(0);
  adaptive->OnDelete(0, f.table->num_rows());
  for (int i = 0; i < 30; ++i) {
    (void)adaptive->EstimateSelectivity(cluster_box);
    adaptive->ObserveTrueSelectivity(cluster_box, 0.0);
  }
  EXPECT_GT(adaptive->karma_replacements(), 0u);
}

TEST(KdeEstimator, ReservoirSamplesInsertStream) {
  EstimatorFixture f(12);
  auto adaptive = f.Build(Mode::kAdaptive);
  // Insert far-away rows; eventually some enter the sample, shifting
  // estimates toward the new region.
  const Box new_region({5.0, 5.0, 5.0}, {7.0, 7.0, 7.0});
  const double before = adaptive->EstimateSelectivity(new_region);
  Rng rng(13);
  for (int i = 0; i < 3000; ++i) {
    std::vector<double> row = {rng.Uniform(5.0, 7.0), rng.Uniform(5.0, 7.0),
                               rng.Uniform(5.0, 7.0)};
    f.table->Insert(row);
    adaptive->OnInsert(row, f.table->num_rows());
  }
  const double after = adaptive->EstimateSelectivity(new_region);
  EXPECT_GT(after, before + 0.01);
}

TEST(KdeEstimator, ModelBytesTracksBudget) {
  EstimatorFixture f(14);
  KdeConfig config;
  config.sample_size = 1024;
  auto estimator =
      KdeSelectivityEstimator::Create(Mode::kHeuristic, f.device.get(),
                                      f.table.get(), config)
          .MoveValueOrDie();
  // Sample payload dominates: 1024 rows x 3 dims x 4 bytes.
  EXPECT_GE(estimator->ModelBytes(), 1024u * 3u * 4u);
  EXPECT_LE(estimator->ModelBytes(), 2u * 1024u * 3u * 4u + 16384u);
}

TEST(KdeEstimator, SampleSizeClampedToTable) {
  Table tiny(2);
  for (int i = 0; i < 10; ++i) {
    tiny.Insert(std::vector<double>{i * 1.0, i * 2.0});
  }
  Device device(DeviceProfile::OpenClCpu());
  KdeConfig config;
  config.sample_size = 1000;
  auto estimator = KdeSelectivityEstimator::Create(Mode::kHeuristic, &device,
                                                   &tiny, config)
                       .MoveValueOrDie();
  EXPECT_EQ(estimator->engine()->sample_size(), 10u);
}

TEST(KdeEstimator, RejectsInvalidConstruction) {
  EstimatorFixture f(15);
  KdeConfig config;
  EXPECT_FALSE(KdeSelectivityEstimator::Create(Mode::kHeuristic,
                                               static_cast<Device*>(nullptr),
                                               f.table.get(), config)
                   .ok());
  EXPECT_FALSE(KdeSelectivityEstimator::Create(Mode::kHeuristic,
                                               f.device.get(), nullptr,
                                               config)
                   .ok());
  Table empty(3);
  EXPECT_FALSE(KdeSelectivityEstimator::Create(Mode::kHeuristic,
                                               f.device.get(), &empty, config)
                   .ok());
  config.sample_size = 0;
  EXPECT_FALSE(KdeSelectivityEstimator::Create(Mode::kHeuristic,
                                               f.device.get(), f.table.get(),
                                               config)
                   .ok());
}

TEST(KdeEstimator, EpanechnikovKernelEndToEnd) {
  EstimatorFixture f(16);
  KdeConfig config;
  config.kernel = KernelType::kEpanechnikov;
  config.sample_size = 256;
  auto estimator =
      KdeSelectivityEstimator::Create(Mode::kAdaptive, f.device.get(),
                                      f.table.get(), config)
          .MoveValueOrDie();
  FeedbackDriver::Train(estimator.get(), f.training);
  const RunStats stats = FeedbackDriver::RunPrecomputed(estimator.get(),
                                                        f.test);
  EXPECT_LT(stats.MeanAbsoluteError(), 0.5);
}

// Half-open query boxes (one bound at -inf or +inf) are valid input. The
// density term of an infinite bound is zero, so the gradient stays finite
// and RMSprop never steps the bandwidth to NaN.
TEST(KdeEstimator, AdaptiveStaysFiniteOnHalfOpenBoxes) {
  const double inf = std::numeric_limits<double>::infinity();
  // OpenClCpu runs the double body, SimdCpu the float lanes.
  for (const DeviceProfile& profile :
       {DeviceProfile::OpenClCpu(), DeviceProfile::SimdCpu()}) {
    for (const KernelType kernel :
         {KernelType::kGaussian, KernelType::kEpanechnikov}) {
      SCOPED_TRACE(::testing::Message()
                   << profile.name << " " << KernelName(kernel));
      EstimatorFixture f(17);
      f.device = std::make_unique<Device>(profile);
      KdeConfig config;
      config.kernel = kernel;
      auto adaptive = f.Build(Mode::kAdaptive, config);
      for (std::size_t q = 0; q < 200; ++q) {
        const Box& base = f.test[q % f.test.size()].box;
        std::vector<double> lower = base.lower_bounds();
        std::vector<double> upper = base.upper_bounds();
        const std::size_t dim = q % lower.size();
        if (q % 2 == 0) {
          lower[dim] = -inf;
        } else {
          upper[dim] = inf;
        }
        const Box box(std::move(lower), std::move(upper));
        const double estimate = adaptive->EstimateSelectivity(box);
        ASSERT_TRUE(std::isfinite(estimate)) << "query " << q;
        const double truth = static_cast<double>(f.table->CountInBox(box)) /
                             static_cast<double>(f.table->num_rows());
        adaptive->ObserveTrueSelectivity(box, truth);
        for (double h : adaptive->bandwidth()) {
          ASSERT_TRUE(std::isfinite(h) && h > 0.0) << "query " << q;
        }
      }
    }
  }
}

}  // namespace
}  // namespace fkde
