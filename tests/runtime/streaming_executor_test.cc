// StreamingExecutor: N queries in flight per estimator. Pins the PR's
// acceptance criterion — streamed execution under the strict hazard
// checker returns estimates bitwise-identical to a serial replay of the
// same admission schedule — plus the window=1 == classic-loop identity,
// ring wrap-around across multi-device shards, open-loop arrival
// generation, and catalog-served streaming with eviction afterwards.

#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "data/generators.h"
#include "kde/kde_estimator.h"
#include "parallel/device_group.h"
#include "runtime/catalog.h"
#include "runtime/driver.h"
#include "runtime/streaming_executor.h"
#include "runtime/topology.h"
#include "workload/workload.h"

namespace fkde {
namespace {

struct Rig {
  explicit Rig(std::size_t queries = 24, std::uint64_t seed = 3)
      : table(GenerateDataset("synthetic", 3000, 3, seed).MoveValueOrDie()) {
    WorkloadGenerator generator(table);
    Rng rng(seed + 17);
    const std::vector<Query> generated = generator.Generate(
        ParseWorkloadName("dt").ValueOrDie(), queries, &rng);
    for (const Query& q : generated) {
      StreamedQuery sq;
      sq.box = q.box;
      sq.truth = q.selectivity;
      workload.push_back(sq);
      queries_classic.push_back(q);
    }
    config.sample_size = 128;
    config.seed = seed + 29;
  }

  /// Fresh strict-hazard group + fresh adaptive model, same seeds every
  /// time: any two runs that execute the same logical schedule must agree
  /// bitwise.
  StreamingReport Run(const std::string& topology,
                      const StreamingOptions& options) const {
    DeviceGroupOptions group_options;
    group_options.hazard_mode = HazardMode::kStrict;
    auto group = BuildDeviceGroup(topology, group_options).MoveValueOrDie();
    auto model = KdeSelectivityEstimator::Create(
                     KdeSelectivityEstimator::Mode::kAdaptive, group.get(),
                     &table, config)
                     .MoveValueOrDie();
    StreamingExecutor executor(group.get(), options);
    StreamingReport report =
        executor.Run(model.get(), workload).MoveValueOrDie();
    EXPECT_EQ(model->stream_in_flight(), 0u);
    EXPECT_EQ(model->engine()->slots_in_flight(), 0u);
    model.reset();
    EXPECT_EQ(group->AggregateScratchStats().outstanding, 0u);
    return report;
  }

  Table table;
  std::vector<StreamedQuery> workload;
  std::vector<Query> queries_classic;
  KdeConfig config;
};

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// The acceptance pin: pipelined streaming (4 in flight, ring wrap several
// times over) under HazardMode::kStrict is bitwise the serial replay of
// the same schedule.
TEST(StreamingExecutor, StreamedMatchesSerialReplayBitwiseStrictHazard) {
  Rig rig(30);
  StreamingOptions streamed;
  streamed.window = 4;
  streamed.execution_seconds = 100e-6;
  StreamingOptions replay = streamed;
  replay.pipeline = false;

  for (const char* topology : {"gpu", "cpu+gpu"}) {
    const StreamingReport a = rig.Run(topology, streamed);
    const StreamingReport b = rig.Run(topology, replay);
    EXPECT_TRUE(SameBits(a.estimates, b.estimates)) << topology;
    EXPECT_EQ(a.completed, rig.workload.size());
    EXPECT_GT(a.throughput_qps, 0.0);
  }
}

// window=1 streaming enqueues exactly the classic Estimate/Observe pair
// sequence, so it must reproduce the classic driver loop bit-for-bit.
TEST(StreamingExecutor, WindowOneMatchesClassicLoopBitwise) {
  Rig rig(20);
  StreamingOptions serial;
  serial.window = 1;
  const StreamingReport streamed = rig.Run("gpu", serial);

  DeviceGroupOptions group_options;
  group_options.hazard_mode = HazardMode::kStrict;
  auto group = BuildDeviceGroup("gpu", group_options).MoveValueOrDie();
  auto model = KdeSelectivityEstimator::Create(
                   KdeSelectivityEstimator::Mode::kAdaptive, group.get(),
                   &rig.table, rig.config)
                   .MoveValueOrDie();
  std::vector<double> classic;
  for (const StreamedQuery& q : rig.workload) {
    classic.push_back(model->EstimateSelectivity(q.box));
    model->ObserveTrueSelectivity(q.box, q.truth);
  }
  EXPECT_TRUE(SameBits(streamed.estimates, classic));
}

// Deep window on a two-shard group: every descriptor slot is reused
// several times (ring wrap), with each shard's queue pipelining its own
// copy of the per-slot chain. Feedback off exercises the retire path.
TEST(StreamingExecutor, RingWrapAcrossShardsFrozenModel) {
  Rig rig(40);
  StreamingOptions streamed;
  streamed.window = 6;
  streamed.feedback = false;
  StreamingOptions replay = streamed;
  replay.pipeline = false;
  const StreamingReport a = rig.Run("cpu+gpu", streamed);
  const StreamingReport b = rig.Run("cpu+gpu", replay);
  EXPECT_TRUE(SameBits(a.estimates, b.estimates));

  // A frozen model never folds feedback, so the estimates also match a
  // frozen classic loop.
  DeviceGroupOptions group_options;
  group_options.hazard_mode = HazardMode::kStrict;
  auto group = BuildDeviceGroup("cpu+gpu", group_options).MoveValueOrDie();
  auto model = KdeSelectivityEstimator::Create(
                   KdeSelectivityEstimator::Mode::kAdaptive, group.get(),
                   &rig.table, rig.config)
                   .MoveValueOrDie();
  std::vector<double> frozen;
  for (const StreamedQuery& q : rig.workload) {
    frozen.push_back(model->EstimateSelectivity(q.box));
  }
  EXPECT_TRUE(SameBits(a.estimates, frozen));
}

// The streamed-serving win on the modeled clock (the traffic_bench
// gate, at test size): with a database execution window to hide device
// work behind, four queries in flight beat the one-at-a-time cycle on
// throughput and leave the host stalled for a smaller share of the run.
TEST(StreamingExecutor, WindowFourBeatsWindowOneOnModeledClock) {
  const Table table =
      GenerateDataset("synthetic", 40000, 5, 1).MoveValueOrDie();
  WorkloadGenerator generator(table);
  Rng rng(18);
  const std::vector<Query> workload =
      generator.Generate(ParseWorkloadName("dt").ValueOrDie(), 40, &rng);
  KdeConfig config;
  config.sample_size = 16384;
  config.seed = 30;
  const auto run = [&](std::size_t window) {
    auto group = BuildDeviceGroup("gpu").MoveValueOrDie();
    auto model = KdeSelectivityEstimator::Create(
                     KdeSelectivityEstimator::Mode::kAdaptive, group.get(),
                     &table, config)
                     .MoveValueOrDie();
    StreamingOptions options;
    options.window = window;
    options.execution_seconds = 200e-6;
    StreamingReport report;
    FeedbackDriver::RunStreamed(model.get(), workload, options, &report)
        .MoveValueOrDie();
    return report;
  };
  const StreamingReport one = run(1);
  const StreamingReport four = run(4);
  EXPECT_GT(four.throughput_qps, one.throughput_qps);
  EXPECT_LT(four.idle_gap, one.idle_gap);
}

// A classic estimate left without feedback holds the head of the ticket
// FIFO; a stream on the same model retires it first and matches a stream
// on a model that never served it.
TEST(StreamingExecutor, StreamAfterUnansweredClassicEstimate) {
  Rig rig(12);
  StreamingOptions options;
  options.window = 3;
  const StreamingReport fresh = rig.Run("gpu", options);

  DeviceGroupOptions group_options;
  group_options.hazard_mode = HazardMode::kStrict;
  auto group = BuildDeviceGroup("gpu", group_options).MoveValueOrDie();
  auto model = KdeSelectivityEstimator::Create(
                   KdeSelectivityEstimator::Mode::kAdaptive, group.get(),
                   &rig.table, rig.config)
                   .MoveValueOrDie();
  (void)model->EstimateSelectivity(rig.workload[0].box);
  StreamingExecutor executor(group.get(), options);
  const StreamingReport after =
      executor.Run(model.get(), rig.workload).MoveValueOrDie();
  EXPECT_TRUE(SameBits(after.estimates, fresh.estimates));
  EXPECT_EQ(model->stream_in_flight(), 0u);
}

TEST(StreamingExecutor, PoissonArrivalsDeterministicAndMonotone) {
  const std::vector<double> a = StreamingExecutor::PoissonArrivals(50, 1e4, 7);
  const std::vector<double> b = StreamingExecutor::PoissonArrivals(50, 1e4, 7);
  ASSERT_EQ(a.size(), 50u);
  EXPECT_TRUE(SameBits(a, b));
  double previous = 0.0;
  for (double t : a) {
    EXPECT_GT(t, previous);
    previous = t;
  }
  // Closed loop: every arrival at t=0.
  const std::vector<double> closed =
      StreamingExecutor::PoissonArrivals(5, 0.0, 7);
  for (double t : closed) EXPECT_EQ(t, 0.0);
}

// Open-loop run: latencies are measured from arrival, so they must be
// finite and positive, and the span must cover the last arrival.
TEST(StreamingExecutor, OpenLoopLatenciesAndReportShape) {
  Rig rig(24);
  StreamingOptions options;
  options.window = 3;
  options.offered_load_qps = 2000.0;
  options.execution_seconds = 50e-6;
  const StreamingReport report = rig.Run("gpu", options);
  ASSERT_EQ(report.latencies_s.size(), rig.workload.size());
  for (double l : report.latencies_s) {
    EXPECT_GT(l, 0.0);
    EXPECT_LT(l, 1.0);
  }
  EXPECT_GT(report.span_s, 0.0);
  EXPECT_GT(report.total_commands, 0u);
  EXPECT_GE(report.queue_depth_high_water, 1u);
  EXPECT_GE(report.idle_gap, 0.0);
}

// The driver facade: errors come back in arrival order against truths.
TEST(StreamingExecutor, DriverRunStreamedReportsErrors) {
  Rig rig(16);
  DeviceGroupOptions group_options;
  group_options.hazard_mode = HazardMode::kStrict;
  auto group = BuildDeviceGroup("gpu", group_options).MoveValueOrDie();
  auto model = KdeSelectivityEstimator::Create(
                   KdeSelectivityEstimator::Mode::kAdaptive, group.get(),
                   &rig.table, rig.config)
                   .MoveValueOrDie();
  StreamingOptions options;
  options.window = 4;
  StreamingReport report;
  const RunStats stats = FeedbackDriver::RunStreamed(
                             model.get(), rig.queries_classic, options,
                             &report)
                             .MoveValueOrDie();
  ASSERT_EQ(stats.absolute_errors.size(), rig.workload.size());
  ASSERT_EQ(report.estimates.size(), rig.workload.size());
  for (std::size_t i = 0; i < rig.workload.size(); ++i) {
    EXPECT_DOUBLE_EQ(
        stats.absolute_errors[i],
        std::abs(report.estimates[i] - rig.queries_classic[i].selectivity));
  }
}

// Catalog-served streaming: the stream pins the model, and afterwards the
// catalog can still evict and fault it back for classic serving.
TEST(StreamingExecutor, RunCatalogStreamsThenEvictsCleanly) {
  Rig rig(18);
  DeviceGroupOptions group_options;
  group_options.hazard_mode = HazardMode::kStrict;
  auto group = BuildDeviceGroup("gpu", group_options).MoveValueOrDie();
  ModelCatalog catalog(group.get());
  ModelKey key;
  key.table = "t";
  key.columns = {"a", "b", "c"};
  ModelSpec spec;
  spec.mode = KdeSelectivityEstimator::Mode::kAdaptive;
  spec.config = rig.config;
  spec.table = &rig.table;
  ASSERT_TRUE(catalog.Register(key, std::move(spec)).ok());

  StreamingOptions options;
  options.window = 4;
  const StreamingReport report =
      StreamingExecutor::RunCatalog(&catalog, key, rig.workload, options)
          .MoveValueOrDie();
  EXPECT_EQ(report.completed, rig.workload.size());
  EXPECT_FALSE(catalog.StatsFor(key).MoveValueOrDie().pinned);

  ASSERT_TRUE(catalog.Evict(key).ok());
  const double estimate =
      catalog.Estimate(key, rig.workload[0].box).MoveValueOrDie();
  EXPECT_GE(estimate, 0.0);
  EXPECT_LE(estimate, 1.0);
}

// Regression: ticket ids are not persistent state. A counter that never
// restarted would make a snapshot-restored model (whose counter starts
// fresh) hand out different ids than the original for the same
// admission schedule. Ids restart at 0 whenever the FIFO empties.
TEST(StreamingExecutor, TicketIdsRestartWhenFifoEmpties) {
  Rig rig(8);
  DeviceGroupOptions group_options;
  group_options.hazard_mode = HazardMode::kStrict;
  auto group = BuildDeviceGroup("gpu", group_options).MoveValueOrDie();
  auto model = KdeSelectivityEstimator::Create(
                   KdeSelectivityEstimator::Mode::kAdaptive, group.get(),
                   &rig.table, rig.config)
                   .MoveValueOrDie();

  // Three tickets in flight count up from 0.
  std::vector<std::uint64_t> tickets;
  for (std::size_t k = 0; k < 3; ++k) {
    tickets.push_back(model->StreamBegin(rig.workload[k].box));
    EXPECT_EQ(tickets.back(), static_cast<std::uint64_t>(k));
  }
  // An admission behind open tickets keeps counting.
  model->StreamDeliver(tickets[0]);
  model->StreamFeedback(tickets[0], rig.workload[0].truth);
  EXPECT_EQ(model->StreamBegin(rig.workload[3].box), 3u);
  for (std::uint64_t ticket : {1u, 2u, 3u}) {
    model->StreamDeliver(ticket);
    model->StreamRetire(ticket);
  }
  EXPECT_EQ(model->engine()->slots_in_flight(), 0u);

  // Once the FIFO is empty the next admission starts over at ticket 0 —
  // the same id a freshly restored copy of the model would hand out.
  const std::uint64_t first = model->StreamBegin(rig.workload[4].box);
  EXPECT_EQ(first, 0u);
  model->StreamDeliver(first);
  model->StreamRetire(first);
}

}  // namespace
}  // namespace fkde
