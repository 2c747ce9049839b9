// ModelCatalog: multi-model serving on one shared device group. Pins the
// PR's acceptance criteria — interleaved serving across >= 8 models is
// bitwise-identical to isolated single-model runs, and constrained-budget
// evict/snapshot/fault-back cycles restore bitwise-identical estimates —
// plus lifecycle, LRU/pinning, stats, external snapshot persistence, and
// the destruction-order regression for estimators sharing a group.

#include <cstring>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/generators.h"
#include "kde/kde_estimator.h"
#include "parallel/device_group.h"
#include "runtime/catalog.h"
#include "runtime/driver.h"
#include "runtime/factory.h"
#include "runtime/topology.h"
#include "workload/workload.h"

namespace fkde {
namespace {

struct Fleet {
  explicit Fleet(std::size_t models, std::size_t queries_per_model = 12,
                 std::uint64_t seed = 3, std::size_t rows = 3000,
                 std::size_t sample_size = 128) {
    tables.reserve(models);
    for (std::size_t m = 0; m < models; ++m) {
      const std::uint64_t model_seed = seed * 7919 + m;
      tables.push_back(
          GenerateDataset("synthetic", rows, 3, model_seed).MoveValueOrDie());
      WorkloadGenerator generator(tables.back());
      Rng rng(model_seed + 17);
      workloads.push_back(
          generator.Generate(ParseWorkloadName("dt").ValueOrDie(),
                             queries_per_model, &rng));
      ModelKey key;
      key.table = "t";
      key.table += std::to_string(m);
      key.columns = {"a", "b", "c"};
      keys.push_back(std::move(key));
      KdeConfig config;
      config.sample_size = sample_size;
      config.seed = model_seed + 29;
      configs.push_back(config);
    }
  }

  void RegisterAll(ModelCatalog* catalog) const {
    for (std::size_t m = 0; m < keys.size(); ++m) {
      ModelSpec spec;
      spec.mode = KdeSelectivityEstimator::Mode::kAdaptive;
      spec.config = configs[m];
      spec.table = &tables[m];
      ASSERT_TRUE(catalog->Register(keys[m], std::move(spec)).ok());
    }
  }

  /// Round-robin estimate+feedback through the catalog; returns per-model
  /// estimate streams.
  std::vector<std::vector<double>> Serve(ModelCatalog* catalog) const {
    std::vector<std::vector<double>> estimates(keys.size());
    for (std::size_t q = 0; q < workloads[0].size(); ++q) {
      for (std::size_t m = 0; m < keys.size(); ++m) {
        const Query& query = workloads[m][q];
        estimates[m].push_back(
            catalog->Estimate(keys[m], query.box).MoveValueOrDie());
        FKDE_CHECK_OK(
            catalog->Feedback(keys[m], query.box, query.selectivity));
      }
    }
    return estimates;
  }

  std::vector<Table> tables;
  std::vector<std::vector<Query>> workloads;
  std::vector<ModelKey> keys;
  std::vector<KdeConfig> configs;
};

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

TEST(ModelCatalog, LifecycleRegisterDuplicateDrop) {
  Fleet fleet(1);
  auto group = BuildDeviceGroup("cpu").MoveValueOrDie();
  ModelCatalog catalog(group.get());
  fleet.RegisterAll(&catalog);

  ModelSpec dup;
  dup.table = &fleet.tables[0];
  EXPECT_TRUE(catalog.Register(fleet.keys[0], std::move(dup))
                  .code() == StatusCode::kAlreadyExists);
  EXPECT_EQ(catalog.Keys().size(), 1u);
  EXPECT_EQ(fleet.keys[0].ToString(), "t0(a,b,c)");

  // Lazy build: not resident until the first query.
  EXPECT_FALSE(catalog.StatsFor(fleet.keys[0]).MoveValueOrDie().resident);
  (void)catalog.Estimate(fleet.keys[0], fleet.workloads[0][0].box)
      .MoveValueOrDie();
  const ModelStats stats = catalog.StatsFor(fleet.keys[0]).MoveValueOrDie();
  EXPECT_TRUE(stats.resident);
  EXPECT_EQ(stats.queries_served, 1u);
  EXPECT_GT(stats.device_bytes, 0u);

  EXPECT_TRUE(catalog.Drop(fleet.keys[0]).ok());
  EXPECT_TRUE(catalog.Drop(fleet.keys[0]).IsNotFound());
  EXPECT_FALSE(catalog.Estimate(fleet.keys[0], fleet.workloads[0][0].box)
                   .ok());
}

// The PR's first acceptance pin: >= 8 concurrently-live models on ONE
// shared group, interleaved query+feedback, bitwise-identical to 8
// isolated single-model runs.
TEST(ModelCatalog, EightSharedModelsMatchIsolatedRunsBitwise) {
  Fleet fleet(8);
  auto group = BuildDeviceGroup("gpu").MoveValueOrDie();
  ModelCatalog catalog(group.get());
  fleet.RegisterAll(&catalog);
  const std::vector<std::vector<double>> shared = fleet.Serve(&catalog);

  for (std::size_t m = 0; m < 8; ++m) {
    auto solo_group = BuildDeviceGroup("gpu").MoveValueOrDie();
    auto solo = KdeSelectivityEstimator::Create(
                    KdeSelectivityEstimator::Mode::kAdaptive,
                    solo_group.get(), &fleet.tables[m], fleet.configs[m])
                    .MoveValueOrDie();
    std::vector<double> isolated;
    for (const Query& q : fleet.workloads[m]) {
      isolated.push_back(solo->EstimateSelectivity(q.box));
      solo->ObserveTrueSelectivity(q.box, q.selectivity);
    }
    EXPECT_TRUE(SameBits(shared[m], isolated)) << "model " << m;
  }
}

// The PR's second acceptance pin: a budget small enough to force
// continuous evict -> snapshot -> fault-back cycling must not change one
// bit of any estimate.
TEST(ModelCatalog, EvictionUnderBudgetRestoresBitwise) {
  Fleet fleet(8);
  auto free_group = BuildDeviceGroup("gpu").MoveValueOrDie();
  ModelCatalog free_catalog(free_group.get());
  fleet.RegisterAll(&free_catalog);
  const std::vector<std::vector<double>> unconstrained =
      fleet.Serve(&free_catalog);
  std::size_t model_bytes = 0;
  for (const ModelKey& key : fleet.keys) {
    model_bytes = std::max(
        model_bytes, free_catalog.StatsFor(key).MoveValueOrDie().device_bytes);
  }

  auto tight_group = BuildDeviceGroup("gpu").MoveValueOrDie();
  CatalogOptions options;
  options.device_budget_bytes = model_bytes * 5 / 2;  // ~2 of 8 resident.
  ModelCatalog tight(tight_group.get(), options);
  fleet.RegisterAll(&tight);
  const std::vector<std::vector<double>> constrained = fleet.Serve(&tight);

  for (std::size_t m = 0; m < 8; ++m) {
    EXPECT_TRUE(SameBits(constrained[m], unconstrained[m])) << "model " << m;
  }
  const CatalogStats stats = tight.Stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.faults, 0u);
  EXPECT_LE(stats.resident_models, 3u);
}

// Both pins again at serving scale: 8 models of s = 1024 (the paper's
// d * 4 kB float budget) over 20000-row tables, 40 queries each. Shared
// serving matches isolated runs bit for bit, and a budget of 5/2 models
// evicts and faults back without moving a bit.
TEST(ModelCatalog, ServingScaleSharedIsolatedAndEvictedRunsMatchBitwise) {
  Fleet fleet(8, 40, 1, 20000, 1024);
  auto shared_group = BuildDeviceGroup("gpu").MoveValueOrDie();
  ModelCatalog shared_catalog(shared_group.get());
  fleet.RegisterAll(&shared_catalog);
  const std::vector<std::vector<double>> shared =
      fleet.Serve(&shared_catalog);

  std::size_t model_bytes = 0;
  for (std::size_t m = 0; m < 8; ++m) {
    model_bytes = std::max(model_bytes, shared_catalog.StatsFor(fleet.keys[m])
                                            .MoveValueOrDie()
                                            .device_bytes);
    auto solo_group = BuildDeviceGroup("gpu").MoveValueOrDie();
    auto solo = KdeSelectivityEstimator::Create(
                    KdeSelectivityEstimator::Mode::kAdaptive,
                    solo_group.get(), &fleet.tables[m], fleet.configs[m])
                    .MoveValueOrDie();
    std::vector<double> isolated;
    for (const Query& q : fleet.workloads[m]) {
      isolated.push_back(solo->EstimateSelectivity(q.box));
      solo->ObserveTrueSelectivity(q.box, q.selectivity);
    }
    EXPECT_TRUE(SameBits(shared[m], isolated)) << "model " << m;
  }

  auto tight_group = BuildDeviceGroup("gpu").MoveValueOrDie();
  CatalogOptions options;
  options.device_budget_bytes = model_bytes * 5 / 2;
  ModelCatalog tight(tight_group.get(), options);
  fleet.RegisterAll(&tight);
  const std::vector<std::vector<double>> constrained = fleet.Serve(&tight);
  for (std::size_t m = 0; m < 8; ++m) {
    EXPECT_TRUE(SameBits(constrained[m], shared[m])) << "model " << m;
  }
  const CatalogStats stats = tight.Stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.faults, 0u);
}

// Parking on a sharded group: a gpu+gpu catalog under a budget of about
// 2.5 models evicts and faults back without moving a bit against an
// unconstrained one. A model left parked (evicted after its last query,
// never faulted back) saves exactly the bytes of its never-evicted twin:
// the parked state is the model's, shard layout and rebalancer rates
// included. Restore used to run a Scott pass that moved every shard's
// modeled clock, so this path has its own pin.
TEST(ModelCatalog, ShardedParkingStaysBitwise) {
  Fleet fleet(8);
  auto free_group = BuildDeviceGroup("gpu+gpu").MoveValueOrDie();
  ModelCatalog free_catalog(free_group.get());
  fleet.RegisterAll(&free_catalog);
  const std::vector<std::vector<double>> unconstrained =
      fleet.Serve(&free_catalog);
  std::size_t model_bytes = 0;
  for (const ModelKey& key : fleet.keys) {
    model_bytes = std::max(
        model_bytes, free_catalog.StatsFor(key).MoveValueOrDie().device_bytes);
  }

  auto tight_group = BuildDeviceGroup("gpu+gpu").MoveValueOrDie();
  CatalogOptions options;
  options.device_budget_bytes = model_bytes * 5 / 2;
  ModelCatalog tight(tight_group.get(), options);
  fleet.RegisterAll(&tight);
  const std::vector<std::vector<double>> constrained = fleet.Serve(&tight);
  for (std::size_t m = 0; m < 8; ++m) {
    EXPECT_TRUE(SameBits(constrained[m], unconstrained[m])) << "model " << m;
  }
  const CatalogStats stats = tight.Stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.faults, 0u);

  std::size_t parked = 0;
  for (const ModelKey& key : fleet.keys) {
    if (tight.StatsFor(key).MoveValueOrDie().resident) continue;
    ++parked;
    EXPECT_EQ(tight.SaveSnapshot(key).MoveValueOrDie(),
              free_catalog.SaveSnapshot(key).MoveValueOrDie())
        << key.ToString();
    EXPECT_FALSE(tight.StatsFor(key).MoveValueOrDie().resident);
  }
  EXPECT_GT(parked, 0u);
}

TEST(ModelCatalog, LruOrderAndPinning) {
  Fleet fleet(3);
  auto group = BuildDeviceGroup("cpu").MoveValueOrDie();
  ModelCatalog catalog(group.get());
  fleet.RegisterAll(&catalog);
  // Make all three resident, oldest-touched first.
  for (std::size_t m = 0; m < 3; ++m) {
    (void)catalog.Estimate(fleet.keys[m], fleet.workloads[m][0].box)
        .MoveValueOrDie();
  }
  ASSERT_TRUE(catalog.Pin(fleet.keys[0], true).ok());
  EXPECT_TRUE(catalog.Evict(fleet.keys[0]).IsFailedPrecondition());

  // Manual evict of a non-pinned model spills it; the next query faults
  // it back transparently.
  ASSERT_TRUE(catalog.Evict(fleet.keys[1]).ok());
  EXPECT_FALSE(catalog.StatsFor(fleet.keys[1]).MoveValueOrDie().resident);
  (void)catalog.Estimate(fleet.keys[1], fleet.workloads[1][1].box)
      .MoveValueOrDie();
  const ModelStats faulted = catalog.StatsFor(fleet.keys[1]).MoveValueOrDie();
  EXPECT_TRUE(faulted.resident);
  EXPECT_EQ(faulted.evictions, 1u);
  EXPECT_EQ(faulted.faults, 1u);

  // Unpinned again, model 0 becomes evictable.
  ASSERT_TRUE(catalog.Pin(fleet.keys[0], false).ok());
  EXPECT_TRUE(catalog.Evict(fleet.keys[0]).ok());
}

TEST(ModelCatalog, ExternalSnapshotPersistenceAcrossCatalogs) {
  Fleet fleet(1, 20);
  auto group_a = BuildDeviceGroup("cpu").MoveValueOrDie();
  ModelCatalog catalog_a(group_a.get());
  fleet.RegisterAll(&catalog_a);
  const std::vector<std::vector<double>> before = fleet.Serve(&catalog_a);
  const std::vector<std::uint8_t> blob =
      catalog_a.SaveSnapshot(fleet.keys[0]).MoveValueOrDie();

  // "Process restart": a fresh catalog on a fresh group, seeded from the
  // blob. The model must continue exactly where the old one stood.
  auto group_b = BuildDeviceGroup("cpu").MoveValueOrDie();
  ModelCatalog catalog_b(group_b.get());
  ModelSpec spec;
  spec.mode = KdeSelectivityEstimator::Mode::kAdaptive;
  spec.config = fleet.configs[0];
  spec.table = &fleet.tables[0];
  ASSERT_TRUE(
      catalog_b.RegisterFromSnapshot(fleet.keys[0], std::move(spec), blob)
          .ok());

  WorkloadGenerator generator(fleet.tables[0]);
  Rng rng(97);
  const std::vector<Query> stream = generator.Generate(
      ParseWorkloadName("dt").ValueOrDie(), 50, &rng);
  for (const Query& q : stream) {
    const double a = catalog_a.Estimate(fleet.keys[0], q.box).MoveValueOrDie();
    const double b = catalog_b.Estimate(fleet.keys[0], q.box).MoveValueOrDie();
    ASSERT_EQ(std::memcmp(&a, &b, sizeof(double)), 0);
    ASSERT_TRUE(catalog_a.Feedback(fleet.keys[0], q.box, q.selectivity).ok());
    ASSERT_TRUE(catalog_b.Feedback(fleet.keys[0], q.box, q.selectivity).ok());
  }
}

// A fault-in releases the cold blob: the live model is the state of
// record from then on. SaveSnapshot must still return a blob equal to a
// never-evicted twin's, that blob must restore bitwise, and a second
// evict/fault round trip must stay bitwise too.
TEST(ModelCatalog, FaultInReleasesTheBlobAndSnapshotsStayBitwise) {
  Fleet fleet(1, 20);
  auto group = BuildDeviceGroup("cpu").MoveValueOrDie();
  ModelCatalog catalog(group.get());
  auto twin_group = BuildDeviceGroup("cpu").MoveValueOrDie();
  ModelCatalog twin(twin_group.get());
  fleet.RegisterAll(&catalog);
  fleet.RegisterAll(&twin);
  (void)fleet.Serve(&catalog);
  (void)fleet.Serve(&twin);
  const ModelKey& key = fleet.keys[0];

  WorkloadGenerator generator(fleet.tables[0]);
  Rng rng(41);
  const std::vector<Query> stream = generator.Generate(
      ParseWorkloadName("dt").ValueOrDie(), 12, &rng);
  for (int round = 0; round < 2; ++round) {
    ASSERT_TRUE(catalog.Evict(key).ok());
    ASSERT_TRUE(catalog.Open(key).ok());  // Fault in, nothing served.
    const std::vector<std::uint8_t> blob =
        catalog.SaveSnapshot(key).MoveValueOrDie();
    EXPECT_EQ(blob, twin.SaveSnapshot(key).MoveValueOrDie()) << round;

    auto restored_group = BuildDeviceGroup("cpu").MoveValueOrDie();
    ModelCatalog restored(restored_group.get());
    ModelSpec spec;
    spec.mode = KdeSelectivityEstimator::Mode::kAdaptive;
    spec.config = fleet.configs[0];
    spec.table = &fleet.tables[0];
    ASSERT_TRUE(restored.RegisterFromSnapshot(key, std::move(spec), blob)
                    .ok());
    for (const Query& q : stream) {
      const double a = catalog.Estimate(key, q.box).MoveValueOrDie();
      const double b = twin.Estimate(key, q.box).MoveValueOrDie();
      const double c = restored.Estimate(key, q.box).MoveValueOrDie();
      ASSERT_EQ(std::memcmp(&a, &b, sizeof(double)), 0) << round;
      ASSERT_EQ(std::memcmp(&a, &c, sizeof(double)), 0) << round;
      ASSERT_TRUE(catalog.Feedback(key, q.box, q.selectivity).ok());
      ASSERT_TRUE(twin.Feedback(key, q.box, q.selectivity).ok());
      ASSERT_TRUE(restored.Feedback(key, q.box, q.selectivity).ok());
    }
  }
  EXPECT_EQ(catalog.StatsFor(key).MoveValueOrDie().faults, 2u);
}

// A non-finite truth is outside input: the catalog rejects it with
// InvalidArgument before touching the model, its stats or its residency,
// so later estimates (across several adaptive mini-batch steps) stay
// bitwise equal to a twin that never saw the bad calls.
TEST(ModelCatalog, NonFiniteFeedbackIsRejectedAndLeavesTheModelUntouched) {
  Fleet fleet(1, 40);
  auto group = BuildDeviceGroup("cpu").MoveValueOrDie();
  ModelCatalog catalog(group.get());
  auto twin_group = BuildDeviceGroup("cpu").MoveValueOrDie();
  ModelCatalog twin(twin_group.get());
  fleet.RegisterAll(&catalog);
  fleet.RegisterAll(&twin);
  const ModelKey& key = fleet.keys[0];
  const std::vector<Query>& stream = fleet.workloads[0];
  const double bad[] = {std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity(),
                        -std::numeric_limits<double>::infinity()};

  // Cold (never built): rejection must not build the model.
  for (const double truth : bad) {
    EXPECT_TRUE(catalog.Feedback(key, stream[0].box, truth)
                    .IsInvalidArgument());
  }
  EXPECT_FALSE(catalog.StatsFor(key).MoveValueOrDie().resident);

  for (std::size_t q = 0; q < stream.size(); ++q) {
    const double a = catalog.Estimate(key, stream[q].box).MoveValueOrDie();
    const double b = twin.Estimate(key, stream[q].box).MoveValueOrDie();
    ASSERT_EQ(std::memcmp(&a, &b, sizeof(double)), 0) << "query " << q;
    const ModelStats before = catalog.StatsFor(key).MoveValueOrDie();
    EXPECT_TRUE(catalog.Feedback(key, stream[q].box, bad[q % 3])
                    .IsInvalidArgument());
    const ModelStats after = catalog.StatsFor(key).MoveValueOrDie();
    EXPECT_EQ(after.feedback_applied, before.feedback_applied);
    EXPECT_EQ(after.resident, before.resident);
    ASSERT_TRUE(catalog.Feedback(key, stream[q].box, stream[q].selectivity)
                    .ok());
    ASSERT_TRUE(twin.Feedback(key, stream[q].box, stream[q].selectivity)
                    .ok());
  }
  EXPECT_EQ(catalog.StatsFor(key).MoveValueOrDie().feedback_applied,
            stream.size());
}

TEST(ModelCatalog, FactoryRoutesKdeThroughCatalogAndDriverRuns) {
  Fleet fleet(1, 15);
  auto group = BuildDeviceGroup("cpu").MoveValueOrDie();
  ModelCatalog catalog(group.get());
  Executor executor(&fleet.tables[0]);

  EstimatorBuildContext context;
  context.executor = &executor;
  context.catalog = &catalog;
  context.table_name = "orders";
  context.seed = 11;
  auto handle = BuildEstimator("kde_adaptive", context).MoveValueOrDie();
  EXPECT_EQ(handle->name(), "catalog:orders(c0,c1,c2)");
  EXPECT_EQ(handle->dims(), 3u);

  // The handle serves through the catalog: stats move with every call.
  ModelKey key;
  key.table = "orders";
  key.columns = {"c0", "c1", "c2"};
  (void)handle->EstimateSelectivity(fleet.workloads[0][0].box);
  handle->ObserveTrueSelectivity(fleet.workloads[0][0].box,
                                 fleet.workloads[0][0].selectivity);
  ModelStats stats = catalog.StatsFor(key).MoveValueOrDie();
  EXPECT_EQ(stats.queries_served, 1u);
  EXPECT_EQ(stats.feedback_applied, 1u);

  // And the catalog-aware driver produces a full RunStats.
  const RunStats run =
      FeedbackDriver::RunCatalog(&catalog, key, fleet.workloads[0])
          .MoveValueOrDie();
  EXPECT_EQ(run.absolute_errors.size(), fleet.workloads[0].size());
  stats = catalog.StatsFor(key).MoveValueOrDie();
  EXPECT_EQ(stats.queries_served, 1u + fleet.workloads[0].size());
}

// Catalog-level lock discipline: K client threads round-robining disjoint
// model sets through ONE catalog under the strict hazard checker. The
// per-entry admission mutex serializes each model's serving while the
// registry mutex only guards map lookups, so the threads make progress
// concurrently — and every model's estimate stream must be bitwise the
// single-threaded replay, with no scratch leaked once the models drop.
TEST(ModelCatalog, ConcurrentClientsMatchSingleThreadedReplayBitwise) {
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kModelsPerThread = 2;
  constexpr std::size_t kModels = kThreads * kModelsPerThread;
  Fleet fleet(kModels, 10);
  DeviceGroupOptions group_options;
  group_options.hazard_mode = HazardMode::kStrict;
  auto group = BuildDeviceGroup("gpu", group_options).MoveValueOrDie();
  auto catalog = std::make_unique<ModelCatalog>(group.get());
  fleet.RegisterAll(catalog.get());

  // Thread t owns models {t, t+K, ...}: disjoint ownership keeps each
  // model's query order deterministic while the catalog arbitrates the
  // shared group between threads.
  std::vector<std::vector<std::vector<double>>> streams(kThreads);
  std::vector<std::thread> clients;
  for (std::size_t t = 0; t < kThreads; ++t) {
    streams[t].resize(kModelsPerThread);
    clients.emplace_back([&, t] {
      for (std::size_t q = 0; q < fleet.workloads[0].size(); ++q) {
        for (std::size_t j = 0; j < kModelsPerThread; ++j) {
          const std::size_t m = t + j * kThreads;
          const Query& query = fleet.workloads[m][q];
          streams[t][j].push_back(
              catalog->Estimate(fleet.keys[m], query.box).MoveValueOrDie());
          FKDE_CHECK_OK(
              catalog->Feedback(fleet.keys[m], query.box, query.selectivity));
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();

  // Single-threaded replay on a fresh catalog: per-model bits must agree
  // (cross-model interleaving never leaks into a model's estimates).
  auto replay_group = BuildDeviceGroup("gpu", group_options).MoveValueOrDie();
  ModelCatalog replay(replay_group.get());
  fleet.RegisterAll(&replay);
  const std::vector<std::vector<double>> expected = fleet.Serve(&replay);
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t j = 0; j < kModelsPerThread; ++j) {
      const std::size_t m = t + j * kThreads;
      EXPECT_TRUE(SameBits(streams[t][j], expected[m])) << "model " << m;
    }
  }
  for (const ModelKey& key : fleet.keys) {
    EXPECT_EQ(catalog->StatsFor(key).MoveValueOrDie().queries_served,
              fleet.workloads[0].size());
  }

  // Dropping every model tears the estimators down; nothing may leak.
  for (const ModelKey& key : fleet.keys) {
    ASSERT_TRUE(catalog->Drop(key).ok());
  }
  catalog.reset();
  EXPECT_EQ(group->AggregateScratchStats().outstanding, 0u);
}

// ---------------------------------------------------------------------------
// Destruction-order regression: two estimators tenanting one DeviceGroup,
// both with passes still enqueued, torn down in either order under the
// strict hazard checker. Destruction must drain cleanly — no queue-drain
// assert, no leaked scratch handles.

class DestructionOrder : public ::testing::TestWithParam<bool> {};

TEST_P(DestructionOrder, TwoTenantsWithInflightPassesEitherOrder) {
  const Table table =
      GenerateDataset("synthetic", 2000, 3, 5).MoveValueOrDie();
  DeviceGroupOptions options;
  options.hazard_mode = HazardMode::kStrict;
  auto group = BuildDeviceGroup("cpu+gpu", options).MoveValueOrDie();

  KdeConfig config;
  config.sample_size = 128;
  config.seed = 7;
  auto first = KdeSelectivityEstimator::Create(
                   KdeSelectivityEstimator::Mode::kAdaptive, group.get(),
                   &table, config)
                   .MoveValueOrDie();
  config.seed = 8;
  auto second = KdeSelectivityEstimator::Create(
                    KdeSelectivityEstimator::Mode::kAdaptive, group.get(),
                    &table, config)
                    .MoveValueOrDie();

  WorkloadGenerator generator(table);
  Rng rng(13);
  const std::vector<Query> queries = generator.Generate(
      ParseWorkloadName("dt").ValueOrDie(), 6, &rng);
  // Interleave, and leave BOTH with a pending gradient pass enqueued.
  for (const Query& q : queries) {
    (void)first->EstimateSelectivity(q.box);
    (void)second->EstimateSelectivity(q.box);
    first->ObserveTrueSelectivity(q.box, q.selectivity);
    second->ObserveTrueSelectivity(q.box, q.selectivity);
  }
  (void)first->EstimateSelectivity(queries[0].box);
  (void)second->EstimateSelectivity(queries[1].box);

  if (GetParam()) {
    first.reset();
    second.reset();
  } else {
    second.reset();
    first.reset();
  }
  // No scratch handle may outlive its estimator.
  EXPECT_EQ(group->AggregateScratchStats().outstanding, 0u);
}

INSTANTIATE_TEST_SUITE_P(BothOrders, DestructionOrder, ::testing::Bool());

}  // namespace
}  // namespace fkde
