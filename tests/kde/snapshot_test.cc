// Snapshot codec: golden format pin (magic/version/header bytes), corrupt
// and version-mismatch rejection, and the warm-restart property — a
// restored model is bitwise-faithful to the original over a long
// subsequent query stream, including its Karma replacement decisions —
// plus the restore's device cost and hostile saved values.

#include <bit>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/box.h"
#include "data/generators.h"
#include "kde/kde_estimator.h"
#include "kde/snapshot.h"
#include "parallel/device.h"
#include "parallel/device_group.h"
#include "runtime/catalog.h"
#include "runtime/topology.h"
#include "workload/workload.h"

namespace fkde {
namespace {

Table MakeTable(std::size_t rows = 4000, std::size_t dims = 3,
                std::uint64_t seed = 11) {
  return GenerateDataset("synthetic", rows, dims, seed).MoveValueOrDie();
}

std::vector<Query> MakeQueries(const Table& table, std::size_t count,
                               std::uint64_t seed) {
  WorkloadGenerator generator(table);
  Rng rng(seed);
  return generator.Generate(ParseWorkloadName("dt").ValueOrDie(), count,
                            &rng);
}

KdeConfig SmallConfig() {
  KdeConfig config;
  config.sample_size = 256;
  config.seed = 5;
  return config;
}

std::unique_ptr<KdeSelectivityEstimator> MakeAdaptive(Device* device,
                                                      const Table* table) {
  return KdeSelectivityEstimator::Create(
             KdeSelectivityEstimator::Mode::kAdaptive, device, table,
             SmallConfig())
      .MoveValueOrDie();
}

// ---------------------------------------------------------------------------
// Golden format pin. These bytes are the on-disk contract: if this test
// breaks, bump kModelSnapshotVersion instead of silently changing layout.

TEST(SnapshotFormat, GoldenHeaderBytes) {
  Device device(DeviceProfile::OpenClCpu());
  const Table table = MakeTable();
  auto model = MakeAdaptive(&device, &table);
  const std::vector<std::uint8_t> blob =
      SnapshotModel(model.get()).MoveValueOrDie();

  // magic "FKDM" little-endian, then version 2, then mode kAdaptive (4),
  // then dims 3.
  ASSERT_GE(blob.size(), 16u);
  const std::uint8_t golden_prefix[16] = {
      0x46, 0x4B, 0x44, 0x4D,  // magic
      0x02, 0x00, 0x00, 0x00,  // version
      0x04, 0x00, 0x00, 0x00,  // mode
      0x03, 0x00, 0x00, 0x00,  // dims
  };
  EXPECT_EQ(std::memcmp(blob.data(), golden_prefix, sizeof(golden_prefix)),
            0);

  const ModelSnapshotHeader header =
      ReadModelSnapshotHeader(blob).MoveValueOrDie();
  EXPECT_EQ(header.version, kModelSnapshotVersion);
  EXPECT_EQ(header.mode, KdeSelectivityEstimator::Mode::kAdaptive);
  EXPECT_EQ(header.dims, 3u);
  EXPECT_EQ(header.capacity, 256u);
  EXPECT_EQ(header.rows, 256u);
  EXPECT_EQ(header.shards, 1u);
}

TEST(SnapshotFormat, RejectsBadMagicVersionAndCorruption) {
  Device device(DeviceProfile::OpenClCpu());
  const Table table = MakeTable();
  auto model = MakeAdaptive(&device, &table);
  std::vector<std::uint8_t> blob =
      SnapshotModel(model.get()).MoveValueOrDie();

  std::vector<std::uint8_t> bad_magic = blob;
  bad_magic[0] ^= 0xFF;
  EXPECT_FALSE(ReadModelSnapshotHeader(bad_magic).ok());

  std::vector<std::uint8_t> bad_version = blob;
  bad_version[4] = 0x7F;
  EXPECT_FALSE(ReadModelSnapshotHeader(bad_version).ok());

  // Flip one payload byte: header still parses, restore must reject.
  std::vector<std::uint8_t> corrupt = blob;
  corrupt[blob.size() / 2] ^= 0x01;
  EXPECT_TRUE(ReadModelSnapshotHeader(corrupt).ok());
  Device target(DeviceProfile::OpenClCpu());
  auto restored = RestoreModel(corrupt, &target, &table);
  ASSERT_FALSE(restored.ok());
  EXPECT_TRUE(restored.status().IsInvalidArgument());

  std::vector<std::uint8_t> truncated(blob.begin(), blob.begin() + 40);
  EXPECT_FALSE(RestoreModel(truncated, &target, &table).ok());
}

// ---------------------------------------------------------------------------
// Warm-restart property: original and restored models agree bitwise on
// every subsequent estimate AND on every Karma replacement decision.

TEST(SnapshotRoundTrip, AdaptiveBitwiseFaithfulOver1kQueries) {
  const Table table = MakeTable();
  Device device(DeviceProfile::SimulatedGtx460());
  auto original = MakeAdaptive(&device, &table);

  // Adapt through a warm-up stream, then snapshot MID-FLIGHT: the last
  // estimate's gradient pass and the previous feedback's Karma pass are
  // still pending on the queue when Quiesce folds them in.
  const std::vector<Query> warmup = MakeQueries(table, 60, 23);
  for (const Query& q : warmup) {
    (void)original->EstimateSelectivity(q.box);
    original->ObserveTrueSelectivity(q.box, q.selectivity);
  }
  (void)original->EstimateSelectivity(warmup[0].box);  // Leave one pending.

  const std::vector<std::uint8_t> blob =
      SnapshotModel(original.get()).MoveValueOrDie();
  Device target(DeviceProfile::SimulatedGtx460());
  auto restored = RestoreModel(blob, &target, &table).MoveValueOrDie();

  EXPECT_EQ(restored->mode(), original->mode());
  EXPECT_EQ(restored->bandwidth(), original->bandwidth());
  EXPECT_EQ(restored->karma_replacements(), original->karma_replacements());

  const std::vector<Query> stream = MakeQueries(table, 1000, 31);
  for (const Query& q : stream) {
    const double a = original->EstimateSelectivity(q.box);
    const double b = restored->EstimateSelectivity(q.box);
    ASSERT_EQ(std::memcmp(&a, &b, sizeof(double)), 0)
        << "estimates diverged at " << q.box.ToString();
    original->ObserveTrueSelectivity(q.box, q.selectivity);
    restored->ObserveTrueSelectivity(q.box, q.selectivity);
    // Same Karma decisions: replacement counters advance in lock-step.
    ASSERT_EQ(restored->karma_replacements(),
              original->karma_replacements());
    ASSERT_EQ(restored->bandwidth(), original->bandwidth());
  }
  EXPECT_GT(original->karma_replacements(), 0u);
}

TEST(SnapshotRoundTrip, EstimateBatchMatchesBitwise) {
  const Table table = MakeTable();
  Device device(DeviceProfile::SimulatedGtx460());
  auto original = MakeAdaptive(&device, &table);
  const std::vector<Query> warmup = MakeQueries(table, 40, 7);
  for (const Query& q : warmup) {
    (void)original->EstimateSelectivity(q.box);
    original->ObserveTrueSelectivity(q.box, q.selectivity);
  }
  const std::vector<std::uint8_t> blob =
      SnapshotModel(original.get()).MoveValueOrDie();
  Device target(DeviceProfile::SimulatedGtx460());
  auto restored = RestoreModel(blob, &target, &table).MoveValueOrDie();

  const std::vector<Query> batch = MakeQueries(table, 64, 13);
  std::vector<Box> boxes;
  for (const Query& q : batch) boxes.push_back(q.box);
  std::vector<double> a(boxes.size()), b(boxes.size());
  original->engine()->EstimateBatch(boxes, a);
  restored->engine()->EstimateBatch(boxes, b);
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0);
}

TEST(SnapshotRoundTrip, SnapshotIsNonDestructive) {
  // The original must keep serving identically after being snapshotted —
  // eviction copies state, it does not steal it.
  const Table table = MakeTable();
  Device device_a(DeviceProfile::SimulatedGtx460());
  Device device_b(DeviceProfile::SimulatedGtx460());
  auto snapshotted = MakeAdaptive(&device_a, &table);
  auto untouched = MakeAdaptive(&device_b, &table);

  const std::vector<Query> warmup = MakeQueries(table, 50, 41);
  for (const Query& q : warmup) {
    (void)snapshotted->EstimateSelectivity(q.box);
    snapshotted->ObserveTrueSelectivity(q.box, q.selectivity);
    (void)untouched->EstimateSelectivity(q.box);
    untouched->ObserveTrueSelectivity(q.box, q.selectivity);
  }
  (void)SnapshotModel(snapshotted.get()).MoveValueOrDie();

  const std::vector<Query> stream = MakeQueries(table, 200, 43);
  for (const Query& q : stream) {
    const double a = snapshotted->EstimateSelectivity(q.box);
    const double b = untouched->EstimateSelectivity(q.box);
    ASSERT_EQ(std::memcmp(&a, &b, sizeof(double)), 0);
    snapshotted->ObserveTrueSelectivity(q.box, q.selectivity);
    untouched->ObserveTrueSelectivity(q.box, q.selectivity);
  }
}

TEST(SnapshotRoundTrip, PeriodicModeCarriesRingAndCounters) {
  const Table table = MakeTable();
  Device device(DeviceProfile::OpenClCpu());
  KdeConfig config = SmallConfig();
  config.feedback_window = 32;
  config.reoptimize_every = 16;
  auto original = KdeSelectivityEstimator::Create(
                      KdeSelectivityEstimator::Mode::kPeriodic, &device,
                      &table, config)
                      .MoveValueOrDie();
  const std::vector<Query> warmup = MakeQueries(table, 40, 3);
  for (const Query& q : warmup) {
    (void)original->EstimateSelectivity(q.box);
    original->ObserveTrueSelectivity(q.box, q.selectivity);
  }
  EXPECT_GT(original->reoptimizations(), 0u);

  const std::vector<std::uint8_t> blob =
      SnapshotModel(original.get()).MoveValueOrDie();
  Device target(DeviceProfile::OpenClCpu());
  auto restored = RestoreModel(blob, &target, &table).MoveValueOrDie();
  EXPECT_EQ(restored->reoptimizations(), original->reoptimizations());
  EXPECT_EQ(restored->feedback_ring().size(),
            original->feedback_ring().size());
  EXPECT_EQ(restored->bandwidth(), original->bandwidth());

  // The NEXT re-optimization fires at the same point with the same
  // result: ring contents and the since-last counter both round-tripped.
  const std::vector<Query> stream = MakeQueries(table, 40, 9);
  for (const Query& q : stream) {
    const double a = original->EstimateSelectivity(q.box);
    const double b = restored->EstimateSelectivity(q.box);
    ASSERT_EQ(std::memcmp(&a, &b, sizeof(double)), 0);
    original->ObserveTrueSelectivity(q.box, q.selectivity);
    restored->ObserveTrueSelectivity(q.box, q.selectivity);
    ASSERT_EQ(restored->reoptimizations(), original->reoptimizations());
  }
}

TEST(SnapshotRoundTrip, GroupShardLayoutReproducedVerbatim) {
  const Table table = MakeTable(6000, 3, 19);
  DeviceGroup group(ParseDeviceTopology("cpu+gpu").MoveValueOrDie());
  KdeConfig config = SmallConfig();
  config.sample_size = 512;
  auto original = KdeSelectivityEstimator::Create(
                      KdeSelectivityEstimator::Mode::kAdaptive, &group,
                      &table, config)
                      .MoveValueOrDie();
  const std::vector<Query> warmup = MakeQueries(table, 80, 29);
  for (const Query& q : warmup) {
    (void)original->EstimateSelectivity(q.box);
    original->ObserveTrueSelectivity(q.box, q.selectivity);
  }
  const std::vector<std::uint8_t> blob =
      SnapshotModel(original.get()).MoveValueOrDie();

  // Restoring onto a mismatched shard count is refused, not re-split.
  Device single(DeviceProfile::SimulatedGtx460());
  auto wrong = RestoreModel(blob, &single, &table);
  ASSERT_FALSE(wrong.ok());
  EXPECT_TRUE(wrong.status().IsFailedPrecondition());

  DeviceGroup target(ParseDeviceTopology("cpu+gpu").MoveValueOrDie());
  auto restored = RestoreModel(blob, &target, &table).MoveValueOrDie();
  const std::vector<Query> stream = MakeQueries(table, 100, 37);
  for (const Query& q : stream) {
    const double a = original->EstimateSelectivity(q.box);
    const double b = restored->EstimateSelectivity(q.box);
    ASSERT_EQ(std::memcmp(&a, &b, sizeof(double)), 0);
    original->ObserveTrueSelectivity(q.box, q.selectivity);
    restored->ObserveTrueSelectivity(q.box, q.selectivity);
  }
}

// A rebuild writes Karma scores for the live rows only. A migration that
// grows a shard before the next Karma pass must not let a capture read
// the rows the shard gained: the capture restarts the stale scores, as
// the next pass would. An original and its restored twin run the same
// estimates across a migration and then save the same bytes; under
// HAZARD_STRICT the checker also sees no read of an unwritten row.
TEST(SnapshotRoundTrip, CaptureAfterMigrationMatchesTheOriginal) {
  const Table table = MakeTable(6000, 3, 19);
  DeviceGroup group(ParseDeviceTopology("cpu+gpu").MoveValueOrDie());
  KdeConfig config = SmallConfig();
  config.sample_size = 512;
  auto original = KdeSelectivityEstimator::Create(
                      KdeSelectivityEstimator::Mode::kAdaptive, &group,
                      &table, config)
                      .MoveValueOrDie();
  DeviceGroup target(ParseDeviceTopology("cpu+gpu").MoveValueOrDie());
  auto restored =
      RestoreModel(SnapshotModel(original.get()).MoveValueOrDie(), &target,
                   &table)
          .MoveValueOrDie();

  const DeviceSample* sample = original->engine()->sample();
  const std::uint64_t epoch = sample->migration_epoch();
  for (const Query& q : MakeQueries(table, 200, 41)) {
    const double a = original->EstimateSelectivity(q.box);
    const double b = restored->EstimateSelectivity(q.box);
    ASSERT_EQ(std::memcmp(&a, &b, sizeof(double)), 0);
    if (sample->migration_epoch() != epoch) break;
  }
  ASSERT_NE(sample->migration_epoch(), epoch) << "no migration happened";
  EXPECT_EQ(SnapshotModel(restored.get()).MoveValueOrDie(),
            SnapshotModel(original.get()).MoveValueOrDie());
}

// A restore installs the saved state once: no kernel launch (the engine
// starts at the saved bandwidth, with no Scott pass) and, to the device,
// exactly the sample (as floats), the bandwidth and the Karma scores, one
// transfer each (no zero upload ahead of the scores).
TEST(SnapshotRoundTrip, RestoreLaunchesNothingAndUploadsTheStateOnce) {
  const Table table = MakeTable();
  Device device(DeviceProfile::OpenClCpu());
  auto original = MakeAdaptive(&device, &table);
  for (const Query& q : MakeQueries(table, 30, 7)) {
    (void)original->EstimateSelectivity(q.box);
    original->ObserveTrueSelectivity(q.box, q.selectivity);
  }
  const std::vector<std::uint8_t> blob =
      SnapshotModel(original.get()).MoveValueOrDie();
  const ModelSnapshotHeader header =
      ReadModelSnapshotHeader(blob).MoveValueOrDie();

  Device target(DeviceProfile::OpenClCpu());
  auto restored = RestoreModel(blob, &target, &table).MoveValueOrDie();
  const TransferLedger& ledger = target.ledger();
  EXPECT_EQ(ledger.kernel_launches, 0u);
  EXPECT_EQ(ledger.bytes_to_device,
            header.rows * header.dims * sizeof(float) +
                header.dims * sizeof(double) + header.rows * sizeof(double));
  EXPECT_EQ(ledger.transfers_to_device, 3u);
  EXPECT_EQ(ledger.bytes_to_host, 0u);
  EXPECT_EQ(restored->bandwidth(), original->bandwidth());
}

// ---------------------------------------------------------------------------
// Codec v2: v1 read compatibility, corruption, and hostile counts.

constexpr std::size_t kTrailerBytes = 8;

// The v1 trailer, computed independently of the codec.
std::uint64_t Fnv1a64(const std::uint8_t* data, std::size_t n) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 0x100000001B3ULL;
  }
  return h;
}

std::uint64_t U64At(const std::vector<std::uint8_t>& blob, std::size_t pos) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t(blob[pos + i]) << (8 * i);
  return v;
}

void PutU64(std::vector<std::uint8_t>* blob, std::size_t pos,
            std::uint64_t v) {
  for (int i = 0; i < 8; ++i) (*blob)[pos + i] = std::uint8_t(v >> (8 * i));
}

// Relabels `blob` as v1 and seals it with v1's FNV-1a-64 trailer. v2 kept
// v1's field layout, so this is exactly the blob a v1 writer produced.
void SealAsV1(std::vector<std::uint8_t>* blob) {
  (*blob)[4] = 0x01;
  const std::size_t body = blob->size() - kTrailerBytes;
  PutU64(blob, body, Fnv1a64(blob->data(), body));
}

TEST(SnapshotCodec, V1BlobRestoresBitwiseOver1kQueries) {
  const Table table = MakeTable();
  Device device(DeviceProfile::SimulatedGtx460());
  auto original = MakeAdaptive(&device, &table);
  const std::vector<Query> warmup = MakeQueries(table, 60, 23);
  for (const Query& q : warmup) {
    (void)original->EstimateSelectivity(q.box);
    original->ObserveTrueSelectivity(q.box, q.selectivity);
  }
  std::vector<std::uint8_t> v1 = SnapshotModel(original.get()).MoveValueOrDie();
  SealAsV1(&v1);
  EXPECT_EQ(ReadModelSnapshotHeader(v1).MoveValueOrDie().version, 1u);

  std::vector<std::uint8_t> corrupt = v1;
  corrupt[corrupt.size() / 2] ^= 0x01;
  Device scratch(DeviceProfile::SimulatedGtx460());
  auto rejected = RestoreModel(corrupt, &scratch, &table);
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsInvalidArgument());

  Device target(DeviceProfile::SimulatedGtx460());
  auto restored = RestoreModel(v1, &target, &table).MoveValueOrDie();
  const std::vector<Query> stream = MakeQueries(table, 1000, 31);
  for (const Query& q : stream) {
    const double a = original->EstimateSelectivity(q.box);
    const double b = restored->EstimateSelectivity(q.box);
    ASSERT_EQ(std::memcmp(&a, &b, sizeof(double)), 0)
        << "estimates diverged at " << q.box.ToString();
    original->ObserveTrueSelectivity(q.box, q.selectivity);
    restored->ObserveTrueSelectivity(q.box, q.selectivity);
    ASSERT_EQ(restored->karma_replacements(),
              original->karma_replacements());
    ASSERT_EQ(restored->bandwidth(), original->bandwidth());
  }
  EXPECT_GT(original->karma_replacements(), 0u);
}

TEST(SnapshotCodec, EveryBitFlipAndEveryPrefixIsRejected) {
  const Table table = MakeTable(200, 1, 13);
  Device device(DeviceProfile::OpenClCpu());
  KdeConfig config = SmallConfig();
  config.sample_size = 4;
  auto model = KdeSelectivityEstimator::Create(
                   KdeSelectivityEstimator::Mode::kAdaptive, &device, &table,
                   config)
                   .MoveValueOrDie();
  const std::vector<std::uint8_t> blob =
      SnapshotModel(model.get()).MoveValueOrDie();
  Device target(DeviceProfile::OpenClCpu());
  ASSERT_TRUE(RestoreModel(blob, &target, &table).ok());

  std::vector<std::uint8_t> flipped = blob;
  for (std::size_t byte = 0; byte < blob.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      flipped[byte] ^= std::uint8_t(1u << bit);
      auto restored = RestoreModel(flipped, &target, &table);
      ASSERT_FALSE(restored.ok()) << "byte " << byte << " bit " << bit;
      EXPECT_TRUE(restored.status().IsInvalidArgument());
      flipped[byte] = blob[byte];
    }
  }
  for (std::size_t n = 0; n < blob.size(); ++n) {
    const std::span<const std::uint8_t> prefix(blob.data(), n);
    auto restored = RestoreModel(prefix, &target, &table);
    ASSERT_FALSE(restored.ok()) << "prefix of " << n << " bytes";
    EXPECT_TRUE(restored.status().IsInvalidArgument());
  }
}

// Walks the documented layout independently of the codec and records the
// offset of every array's u64 count, named by field.
class LayoutCursor {
 public:
  // magic, version, mode, dims (u32) | capacity, rows (u64) | shards (u32)
  static constexpr std::size_t kHeaderBytes = 4 * 4 + 2 * 8 + 4;
  // The fixed-width config block (ConfigFields in kde/snapshot.cc).
  static constexpr std::size_t kConfigBytes = 285;
  // xoshiro state (4 u64), has_spare (u8), spare (f64).
  static constexpr std::size_t kRngBytes = 4 * 8 + 1 + 8;

  explicit LayoutCursor(const std::vector<std::uint8_t>& blob)
      : blob_(blob) {
    const ModelSnapshotHeader header =
        ReadModelSnapshotHeader(blob).MoveValueOrDie();
    pos_ = kHeaderBytes + kConfigBytes + kRngBytes;
    EXPECT_EQ(U64At(blob, pos_), header.rows * header.dims);
    Array("sample", 8);
    for (std::uint32_t shard = 0; shard < header.shards; ++shard) {
      Array("shard slots", 4);
    }
    Array("shard rates", 8);
    pos_ += 8;  // Rebalance pass counter.
    Array("bandwidth", 8);
    if (Flag()) Array("scales", 8);
    if (Flag()) {
      Array("rmsprop grad_accum", 8);
      pos_ += 8;  // Batch count.
      Array("rmsprop magnitude_avg", 8);
      Array("rmsprop rates", 8);
      Array("rmsprop prev_grad", 8);
      pos_ += 1 + 8;  // has_prev_grad, updates_applied.
    }
    if (Flag()) Array("karma", 8);
    Array("pending slots", 8);
    if (Flag()) pos_ += 16;  // Reservoir counters.
    offsets_.emplace("ring", pos_);
    const std::uint64_t ring = U64At(blob, pos_);
    pos_ += 8;
    for (std::uint64_t e = 0; e < ring; ++e) {
      Array("box lower", 8);
      Array("box upper", 8);
      pos_ += 8;  // Selectivity.
    }
    pos_ += 4 * 8 + 8 + 8 + 8 + 1;  // Counters, batch report.
    EXPECT_EQ(pos_ + kTrailerBytes, blob.size());
  }

  // Field name -> offset of its first occurrence's count.
  const std::map<std::string, std::size_t>& offsets() const {
    return offsets_;
  }

 private:
  void Array(const std::string& name, std::size_t width) {
    offsets_.emplace(name, pos_);
    pos_ += 8 + static_cast<std::size_t>(U64At(blob_, pos_)) * width;
  }
  bool Flag() { return blob_[pos_++] != 0; }

  const std::vector<std::uint8_t>& blob_;
  std::size_t pos_ = 0;
  std::map<std::string, std::size_t> offsets_;
};

// A checksum-valid blob whose count claims more elements than the blob
// holds must fail with a Status, never reach an allocation it cannot make.
// n * 8 wraps to 0 for n = 2^61 and to -8 for 2^64 - 1.
TEST(SnapshotCodec, OversizedCountsReturnInvalidArgument) {
  const Table table = MakeTable();
  Device device(DeviceProfile::OpenClCpu());

  auto adaptive = MakeAdaptive(&device, &table);
  for (const Query& q : MakeQueries(table, 30, 5)) {
    (void)adaptive->EstimateSelectivity(q.box);
    adaptive->ObserveTrueSelectivity(q.box, q.selectivity);
  }
  auto scaled = KdeSelectivityEstimator::Create(
                    KdeSelectivityEstimator::Mode::kHeuristic, &device,
                    &table, SmallConfig())
                    .MoveValueOrDie();
  ASSERT_TRUE(scaled->engine()
                  ->SetPointScales(std::vector<double>(256, 1.5))
                  .ok());
  KdeConfig periodic_config = SmallConfig();
  periodic_config.feedback_window = 8;
  periodic_config.reoptimize_every = 1000;
  auto periodic = KdeSelectivityEstimator::Create(
                      KdeSelectivityEstimator::Mode::kPeriodic, &device,
                      &table, periodic_config)
                      .MoveValueOrDie();
  for (const Query& q : MakeQueries(table, 4, 9)) {
    (void)periodic->EstimateSelectivity(q.box);
    periodic->ObserveTrueSelectivity(q.box, q.selectivity);
  }

  std::size_t crafted = 0;
  std::map<std::string, int> seen;
  for (KdeSelectivityEstimator* model :
       {adaptive.get(), scaled.get(), periodic.get()}) {
    const std::vector<std::uint8_t> blob =
        SnapshotModel(model).MoveValueOrDie();
    const LayoutCursor layout(blob);
    for (const auto& [field, offset] : layout.offsets()) {
      for (const std::uint64_t count :
           {std::uint64_t{1} << 61, ~std::uint64_t{0}}) {
        SCOPED_TRACE(::testing::Message() << field << " = " << count);
        std::vector<std::uint8_t> hostile = blob;
        PutU64(&hostile, offset, count);
        SealAsV1(&hostile);
        Device target(DeviceProfile::OpenClCpu());
        auto restored = RestoreModel(hostile, &target, &table);
        ASSERT_FALSE(restored.ok());
        EXPECT_TRUE(restored.status().IsInvalidArgument())
            << restored.status().ToString();
        ++crafted;
      }
      ++seen[field];
    }
  }
  for (const char* field :
       {"sample", "shard slots", "shard rates", "bandwidth", "scales",
        "rmsprop grad_accum", "rmsprop magnitude_avg", "rmsprop rates",
        "rmsprop prev_grad", "karma", "pending slots", "ring", "box lower",
        "box upper"}) {
    EXPECT_GT(seen[field], 0) << field << " never crafted";
  }
  EXPECT_GT(crafted, 0u);
}

// Removes the last element of the 8-byte array whose count sits at
// `offset`, keeping the rest of the layout intact.
std::vector<std::uint8_t> DropLastElement(const std::vector<std::uint8_t>& blob,
                                          std::size_t offset) {
  const std::uint64_t count = U64At(blob, offset);
  EXPECT_GT(count, 0u);
  std::vector<std::uint8_t> out = blob;
  const std::size_t last = offset + 8 + (count - 1) * 8;
  out.erase(out.begin() + static_cast<std::ptrdiff_t>(last),
            out.begin() + static_cast<std::ptrdiff_t>(last + 8));
  PutU64(&out, offset, count - 1);
  return out;
}

// Checksum-valid blobs whose saved values parse but cannot be installed: a
// bandwidth entry that is not positive and finite, a bandwidth of the
// wrong arity, a Karma array of the wrong arity. The engine's constructor
// takes the saved bandwidth, so the decode must refuse these first:
// RestoreModel and RegisterFromSnapshot return InvalidArgument, and
// nothing aborts.
TEST(SnapshotCodec, HostileSavedStateReturnsInvalidArgument) {
  const Table table = MakeTable();
  Device device(DeviceProfile::OpenClCpu());
  auto model = MakeAdaptive(&device, &table);
  for (const Query& q : MakeQueries(table, 30, 5)) {
    (void)model->EstimateSelectivity(q.box);
    model->ObserveTrueSelectivity(q.box, q.selectivity);
  }
  const std::vector<std::uint8_t> blob =
      SnapshotModel(model.get()).MoveValueOrDie();
  const LayoutCursor layout(blob);
  const std::size_t bandwidth = layout.offsets().at("bandwidth");
  const std::size_t karma = layout.offsets().at("karma");

  std::vector<std::pair<std::string, std::vector<std::uint8_t>>> cases;
  for (const double h : {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity()}) {
    std::vector<std::uint8_t> hostile = blob;
    PutU64(&hostile, bandwidth + 8, std::bit_cast<std::uint64_t>(h));
    cases.emplace_back("bandwidth entry " + std::to_string(h), hostile);
  }
  cases.emplace_back("bandwidth arity", DropLastElement(blob, bandwidth));
  cases.emplace_back("karma arity", DropLastElement(blob, karma));

  auto group = BuildDeviceGroup("cpu").MoveValueOrDie();
  ModelCatalog catalog(group.get());
  for (auto& [name, hostile] : cases) {
    SCOPED_TRACE(name);
    SealAsV1(&hostile);
    Device target(DeviceProfile::OpenClCpu());
    auto restored = RestoreModel(hostile, &target, &table);
    ASSERT_FALSE(restored.ok());
    EXPECT_TRUE(restored.status().IsInvalidArgument())
        << restored.status().ToString();

    ModelSpec spec;
    spec.config = SmallConfig();
    spec.table = &table;
    const ModelKey key{name, {}};
    const Status registered =
        catalog.RegisterFromSnapshot(key, std::move(spec), hostile);
    EXPECT_TRUE(registered.IsInvalidArgument()) << registered.ToString();
    EXPECT_TRUE(catalog.StatsFor(key).status().IsNotFound());
  }
  // The untouched blob, sealed the same way, still registers and serves.
  std::vector<std::uint8_t> intact = blob;
  SealAsV1(&intact);
  ModelSpec spec;
  spec.config = SmallConfig();
  spec.table = &table;
  const ModelKey key{"intact", {}};
  ASSERT_TRUE(catalog.RegisterFromSnapshot(key, std::move(spec), intact).ok());
  const Query probe = MakeQueries(table, 1, 3)[0];
  EXPECT_EQ(catalog.Estimate(key, probe.box).MoveValueOrDie(),
            model->EstimateSelectivity(probe.box));
}

// Offsets into the blob of the header's dims and of the config fields the
// decode checks: the header, then the fixed-width config block in
// ConfigFields order (kde/snapshot.cc).
struct ConfigLayout {
  static constexpr std::size_t kDims = 12;
  static constexpr std::size_t kConfig = LayoutCursor::kHeaderBytes;
  static constexpr std::size_t kKernel = kConfig + 8;
  static constexpr std::size_t kLoss = kConfig + 12;
  static constexpr std::size_t kMiniBatch = kConfig + 32;
  static constexpr std::size_t kAlpha = kConfig + 40;
  static constexpr std::size_t kLrMin = kConfig + 48;
  static constexpr std::size_t kLrMax = kConfig + 56;
  static constexpr std::size_t kKMax = kConfig + 89;
  static constexpr std::size_t kThreshold = kConfig + 97;
  static constexpr std::size_t kKarmaLoss = kConfig + 105;
  static constexpr std::size_t kBatchLoss = kConfig + 118;
};

void PutU32(std::vector<std::uint8_t>* blob, std::size_t pos,
            std::uint32_t v) {
  for (int i = 0; i < 4; ++i) (*blob)[pos + i] = std::uint8_t(v >> (8 * i));
}

void PutF64(std::vector<std::uint8_t>* blob, std::size_t pos, double v) {
  PutU64(blob, pos, std::bit_cast<std::uint64_t>(v));
}

double F64At(const std::vector<std::uint8_t>& blob, std::size_t pos) {
  return std::bit_cast<double>(U64At(blob, pos));
}

// Checksum-valid blobs whose saved configuration would abort a component
// the rebuild installs (Karma's k_max and threshold, the adaptive
// optimizer's options), or names no real kernel, loss or dimension count:
// DecodeModel, RestoreModel and RegisterFromSnapshot return
// InvalidArgument, and nothing aborts.
TEST(SnapshotCodec, HostileConfigReturnsInvalidArgument) {
  const Table table = MakeTable();
  Device device(DeviceProfile::OpenClCpu());
  auto model = MakeAdaptive(&device, &table);
  for (const Query& q : MakeQueries(table, 30, 5)) {
    (void)model->EstimateSelectivity(q.box);
    model->ObserveTrueSelectivity(q.box, q.selectivity);
  }
  const std::vector<std::uint8_t> blob =
      SnapshotModel(model.get()).MoveValueOrDie();
  using L = ConfigLayout;
  // The offsets land on the fields: the saved values are the config's.
  const KdeConfig config = SmallConfig();
  ASSERT_EQ(F64At(blob, L::kKMax), config.karma.k_max);
  ASSERT_EQ(F64At(blob, L::kThreshold), config.karma.threshold);
  ASSERT_EQ(F64At(blob, L::kAlpha), config.adaptive.alpha);
  ASSERT_EQ(F64At(blob, L::kLrMin), config.adaptive.lr_min);
  ASSERT_EQ(F64At(blob, L::kLrMax), config.adaptive.lr_max);
  ASSERT_EQ(U64At(blob, L::kMiniBatch), config.adaptive.mini_batch);

  struct Case {
    std::string name;
    std::function<void(std::vector<std::uint8_t>*)> edit;
    std::string message;
  };
  const double k_max = F64At(blob, L::kKMax);
  const double lr_max = F64At(blob, L::kLrMax);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<Case> cases = {
      {"k_max 0", [](auto* b) { PutF64(b, L::kKMax, 0.0); }, "karma"},
      {"k_max -1", [](auto* b) { PutF64(b, L::kKMax, -1.0); }, "karma"},
      {"k_max NaN", [&](auto* b) { PutF64(b, L::kKMax, nan); }, "karma"},
      {"threshold = k_max",
       [&](auto* b) { PutF64(b, L::kThreshold, k_max); }, "karma"},
      {"mini_batch 0", [](auto* b) { PutU64(b, L::kMiniBatch, 0); },
       "adaptive"},
      {"alpha 0", [](auto* b) { PutF64(b, L::kAlpha, 0.0); }, "adaptive"},
      {"alpha 1", [](auto* b) { PutF64(b, L::kAlpha, 1.0); }, "adaptive"},
      {"alpha NaN", [&](auto* b) { PutF64(b, L::kAlpha, nan); }, "adaptive"},
      {"lr_min 0", [](auto* b) { PutF64(b, L::kLrMin, 0.0); }, "adaptive"},
      {"lr_min > lr_max",
       [&](auto* b) { PutF64(b, L::kLrMin, 2.0 * lr_max); }, "adaptive"},
      {"dims beyond kMaxDims",
       [](auto* b) { PutU32(b, L::kDims, kb::kMaxDims + 1); }, "dims"},
      {"kernel enum", [](auto* b) { PutU32(b, L::kKernel, 2); }, "kernel"},
      {"loss enum", [](auto* b) { PutU32(b, L::kLoss, 5); }, "loss"},
      {"karma loss enum", [](auto* b) { PutU32(b, L::kKarmaLoss, 99); },
       "loss"},
      {"batch loss enum", [](auto* b) { PutU32(b, L::kBatchLoss, 7); },
       "loss"},
  };

  auto group = BuildDeviceGroup("cpu").MoveValueOrDie();
  ModelCatalog catalog(group.get());
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::vector<std::uint8_t> hostile = blob;
    c.edit(&hostile);
    SealAsV1(&hostile);
    auto decoded = DecodeModel(hostile);
    ASSERT_FALSE(decoded.ok());
    EXPECT_TRUE(decoded.status().IsInvalidArgument());
    EXPECT_NE(decoded.status().message().find(c.message), std::string::npos)
        << decoded.status().ToString();

    Device target(DeviceProfile::OpenClCpu());
    auto restored = RestoreModel(hostile, &target, &table);
    ASSERT_FALSE(restored.ok());
    EXPECT_TRUE(restored.status().IsInvalidArgument())
        << restored.status().ToString();

    ModelSpec spec;
    spec.config = SmallConfig();
    spec.table = &table;
    const ModelKey key{c.name, {}};
    const Status registered =
        catalog.RegisterFromSnapshot(key, std::move(spec), hostile);
    EXPECT_TRUE(registered.IsInvalidArgument()) << registered.ToString();
    EXPECT_TRUE(catalog.StatsFor(key).status().IsNotFound());
  }
}

}  // namespace
}  // namespace fkde
