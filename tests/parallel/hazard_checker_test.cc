// Device-level hazard checker: one deliberately-racy negative test per
// hazard class (RAW, WAR, WAW, use-after-free, use-before-init, leaked
// scratch, unwaited readback) pinning the diagnostics, positive controls
// pinning zero false positives on ordered chains and on the sharded KDE
// hot paths, and regression tests for the DeviceBuffer registry and the
// draining queue destructor.
//
// The racy kernels never touch the buffers they declare: detection is
// static, at enqueue time, so the tests stay clean under TSan while the
// declared access-sets describe a genuine race.

#include "parallel/hazard_checker.h"

#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>
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

void Nop(std::size_t, std::size_t) {}

std::shared_ptr<HazardChecker> AttachDeferred(Device* device) {
  device->EnableHazardChecking(HazardMode::kDeferred);
  return device->shared_hazard_checker();
}

std::size_t CountKind(const std::vector<HazardReport>& reports,
                      HazardKind kind) {
  std::size_t n = 0;
  for (const HazardReport& r : reports) n += r.kind == kind ? 1 : 0;
  return n;
}

std::string Messages(const std::vector<HazardReport>& reports) {
  std::string all;
  for (const HazardReport& r : reports) all += r.message + "\n";
  return all;
}

// ---------------------------------------------------------------------------
// Negative tests: one per hazard class, each with an actionable diagnostic
// naming the kernels and queues involved.

TEST(HazardNegative, ReadAfterWriteAcrossQueues) {
  Device device(DeviceProfile::OpenClCpu());
  auto checker = AttachDeferred(&device);
  auto buf = device.CreateBuffer<double>(16);
  CommandQueue side(&device);
  const BufferAccess writes[] = {Writes(buf)};
  const BufferAccess reads[] = {Reads(buf)};
  device.default_queue()->EnqueueLaunch("producer", 1, 1.0, Nop, writes);
  // No wait-list edge: the side queue may read while the write runs.
  side.EnqueueLaunch("consumer", 1, 1.0, Nop, reads);
  side.Finish();
  device.default_queue()->Finish();
  const std::vector<HazardReport> reports = checker->Validate();
  ASSERT_EQ(CountKind(reports, HazardKind::kRaw), 1u) << Messages(reports);
  const std::string& msg = Messages(reports);
  EXPECT_NE(msg.find("read-after-write"), std::string::npos) << msg;
  EXPECT_NE(msg.find("'consumer'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("'producer'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("queue "), std::string::npos) << msg;
}

TEST(HazardNegative, WriteAfterReadAcrossQueues) {
  Device device(DeviceProfile::OpenClCpu());
  auto checker = AttachDeferred(&device);
  auto buf = device.CreateBuffer<double>(8);
  CommandQueue side(&device);
  const BufferAccess writes[] = {Writes(buf)};
  const BufferAccess reads[] = {Reads(buf)};
  // Init + read are properly ordered; only the second write races the
  // reader, so exactly one WAR (and nothing else) must be reported.
  const Event init = side.EnqueueLaunch("init", 1, 1.0, Nop, writes);
  device.default_queue()->EnqueueLaunch("reader", 1, 1.0, Nop, reads,
                                        std::span<const Event>(&init, 1));
  side.EnqueueLaunch("overwriter", 1, 1.0, Nop, writes);
  side.Finish();
  device.default_queue()->Finish();
  const std::vector<HazardReport> reports = checker->Validate();
  EXPECT_EQ(CountKind(reports, HazardKind::kWar), 1u) << Messages(reports);
  EXPECT_EQ(reports.size(), 1u) << Messages(reports);
  const std::string& msg = Messages(reports);
  EXPECT_NE(msg.find("write-after-read"), std::string::npos) << msg;
  EXPECT_NE(msg.find("'overwriter'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("'reader'"), std::string::npos) << msg;
}

TEST(HazardNegative, WriteAfterWriteAcrossQueues) {
  Device device(DeviceProfile::OpenClCpu());
  auto checker = AttachDeferred(&device);
  auto buf = device.CreateBuffer<double>(8);
  CommandQueue side(&device);
  const BufferAccess writes[] = {Writes(buf)};
  device.default_queue()->EnqueueLaunch("writer_a", 1, 1.0, Nop, writes);
  side.EnqueueLaunch("writer_b", 1, 1.0, Nop, writes);
  side.Finish();
  device.default_queue()->Finish();
  const std::vector<HazardReport> reports = checker->Validate();
  EXPECT_EQ(CountKind(reports, HazardKind::kWaw), 1u) << Messages(reports);
  const std::string& msg = Messages(reports);
  EXPECT_NE(msg.find("write-after-write"), std::string::npos) << msg;
  EXPECT_NE(msg.find("'writer_b'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("'writer_a'"), std::string::npos) << msg;
}

TEST(HazardNegative, DisjointRangesDoNotRace) {
  Device device(DeviceProfile::OpenClCpu());
  auto checker = AttachDeferred(&device);
  auto buf = device.CreateBuffer<double>(16);
  CommandQueue side(&device);
  // Unordered writes to the two halves: byte-precise tracking must not
  // report a race for disjoint ranges.
  const BufferAccess lo[] = {Writes(buf, 0, 8)};
  const BufferAccess hi[] = {Writes(buf, 8, 8)};
  device.default_queue()->EnqueueLaunch("writer_lo", 1, 1.0, Nop, lo);
  side.EnqueueLaunch("writer_hi", 1, 1.0, Nop, hi);
  side.Finish();
  device.default_queue()->Finish();
  EXPECT_TRUE(checker->Validate().empty())
      << Messages(checker->Validate());
}

TEST(HazardNegative, UseAfterFreeReleaseWhileInFlight) {
  Device device(DeviceProfile::OpenClCpu());
  auto checker = AttachDeferred(&device);
  std::atomic<bool> release{false};
  {
    auto buf = device.CreateBuffer<double>(8);
    const BufferAccess writes[] = {Writes(buf)};
    device.default_queue()->EnqueueLaunch(
        "holder", 1, 1.0,
        [&release](std::size_t, std::size_t) {
          while (!release.load()) std::this_thread::yield();
        },
        writes);
    // `buf` dies here while 'holder' is still in flight.
  }
  release.store(true);
  device.default_queue()->Finish();
  const std::vector<HazardReport> reports = checker->Validate();
  ASSERT_EQ(CountKind(reports, HazardKind::kUseAfterFree), 1u)
      << Messages(reports);
  const std::string& msg = Messages(reports);
  EXPECT_NE(msg.find("use-after-free"), std::string::npos) << msg;
  EXPECT_NE(msg.find("'holder'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("in flight"), std::string::npos) << msg;
}

TEST(HazardNegative, UseAfterFreeStaleDeclaredId) {
  Device device(DeviceProfile::OpenClCpu());
  auto checker = AttachDeferred(&device);
  BufferAccess stale;
  {
    auto buf = device.CreateBuffer<double>(8);
    stale = Writes(buf);
  }
  device.default_queue()->EnqueueLaunch(
      "stale_user", 1, 1.0, Nop, std::span<const BufferAccess>(&stale, 1));
  device.default_queue()->Finish();
  const std::vector<HazardReport> reports = checker->Validate();
  ASSERT_EQ(CountKind(reports, HazardKind::kUseAfterFree), 1u)
      << Messages(reports);
  EXPECT_NE(Messages(reports).find("was already released"),
            std::string::npos)
      << Messages(reports);
}

TEST(HazardNegative, UseBeforeInitialization) {
  Device device(DeviceProfile::OpenClCpu());
  auto checker = AttachDeferred(&device);
  auto buf = device.CreateBuffer<double>(8);
  const BufferAccess reads[] = {Reads(buf)};
  device.default_queue()->EnqueueLaunch("eager_reader", 1, 1.0, Nop, reads);
  device.default_queue()->Finish();
  const std::vector<HazardReport> reports = checker->Validate();
  ASSERT_EQ(CountKind(reports, HazardKind::kUseBeforeInit), 1u)
      << Messages(reports);
  const std::string& msg = Messages(reports);
  EXPECT_NE(msg.find("use-before-initialization"), std::string::npos) << msg;
  EXPECT_NE(msg.find("'eager_reader'"), std::string::npos) << msg;
}

TEST(HazardNegative, OpaqueKernelSuppressesUseBeforeInit) {
  Device device(DeviceProfile::OpenClCpu());
  auto checker = AttachDeferred(&device);
  auto buf = device.CreateBuffer<double>(8);
  // An opaque (undeclared) kernel may have produced the data: a read
  // ordered after it is not flagged. This keeps legacy undeclared code
  // checkable without false positives.
  device.default_queue()->EnqueueLaunch("legacy_writer", 1, 1.0, Nop);
  const BufferAccess reads[] = {Reads(buf)};
  device.default_queue()->EnqueueLaunch("reader", 1, 1.0, Nop, reads);
  device.default_queue()->Finish();
  EXPECT_TRUE(checker->Validate().empty())
      << Messages(checker->Validate());
}

TEST(HazardNegative, LeakedScratchParkedWhileInFlight) {
  Device device(DeviceProfile::OpenClCpu());
  auto checker = AttachDeferred(&device);
  std::atomic<bool> release{false};
  {
    ScratchBuffer scratch = device.AcquireScratch(4);
    const BufferAccess writes[] = {Writes(*scratch)};
    // The kernel body does NOT capture the handle — the lifetime
    // discipline of command_queue.h is violated on purpose.
    device.default_queue()->EnqueueLaunch(
        "scratch_user", 1, 1.0,
        [&release](std::size_t, std::size_t) {
          while (!release.load()) std::this_thread::yield();
        },
        writes);
    // Last handle drops here: the buffer parks with 'scratch_user' in
    // flight.
  }
  release.store(true);
  device.default_queue()->Finish();
  const std::vector<HazardReport> reports = checker->Validate();
  ASSERT_EQ(CountKind(reports, HazardKind::kLeakedScratch), 1u)
      << Messages(reports);
  const std::string& msg = Messages(reports);
  EXPECT_NE(msg.find("scratch released in flight"), std::string::npos) << msg;
  EXPECT_NE(msg.find("'scratch_user'"), std::string::npos) << msg;
}

TEST(HazardNegative, UnwaitedReadback) {
  Device device(DeviceProfile::OpenClCpu());
  auto checker = AttachDeferred(&device);
  auto buf = device.CreateBuffer<double>(4);
  const std::vector<double> init = {1.0, 2.0, 3.0, 4.0};
  device.CopyToDevice(init.data(), 4, &buf);
  std::vector<double> staging(4);
  const Event read =
      device.default_queue()->EnqueueCopyToHost(buf, 0, 4, staging.data());
  // Validate before any Wait: the host never observed completion, so the
  // staging bytes may be torn.
  const std::vector<HazardReport> reports = checker->Validate();
  ASSERT_EQ(CountKind(reports, HazardKind::kUnwaitedReadback), 1u)
      << Messages(reports);
  EXPECT_NE(Messages(reports).find("copy_to_host"), std::string::npos)
      << Messages(reports);
  // Waiting covers the readback; Validate is a liveness check, not a
  // sticky report.
  read.Wait();
  EXPECT_TRUE(checker->Validate().empty())
      << Messages(checker->Validate());
}

#if GTEST_HAS_DEATH_TEST
TEST(HazardStrictDeathTest, AbortsAtFirstHazardWithDiagnostic) {
  // The "fast" style forks with live dispatcher threads; re-executing
  // the binary is the only fork-safe option here.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Device device(DeviceProfile::OpenClCpu());
        device.EnableHazardChecking(HazardMode::kStrict);
        auto buf = device.CreateBuffer<double>(8);
        CommandQueue side(&device);
        const BufferAccess writes[] = {Writes(buf)};
        device.default_queue()->EnqueueLaunch("writer_a", 1, 1.0, Nop,
                                              writes);
        side.EnqueueLaunch("writer_b", 1, 1.0, Nop, writes);
      },
      "write-after-write race");
}
#endif

// ---------------------------------------------------------------------------
// Positive controls: properly ordered chains and the real sharded KDE hot
// paths must validate clean (no false positives).

TEST(HazardPositive, OrderedCrossQueueChainIsClean) {
  Device device(DeviceProfile::OpenClCpu());
  auto checker = AttachDeferred(&device);
  auto buf = device.CreateBuffer<double>(8);
  CommandQueue side(&device);
  const BufferAccess writes[] = {Writes(buf)};
  const BufferAccess reads[] = {Reads(buf)};
  const Event w1 =
      device.default_queue()->EnqueueLaunch("w1", 1, 1.0, Nop, writes);
  const Event r = side.EnqueueLaunch("r", 1, 1.0, Nop, reads,
                                     std::span<const Event>(&w1, 1));
  device.default_queue()->EnqueueLaunch("w2", 1, 1.0, Nop, writes,
                                        std::span<const Event>(&r, 1));
  device.default_queue()->Finish();
  side.Finish();
  EXPECT_TRUE(checker->Validate().empty())
      << Messages(checker->Validate());
}

TEST(HazardPositive, EnvToggleAttachesStrictChecker) {
  const char* ambient = std::getenv("HAZARD_STRICT");
  const std::string saved = ambient != nullptr ? ambient : "";
  ASSERT_EQ(setenv("HAZARD_STRICT", "1", /*overwrite=*/1), 0);
  {
    Device strict_device(DeviceProfile::OpenClCpu());
    ASSERT_NE(strict_device.hazard_checker(), nullptr);
    EXPECT_EQ(strict_device.hazard_checker()->mode(), HazardMode::kStrict);
  }
  ASSERT_EQ(setenv("HAZARD_STRICT", "0", /*overwrite=*/1), 0);
  {
    Device off_device(DeviceProfile::OpenClCpu());
    EXPECT_EQ(off_device.hazard_checker(), nullptr);
  }
  // Restore the ambient value: a CI-wide HAZARD_STRICT=1 run must keep
  // covering the tests that follow in this binary.
  if (ambient != nullptr) {
    ASSERT_EQ(setenv("HAZARD_STRICT", saved.c_str(), /*overwrite=*/1), 0);
  } else {
    unsetenv("HAZARD_STRICT");
  }
}

TEST(HazardPositive, ShardedBatchGradientValidatesClean) {
  constexpr std::size_t kRows = 256;
  constexpr std::size_t kDims = 3;
  constexpr std::size_t kQueries = 9;
  for (const char* topology : {"cpu+gpu", "gpu+gpu"}) {
    SCOPED_TRACE(topology);
    DeviceGroupOptions options;
    options.hazard_mode = HazardMode::kDeferred;
    DeviceGroup group(ParseDeviceTopology(topology).ValueOrDie(),
                      std::move(options));
    ASSERT_NE(group.hazard_checker(), nullptr);
    DeviceSample sample(&group, kRows, kDims);
    std::vector<double> rows(kRows * kDims);
    Rng rng(7);
    for (double& v : rows) v = rng.Uniform();
    FKDE_CHECK_OK(sample.LoadRows(rows, kRows));
    KdeEngine engine(&sample, KernelType::kGaussian);

    std::vector<Box> boxes;
    for (std::size_t q = 0; q < kQueries; ++q) {
      std::vector<double> lo(kDims), hi(kDims);
      for (std::size_t j = 0; j < kDims; ++j) {
        const double a = rng.Uniform();
        const double b = rng.Uniform();
        lo[j] = std::min(a, b);
        hi[j] = std::max(a, b);
      }
      boxes.emplace_back(std::move(lo), std::move(hi));
    }
    std::vector<double> estimates(kQueries);
    std::vector<double> gradients(kQueries * kDims);
    engine.EstimateBatchWithGradient(boxes, estimates, gradients);
    // The single-query paths ride the same command DAG.
    std::vector<double> gradient;
    engine.EstimateWithGradient(boxes.front(), &gradient);
    engine.Estimate(boxes.back());

    const std::vector<HazardReport> reports =
        group.hazard_checker()->Validate();
    EXPECT_TRUE(reports.empty()) << Messages(reports);
  }
}

// ---------------------------------------------------------------------------
// Satellite regressions: DeviceBuffer move semantics against the global
// registry, and the draining queue destructor.

// ---------------------------------------------------------------------------
// Regression: the scott_moments view surface. The moments kernel once
// received a ShardKernelView packing a `bandwidth_dev` pointer its
// declared access set omitted — undeclared accesses are invisible here:
// the checker reasons only over declared sets, so had the kernel
// dereferenced that pointer, a concurrent bandwidth write would have
// raced it silently. The moments launch now declares only the sample
// read kb::Moments needs (the bandwidth the moments *derive* is not even
// initialized yet; declaring the read instead trips use-before-init).
// The pair below pins both halves of why the static rule exists: an
// undeclared surface is invisible, a declared one is ordered.

TEST(HazardRegression, UndeclaredViewPointerHidesBandwidthRace) {
  Device device(DeviceProfile::OpenClCpu());
  auto checker = AttachDeferred(&device);
  auto moments = device.CreateBuffer<double>(32);
  auto bandwidth = device.CreateBuffer<double>(4);
  CommandQueue side(&device);
  // The pre-fix shape: only the output declared, not the view-packed
  // pointer the kernel could have read.
  const BufferAccess undeclared[] = {Writes(moments)};
  const BufferAccess bw_writes[] = {Writes(bandwidth)};
  device.default_queue()->EnqueueLaunch("scott_moments", 1, 1.0, Nop,
                                        undeclared);
  side.EnqueueLaunch("bandwidth_update", 1, 1.0, Nop, bw_writes);
  side.Finish();
  device.default_queue()->Finish();
  // A genuine race, but no report: declared sets are the checker's whole
  // world. The typed accessors close this gap at compile time: a body
  // reaches only the buffers its launch declared.
  EXPECT_TRUE(checker->Validate().empty());
}

TEST(HazardRegression, DeclaredViewPointerOrdersBandwidthRace) {
  Device device(DeviceProfile::OpenClCpu());
  auto checker = AttachDeferred(&device);
  auto moments = device.CreateBuffer<double>(32);
  auto bandwidth = device.CreateBuffer<double>(4);
  CommandQueue side(&device);
  // The declared shape: with the read in the access set, the same
  // concurrent write is detected and reported.
  const BufferAccess declared[] = {Writes(moments), Reads(bandwidth)};
  const BufferAccess bw_writes[] = {Writes(bandwidth)};
  device.default_queue()->EnqueueLaunch("scott_moments", 1, 1.0, Nop,
                                        declared);
  side.EnqueueLaunch("bandwidth_update", 1, 1.0, Nop, bw_writes);
  side.Finish();
  device.default_queue()->Finish();
  const std::vector<HazardReport> reports = checker->Validate();
  ASSERT_EQ(CountKind(reports, HazardKind::kWar), 1u) << Messages(reports);
  const std::string& msg = Messages(reports);
  EXPECT_NE(msg.find("'scott_moments'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("'bandwidth_update'"), std::string::npos) << msg;
}

TEST(HazardPositive, StridedAccessCoversOnlyItsRuns) {
  // A rect upload initializes the live prefix of each strip; a strided
  // read of exactly those runs is clean, one element more per strip
  // reads bytes no command wrote.
  Device device(DeviceProfile::OpenClCpu());
  auto checker = AttachDeferred(&device);
  auto strips = device.CreateBuffer<float>(2 * 8);
  const std::vector<float> rows(2 * 3, 1.0f);
  device.CopyRectToDevice(rows.data(), 3, 2, 8, &strips);
  const BufferAccess live[] = {Reads(strips, 0, 3, 8, 2)};
  device.Launch("reads_live_rows", 1, 1.0, Nop, live);
  EXPECT_TRUE(checker->Validate().empty()) << Messages(checker->Validate());
  const BufferAccess beyond[] = {Reads(strips, 0, 4, 8, 2)};
  device.Launch("reads_past_live_rows", 1, 1.0, Nop, beyond);
  const std::vector<HazardReport> reports = checker->Validate();
  ASSERT_EQ(CountKind(reports, HazardKind::kUseBeforeInit), 1u)
      << Messages(reports);
  EXPECT_NE(Messages(reports).find("bytes [12, 16)"), std::string::npos)
      << Messages(reports);
}

// Regression: the last level of a multi-level segmented reduction holds
// the final references to its ping-pong scratch, so the scratch parks
// while the dispatcher retires that command. The checker used to count
// the retiring command as still in flight, and a strict device aborted
// building any model whose Scott moments pass reduces more than one
// work-group (s > 256) with "scratch released in flight".
TEST(HazardRegression, StrictDeviceBuildsModelWithMultiLevelReduction) {
  constexpr std::size_t kRows = 1024;
  constexpr std::size_t kDims = 3;
  Device device(DeviceProfile::SimulatedGtx460());
  device.EnableHazardChecking(HazardMode::kStrict);
  DeviceSample sample(&device, kRows, kDims);
  std::vector<double> rows(kRows * kDims);
  Rng rng(9);
  for (double& v : rows) v = rng.Uniform();
  FKDE_CHECK_OK(sample.LoadRows(rows, kRows));
  KdeEngine engine(&sample, KernelType::kGaussian);
  const Box box(std::vector<double>(kDims, 0.2),
                std::vector<double>(kDims, 0.7));
  std::vector<double> gradient;
  EXPECT_GT(engine.EstimateWithGradient(box, &gradient), 0.0);
  sample.ReplaceRow(5, std::vector<double>(kDims, 0.5));
  EXPECT_GT(engine.Estimate(box), 0.0);
  device.default_queue()->Finish();
  EXPECT_TRUE(device.hazard_checker()->Validate().empty());
}

TEST(BufferRegistry, MoveAssignReleasesMovedOverRegistration) {
  Device device(DeviceProfile::OpenClCpu());
  auto a = device.CreateBuffer<double>(4);
  auto b = device.CreateBuffer<double>(8);
  const std::uint64_t id_a = a.buffer_id();
  const std::uint64_t id_b = b.buffer_id();
  ASSERT_NE(id_a, 0u);
  ASSERT_NE(id_b, 0u);
  internal::BufferRegistry& registry = internal::BufferRegistry::Global();
  EXPECT_TRUE(registry.Lookup(id_a, nullptr));

  a = std::move(b);
  // The moved-over allocation's registration is gone; the adopted one
  // lives on under its original id; the moved-from buffer is empty.
  EXPECT_FALSE(registry.Lookup(id_a, nullptr));
  std::size_t bytes = 0;
  EXPECT_TRUE(registry.Lookup(id_b, &bytes));
  EXPECT_EQ(bytes, 8 * sizeof(double));
  EXPECT_EQ(a.buffer_id(), id_b);
  EXPECT_EQ(b.buffer_id(), 0u);

  DeviceBuffer<double> c(std::move(a));
  EXPECT_EQ(c.buffer_id(), id_b);
  EXPECT_EQ(a.buffer_id(), 0u);
  EXPECT_TRUE(registry.Lookup(id_b, nullptr));
}

TEST(CommandQueueDtor, DrainsAndBooksModeledTime) {
  DeviceProfile profile;
  profile.launch_latency_s = 1e-3;
  profile.compute_throughput = 1e6;  // 1000 items -> 1 ms compute.
  Device device(profile);
  std::atomic<bool> ran{false};
  {
    CommandQueue queue(&device);
    queue.EnqueueLaunch("tail", 1000, 1.0,
                        [&ran](std::size_t, std::size_t) { ran.store(true); });
    // The destructor must Finish(): drain the command and stall the host
    // clock to its modeled end before joining the dispatcher.
  }
  EXPECT_TRUE(ran.load());
  EXPECT_NEAR(device.ModeledSeconds(), 2e-3, 1e-9);
}

}  // namespace
}  // namespace fkde
