#include <atomic>
#include <cstdint>
#include <thread>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "parallel/device.h"

namespace fkde {
namespace {

/// The device pointer a kernel body receives for an `Out` accessor over
/// `buffer`.
const double* BodyPointer(Device& device, DeviceBuffer<double>& buffer) {
  const double* seen = nullptr;
  device.Launch("probe", 1, 1.0, std::tuple(Out(buffer, 0, 1)),
                [&seen](std::size_t, std::size_t, double* p) { seen = p; });
  return seen;
}

TEST(DeviceBufferMove, MoveConstructionTransfersStorage) {
  Device device(DeviceProfile::OpenClCpu());
  DeviceBuffer<double> source = device.CreateBuffer<double>(64);
  const std::vector<double> payload(64, 3.5);
  device.CopyToDevice(payload.data(), payload.size(), &source);
  const double* data = BodyPointer(device, source);

  DeviceBuffer<double> target(std::move(source));
  EXPECT_EQ(target.size(), 64u);
  // The backing allocation moves with the buffer — pointers held by
  // enqueued kernels stay valid across the move.
  EXPECT_EQ(BodyPointer(device, target), data);
  double last = 0.0;
  device.CopyToHost(target, 63, 1, &last);
  EXPECT_DOUBLE_EQ(last, 3.5);
  EXPECT_TRUE(source.empty());  // NOLINT(bugprone-use-after-move)
}

TEST(DeviceBufferMove, MoveAssignmentReleasesOldStorageOnce) {
  Device device(DeviceProfile::OpenClCpu());
  DeviceBuffer<double> a = device.CreateBuffer<double>(16);
  DeviceBuffer<double> b = device.CreateBuffer<double>(32);
  const double* b_data = BodyPointer(device, b);
  // Old storage of `a` is freed exactly once here; ASan would flag a
  // double-release.
  a = std::move(b);
  EXPECT_EQ(a.size(), 32u);
  EXPECT_EQ(BodyPointer(device, a), b_data);
  EXPECT_TRUE(b.empty());  // NOLINT(bugprone-use-after-move)
  // Self-contained scope exit destroys both; again single-release.
}

TEST(BufferPool, MissThenHitOnRecycle) {
  Device device(DeviceProfile::OpenClCpu());
  const BufferPoolStats before = device.scratch_pool_stats();
  std::uint64_t first_id = 0;
  {
    ScratchBuffer first = device.AcquireScratch(1000);
    ASSERT_GE(first->size(), 1000u);
    first_id = first->buffer_id();
    const BufferPoolStats stats = device.scratch_pool_stats();
    EXPECT_EQ(stats.misses, before.misses + 1);
    EXPECT_EQ(stats.hits, before.hits);
    EXPECT_EQ(stats.outstanding, before.outstanding + 1);
  }  // Handle drops -> parked, not freed.
  const BufferPoolStats parked = device.scratch_pool_stats();
  EXPECT_EQ(parked.releases, before.releases + 1);
  EXPECT_EQ(parked.outstanding, before.outstanding);
  EXPECT_GT(parked.pooled_bytes, 0u);

  // Same bucket -> the exact storage comes back, no allocation.
  ScratchBuffer second = device.AcquireScratch(700);
  EXPECT_EQ(second->buffer_id(), first_id);
  const BufferPoolStats stats = device.scratch_pool_stats();
  EXPECT_EQ(stats.hits, before.hits + 1);
  EXPECT_EQ(stats.misses, before.misses + 1);
}

TEST(BufferPool, BucketsRoundUpToPowersOfTwo) {
  Device device(DeviceProfile::OpenClCpu());
  EXPECT_EQ(device.AcquireScratch(1)->size(), 256u);    // Min bucket.
  EXPECT_EQ(device.AcquireScratch(256)->size(), 256u);
  EXPECT_EQ(device.AcquireScratch(257)->size(), 512u);
  EXPECT_EQ(device.AcquireScratch(5000)->size(), 8192u);
}

TEST(BufferPool, PoolTrafficIsNeverMetered) {
  Device device(DeviceProfile::OpenClCpu());
  device.ResetLedger();
  for (int round = 0; round < 3; ++round) {
    ScratchBuffer a = device.AcquireScratch(4096);
    ScratchBuffer b = device.AcquireScratch(512);
  }
  device.TrimScratchPool();
  // Acquire/release/trim are host-side bookkeeping: the transfer ledger
  // and the modeled clocks never see them.
  const TransferLedger& ledger = device.ledger();
  EXPECT_EQ(ledger.total_bytes(), 0u);
  EXPECT_EQ(ledger.transfers_to_device, 0u);
  EXPECT_EQ(ledger.transfers_to_host, 0u);
  EXPECT_EQ(ledger.kernel_launches, 0u);
  EXPECT_DOUBLE_EQ(device.ModeledSeconds(), 0.0);
}

TEST(BufferPool, TrimFreesParkedButNotOutstanding) {
  Device device(DeviceProfile::OpenClCpu());
  ScratchBuffer held = device.AcquireScratch(256);
  { ScratchBuffer parked = device.AcquireScratch(256); }
  EXPECT_GT(device.scratch_pool_stats().pooled_bytes, 0u);
  device.TrimScratchPool();
  EXPECT_EQ(device.scratch_pool_stats().pooled_bytes, 0u);
  // The outstanding handle is still usable, and parks cleanly, after the
  // trim.
  device.Launch("touch", 1, 1.0, std::tuple(Out(held, 0, 1)),
                [](std::size_t, std::size_t, double* p) { p[0] = 1.0; });
  held.reset();
  EXPECT_GT(device.scratch_pool_stats().pooled_bytes, 0u);
}

TEST(BufferPool, HandlesCapturedByEnqueuedKernelsParkAfterCompletion) {
  Device device(DeviceProfile::OpenClCpu());
  CommandQueue* queue = device.default_queue();
  const BufferPoolStats before = device.scratch_pool_stats();
  Event done;
  {
    ScratchBuffer scratch = device.AcquireScratch(1024);
    done = queue->EnqueueLaunch(
        "fill", 1024, 1.0, std::tuple(Out(scratch, 0, 1024)),
        [](std::size_t begin, std::size_t end, double* out) {
          for (std::size_t i = begin; i < end; ++i) out[i] = 1.0;
        });
  }  // Host handle dropped; the enqueued command still owns the buffer.
  done.Wait();
  queue->Finish();  // Command destruction releases the accessor's lease.
  const BufferPoolStats after = device.scratch_pool_stats();
  EXPECT_EQ(after.releases, before.releases + 1);
  EXPECT_EQ(after.outstanding, before.outstanding);
}

TEST(BufferPool, AccessorLeaseKeepsScratchOutOfThePoolUntilRetire) {
  Device device(DeviceProfile::OpenClCpu());
  device.EnableHazardChecking(HazardMode::kStrict);
  CommandQueue* queue = device.default_queue();
  const BufferPoolStats before = device.scratch_pool_stats();
  std::atomic<bool> release{false};
  Event done;
  {
    ScratchBuffer scratch = device.AcquireScratch(4);
    done = queue->EnqueueLaunch(
        "leased_fill", 4, 1.0, std::tuple(Out(scratch, 0, 4)),
        [&release](std::size_t begin, std::size_t end, double* out) {
          while (!release.load()) std::this_thread::yield();
          for (std::size_t i = begin; i < end; ++i) out[i] = 1.0;
        });
  }  // The accessor's lease is now the only owner of the scratch.
  const BufferPoolStats in_flight = device.scratch_pool_stats();
  EXPECT_EQ(in_flight.outstanding, before.outstanding + 1);
  EXPECT_EQ(in_flight.releases, before.releases);
  release.store(true);
  done.Wait();
  const BufferPoolStats after = device.scratch_pool_stats();
  EXPECT_EQ(after.releases, before.releases + 1);
  EXPECT_EQ(after.outstanding, before.outstanding);
  // Strict mode aborts on a hazard; nothing was parked in flight.
  EXPECT_TRUE(device.hazard_checker()->Validate().empty());
}

TEST(BufferPool, ReductionScratchRecyclesAcrossCalls) {
  Device device(DeviceProfile::OpenClCpu());
  const std::size_t n = 10000;
  auto buffer = device.CreateBuffer<double>(n);
  std::vector<double> ones(n, 1.0);
  device.CopyToDevice(ones.data(), n, &buffer);
  EXPECT_DOUBLE_EQ(ReduceSum(&device, buffer, 0, n),
                   static_cast<double>(n));
  device.default_queue()->Finish();
  const BufferPoolStats warm = device.scratch_pool_stats();
  EXPECT_GT(warm.misses, 0u);
  // Steady state: every further reduction of the same shape is served
  // entirely from the pool.
  for (int i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(ReduceSum(&device, buffer, 0, n),
                     static_cast<double>(n));
  }
  device.default_queue()->Finish();
  const BufferPoolStats stats = device.scratch_pool_stats();
  EXPECT_EQ(stats.misses, warm.misses);
  EXPECT_GT(stats.hits, warm.hits);
}

}  // namespace
}  // namespace fkde
