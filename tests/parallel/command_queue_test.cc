#include "parallel/command_queue.h"

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "parallel/device.h"

namespace fkde {
namespace {

TEST(CommandQueue, InvalidEventIsCompleteAndFreeToWaitOn) {
  const Event event;
  EXPECT_FALSE(event.valid());
  EXPECT_TRUE(event.complete());
  EXPECT_DOUBLE_EQ(event.modeled_end_seconds(), 0.0);
  event.Wait();  // No-op, must not crash or charge anything.
}

TEST(CommandQueue, CommandsReallyExecuteAsynchronously) {
  Device device(DeviceProfile::OpenClCpu());
  std::atomic<bool> release{false};
  std::atomic<bool> ran{false};
  const Event event = device.default_queue()->EnqueueLaunch(
      "blocked", 1, 1.0, [&](std::size_t, std::size_t) {
        while (!release.load()) std::this_thread::yield();
        ran.store(true);
      });
  // The enqueue returned while the kernel is still blocked: it is running
  // on the dispatcher, not inline on this thread.
  EXPECT_FALSE(event.complete());
  EXPECT_FALSE(ran.load());
  release.store(true);
  event.Wait();
  EXPECT_TRUE(event.complete());
  EXPECT_TRUE(ran.load());
}

TEST(CommandQueue, ExecutesInEnqueueOrder) {
  Device device(DeviceProfile::OpenClCpu());
  // Unsynchronized appends from the kernel bodies: only safe because the
  // in-order queue runs one command at a time. TSan guards this too.
  std::vector<int> order;
  CommandQueue* queue = device.default_queue();
  for (int i = 0; i < 16; ++i) {
    queue->EnqueueLaunch("step", 1, 1.0,
                         [&order, i](std::size_t, std::size_t) {
                           order.push_back(i);
                         });
  }
  queue->Finish();
  ASSERT_EQ(order.size(), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[i], i);
}

TEST(CommandQueue, FinishDrainsEverythingPending) {
  Device device(DeviceProfile::OpenClCpu());
  std::atomic<int> done{0};
  for (int i = 0; i < 8; ++i) {
    device.default_queue()->EnqueueLaunch(
        "work", 1, 1.0,
        [&done](std::size_t, std::size_t) { done.fetch_add(1); });
  }
  device.default_queue()->Finish();
  EXPECT_EQ(done.load(), 8);
  device.default_queue()->Finish();  // Idempotent on a drained queue.
}

TEST(CommandQueue, TransfersAndKernelsInterleaveInOrder) {
  Device device(DeviceProfile::OpenClCpu());
  auto buffer = device.CreateBuffer<double>(4);
  CommandQueue* queue = device.default_queue();
  const std::vector<double> init = {1.0, 2.0, 3.0, 4.0};
  queue->EnqueueCopyToDevice(init.data(), 4, &buffer);
  queue->EnqueueLaunch("double", 4, 1.0, std::tuple(InOut(buffer)),
                       [](std::size_t begin, std::size_t end, double* data) {
                         for (std::size_t i = begin; i < end; ++i) {
                           data[i] *= 2.0;
                         }
                       });
  std::vector<double> out(4);
  const Event read = queue->EnqueueCopyToHost(buffer, 0, 4, out.data());
  read.Wait();
  EXPECT_EQ(out, (std::vector<double>{2.0, 4.0, 6.0, 8.0}));
}

TEST(CommandQueue, WaitListSequencesAcrossQueues) {
  Device device(DeviceProfile::OpenClCpu());
  CommandQueue side_queue(&device);
  std::atomic<bool> release{false};
  std::atomic<bool> first_ran{false};
  const Event first = device.default_queue()->EnqueueLaunch(
      "first", 1, 1.0, [&](std::size_t, std::size_t) {
        while (!release.load()) std::this_thread::yield();
        first_ran.store(true);
      });
  // The side queue's command lists `first` in its wait list, so it may
  // not start until the default queue's command completed — even though
  // the two queues dispatch independently.
  bool ordered = false;
  const Event second = side_queue.EnqueueLaunch(
      "second", 1, 1.0,
      [&](std::size_t, std::size_t) { ordered = first_ran.load(); },
      /*accesses=*/{}, std::span<const Event>(&first, 1));
  EXPECT_GE(second.modeled_end_seconds(), first.modeled_end_seconds());
  release.store(true);
  second.Wait();
  EXPECT_TRUE(ordered);
}

TEST(CommandQueue, ModeledClockIsBookedAtEnqueueTime) {
  DeviceProfile profile;
  profile.launch_latency_s = 1e-3;
  profile.compute_throughput = 1e6;
  Device device(profile);
  std::atomic<bool> release{false};
  const Event slow = device.default_queue()->EnqueueLaunch(
      "gated", 1000, 1.0, [&](std::size_t, std::size_t) {
        while (!release.load()) std::this_thread::yield();
      });
  // Real execution has not even started, yet the modeled schedule is
  // final: deterministic bookkeeping never depends on thread timing.
  EXPECT_NEAR(slow.modeled_end_seconds(), 1e-3 + 1e-3, 1e-9);
  EXPECT_NEAR(device.ModeledSeconds(), 1e-3, 1e-9);
  EXPECT_NEAR(device.DeviceBusySeconds(), 1e-3, 1e-9);
  release.store(true);
  slow.Wait();
}

TEST(CommandQueue, BackToBackCommandsPipelineSubmissionLatency) {
  DeviceProfile profile;
  profile.launch_latency_s = 1e-3;
  profile.compute_throughput = 1e6;  // 1000 items -> 1 ms compute each.
  Device device(profile);
  CommandQueue* queue = device.default_queue();
  Event last;
  for (int i = 0; i < 3; ++i) {
    last = queue->EnqueueLaunch("stage", 1000, 1.0,
                                [](std::size_t, std::size_t) {});
  }
  last.Wait();
  // Submissions overlap earlier compute, so the pipeline finishes at
  // 3 launches x 1 ms latency + one trailing 1 ms of compute — not the
  // 6 ms a fully serialized launch-then-wait sequence would cost.
  EXPECT_NEAR(device.ModeledSeconds(), 4e-3, 1e-9);
  EXPECT_NEAR(device.DeviceBusySeconds(), 3e-3, 1e-9);
}

TEST(CommandQueue, StatsTrackDepthHighWaterAndDrain) {
  Device device(DeviceProfile::OpenClCpu());
  CommandQueue* queue = device.default_queue();
  const CommandQueueStats fresh = queue->Stats();
  EXPECT_EQ(fresh.total_commands, 0u);
  EXPECT_EQ(fresh.pending, 0u);
  EXPECT_EQ(fresh.depth_high_water, 0u);

  // Hold the dispatcher on a gate so five more commands pile up behind it.
  std::atomic<bool> release{false};
  (void)queue->EnqueueLaunch("gate", 1, 1.0, [&](std::size_t, std::size_t) {
    while (!release.load()) std::this_thread::yield();
  });
  for (int i = 0; i < 5; ++i) {
    (void)queue->EnqueueLaunch("queued", 1, 1.0,
                               [](std::size_t, std::size_t) {});
  }
  const CommandQueueStats backed_up = queue->Stats();
  EXPECT_EQ(backed_up.total_commands, 6u);
  EXPECT_GE(backed_up.pending, 5u);
  EXPECT_GE(backed_up.depth_high_water, 5u);

  release.store(true);
  queue->Finish();
  const CommandQueueStats drained = queue->Stats();
  EXPECT_EQ(drained.total_commands, 6u);
  EXPECT_EQ(drained.pending, 0u);
  // The high-water mark is a high-water mark: draining must not lower it.
  EXPECT_GE(drained.depth_high_water, backed_up.depth_high_water);
  // The dispatcher idled at least while the test thread set up the gate.
  EXPECT_GE(drained.dispatcher_wait_s, 0.0);
}

}  // namespace
}  // namespace fkde
