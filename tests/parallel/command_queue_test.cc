#include "parallel/command_queue.h"

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <utility>
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

// A group launch gives the pool chunks of kLaunchGrain / kReduceGroupSize
// groups — the rows one chunk of a row launch covers — and books the
// producer's ops plus kReduceGroupSize per group and segment, what the
// producer and the first reduction level cost as two launches.
TEST(CommandQueue, GroupLaunchChunksByRowsAndChargesTheAbsorbedLevel) {
  ThreadPool pool(2);
  Device device(DeviceProfile::OpenClCpu(), &pool);
  const RowGroups groups{16 * kReduceGroupSize + 3, 2};
  ASSERT_EQ(groups.groups(), 17u);
  auto out = device.CreateBuffer<double>(2 * groups.groups());
  std::mutex mu;
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  device.default_queue()
      ->EnqueueLaunch("groups", groups, 5.0,
                      std::tuple(Out(out, 0, 2 * groups.groups())),
                      [&](std::size_t begin, std::size_t end, double* sums) {
                        for (std::size_t g = begin; g < end; ++g) {
                          sums[g] = sums[groups.groups() + g] = 1.0;
                        }
                        std::lock_guard<std::mutex> lock(mu);
                        chunks.emplace_back(begin, end);
                      })
      .Wait();
  std::size_t covered = 0;
  for (const auto& [begin, end] : chunks) {
    EXPECT_LE(end - begin, kLaunchGrain / kReduceGroupSize);
    covered += end - begin;
  }
  EXPECT_EQ(covered, groups.groups());
  EXPECT_GT(chunks.size(), 1u);
  EXPECT_EQ(device.ledger().kernel_launches, 1u);
  const double work = static_cast<double>(groups.rows) * 5.0 +
                      static_cast<double>(17 * 2 * kReduceGroupSize);
  EXPECT_NEAR(device.DeviceBusySeconds(),
              work / device.profile().compute_throughput, 1e-15);
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

// A waiting host runs the queue's front commands itself, but stops at its
// own event: B spins until the test thread has returned from A.Wait(), so
// a waiter that ran on past A would never return.
TEST(CommandQueue, WaitRunsOnlyUpToItsEvent) {
  Device device(DeviceProfile::OpenClCpu());
  CommandQueue* queue = device.default_queue();
  for (int round = 0; round < 32; ++round) {
    std::atomic<bool> a_returned{false};
    bool a_ran = false;
    const Event a = queue->EnqueueLaunch(
        "a", 1, 1.0, [&](std::size_t, std::size_t) { a_ran = true; });
    const Event b = queue->EnqueueLaunch(
        "b", 1, 1.0, [&](std::size_t, std::size_t) {
          while (!a_returned.load()) std::this_thread::yield();
        });
    a.Wait();
    EXPECT_TRUE(a_ran);
    a_returned.store(true);
    b.Wait();
  }
}

// Several client threads enqueue and wait on one shared queue, so each
// runs other clients' commands as well as its own. Execution still
// follows enqueue order, one command at a time: the bodies append to an
// unsynchronized vector (TSan guards it).
TEST(CommandQueue, ConcurrentWaitersKeepEnqueueOrder) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  Device device(DeviceProfile::OpenClCpu());
  CommandQueue* queue = device.default_queue();
  std::mutex enqueue_mu;
  std::vector<int> enqueued;  // Guarded by enqueue_mu.
  std::vector<int> executed;  // Written only by command bodies.
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const int tag = t * kPerThread + i;
        Event event;
        {
          std::lock_guard<std::mutex> lock(enqueue_mu);
          enqueued.push_back(tag);
          event = queue->EnqueueLaunch(
              "append", 1, 1.0, [&executed, tag](std::size_t, std::size_t) {
                executed.push_back(tag);
              });
        }
        event.Wait();
      }
    });
  }
  for (std::thread& client : clients) client.join();
  queue->Finish();
  EXPECT_EQ(executed, enqueued);
  EXPECT_EQ(queue->Stats().pending, 0u);
}

// A host running a side-queue command resolves its wait-list like the
// dispatcher does: it blocks on the gated default-queue command and runs
// the body only after it completed.
TEST(CommandQueue, HostRunCommandWaitsOnCrossQueueDependency) {
  Device device(DeviceProfile::OpenClCpu());
  CommandQueue side_queue(&device);
  std::atomic<bool> release{false};
  std::atomic<bool> gate_done{false};
  const Event gate = device.default_queue()->EnqueueLaunch(
      "gate", 1, 1.0, [&](std::size_t, std::size_t) {
        while (!release.load()) std::this_thread::yield();
        gate_done.store(true);
      });
  bool ordered = false;
  const Event after = side_queue.EnqueueLaunch(
      "after_gate", 1, 1.0,
      [&](std::size_t, std::size_t) { ordered = gate_done.load(); },
      /*accesses=*/{}, std::span<const Event>(&gate, 1));
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    release.store(true);
  });
  after.Wait();
  EXPECT_TRUE(ordered);
  EXPECT_TRUE(gate.complete());
  releaser.join();
}

// A command's captured scratch lease parks back into the pool before
// Wait() returns, whichever thread ran it (the strict checker would abort
// on a lease released while its command still counts as in flight).
TEST(CommandQueue, ScratchParksBeforeHostRunWaitReturns) {
  Device device(DeviceProfile::OpenClCpu());
  device.EnableHazardChecking(HazardMode::kStrict);
  CommandQueue* queue = device.default_queue();
  const BufferPoolStats before = device.scratch_pool_stats();
  for (int round = 0; round < 32; ++round) {
    Event done;
    {
      ScratchBuffer scratch = device.AcquireScratch(4);
      done = queue->EnqueueLaunch(
          "leased_fill", 4, 1.0, std::tuple(Out(scratch, 0, 4)),
          [](std::size_t begin, std::size_t end, double* out) {
            for (std::size_t i = begin; i < end; ++i) out[i] = 1.0;
          });
    }  // The accessor's lease is now the only owner of the scratch.
    done.Wait();
    const BufferPoolStats after = device.scratch_pool_stats();
    EXPECT_EQ(after.outstanding, before.outstanding) << round;
    EXPECT_EQ(after.releases, before.releases + round + 1) << round;
  }
  EXPECT_TRUE(device.hazard_checker()->Validate().empty());
}

}  // namespace
}  // namespace fkde
