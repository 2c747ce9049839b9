// fkde-lint fixture: scratch lifetime done right. Analyzed (not
// compiled) by `ctest -L lint`; must produce zero findings. The
// sanctioned patterns: an accessor over the handle (the launch leases
// the scratch until the command retires), a blocking point after the
// last queued use, and parking the handle in a member that outlives the
// queue.
#include <tuple>

#include "parallel/command_queue.h"
#include "parallel/device.h"

namespace fkde {

// The accessor copies the shared_ptr; the pool cannot reclaim the
// scratch until the command retires.
void LeasedByAccessor(Device* dev, CommandQueue* queue,
                      DeviceBuffer<double>& out, std::size_t rows) {
  ScratchBuffer tmp = dev->AcquireScratch(rows);
  queue->EnqueueLaunch(
      "fixture_leased_scratch", rows, 1.0,
      std::tuple(Out(tmp, 0, rows), Out(out, 0, rows)),
      [](std::size_t begin, std::size_t end, double* t, double* b) {
        for (std::size_t i = begin; i < end; ++i) {
          t[i] = 1.0;
          b[i] = t[i];
        }
      });
}

// Ping-pong levels: each level's accessors lease the handle they name,
// whichever of the two it currently is.
void LeasedAcrossSwaps(Device* dev, CommandQueue* queue,
                       const DeviceBuffer<double>& in, std::size_t rows) {
  ScratchBuffer dst = dev->AcquireScratch(rows);
  ScratchBuffer spare = dev->AcquireScratch(rows);
  In<double> level_in(in, 0, rows);
  for (int level = 0; level < 2; ++level) {
    queue->EnqueueLaunch(
        "fixture_level", rows, 1.0, std::tuple(level_in, Out(dst, 0, rows)),
        [](std::size_t begin, std::size_t end, const double* x, double* y) {
          for (std::size_t i = begin; i < end; ++i) y[i] = x[i];
        });
    level_in = In(dst, 0, rows);
    std::swap(dst, spare);
  }
}

// Finish() drains the queue before the handle goes out of scope.
void DrainedBeforeRelease(Device* dev, CommandQueue* queue,
                          DeviceBuffer<double>& out, std::size_t rows) {
  ScratchBuffer tmp = dev->AcquireScratch(rows);
  queue->EnqueueLaunch(
      "fixture_drained_scratch", rows, 1.0,
      std::tuple(Out(*tmp, 0, rows), Out(out, 0, rows)),
      [](std::size_t begin, std::size_t end, double* t, double* b) {
        for (std::size_t i = begin; i < end; ++i) {
          t[i] = 2.0;
          b[i] = t[i];
        }
      });
  queue->Finish();
}

struct BatchState {
  ScratchBuffer bounds;

  // Parked in a member: the owner synchronizes before reuse.
  void Acquire(Device* dev, std::size_t rows) {
    bounds = dev->AcquireScratch(rows);
  }
};

}  // namespace fkde
