// fkde-lint fixture: scratch-lifetime violations. Analyzed (not
// compiled) by `ctest -L lint`. ScratchBuffer is a pooled shared_ptr:
// the allocation returns to the pool when the last handle drops, so a
// handle must outlive every queued kernel that dereferences it.
#include <tuple>

#include "parallel/command_queue.h"
#include "parallel/device.h"

namespace fkde {

// The accessor is built over the dereferenced buffer, so it leases
// nothing; the handle dies when the function returns, and the pool can
// hand the memory to someone else while the kernel is still writing it.
void ReleasedWhileQueued(Device* dev, CommandQueue* queue,
                         DeviceBuffer<double>& out, std::size_t rows) {
  ScratchBuffer tmp = dev->AcquireScratch(rows);
  queue->EnqueueLaunch(
      "fixture_unheld_scratch", rows, 1.0,
      std::tuple(Out(*tmp, 0, rows), Out(out, 0, rows)),
      [](std::size_t begin, std::size_t end, double* t, double* b) {
        for (std::size_t i = begin; i < end; ++i) {
          t[i] = 1.0;
          b[i] = t[i];
        }
      });
}

// Acquiring without binding the handle releases the scratch before
// anything can use it.
void DiscardedHandle(Device* dev) {
  dev->AcquireScratch(256);
}

}  // namespace fkde
