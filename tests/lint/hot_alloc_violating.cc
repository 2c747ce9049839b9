// fkde-lint fixture: hot-alloc violations. Analyzed (not compiled) by
// `ctest -L lint`. Heap allocation inside a kernel body or an FKDE_HOT
// function stalls the dispatcher threads on the allocator lock.
#include <tuple>
#include <vector>

#include "common/annotations.h"
#include "parallel/command_queue.h"
#include "parallel/device.h"

namespace fkde {

// Allocating container constructed on the per-point hot path.
FKDE_HOT double SumWithTemporary(const double* x, std::size_t n) {
  std::vector<double> tmp(n);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    tmp[i] = x[i] * x[i];
    total += tmp[i];
  }
  return total;
}

// Raw `new` inside a kernel body; per-worker scratch must come from
// Device::AcquireScratch instead.
void KernelWithNew(CommandQueue* queue, DeviceBuffer<double>& out,
                   std::size_t rows) {
  queue->EnqueueLaunch(
      "fixture_kernel_new", rows, 1.0, std::tuple(Out(out, 0, rows)),
      [](std::size_t begin, std::size_t end, double* b) {
        double* tmp = new double[end - begin];
        for (std::size_t i = begin; i < end; ++i) {
          tmp[i - begin] = 1.0;
          b[i] = tmp[i - begin];
        }
        delete[] tmp;
      });
}

// Growing a container inside a kernel body reallocates under load.
void KernelWithPushBack(CommandQueue* queue, DeviceBuffer<double>& out,
                        std::vector<double>& sink, std::size_t rows) {
  queue->EnqueueLaunch(
      "fixture_kernel_grow", rows, 1.0, std::tuple(Out(out, 0, rows)),
      [&sink](std::size_t begin, std::size_t end, double* b) {
        for (std::size_t i = begin; i < end; ++i) {
          b[i] = 0.0;
          sink.push_back(b[i]);
        }
      });
}

}  // namespace fkde
