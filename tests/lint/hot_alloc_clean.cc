// fkde-lint fixture: allocation-free hot paths. Analyzed (not
// compiled) by `ctest -L lint`; must produce zero findings. Stack
// arrays and pre-acquired scratch are the sanctioned patterns.
#include <tuple>

#include "common/annotations.h"
#include "parallel/command_queue.h"
#include "parallel/device.h"

namespace fkde {

inline constexpr std::size_t kMaxDims = 32;

// Fixed-size stack storage is fine on the hot path.
FKDE_HOT double SumWithStackArray(const double* x, std::size_t d) {
  double partial[kMaxDims];
  double total = 0.0;
  for (std::size_t j = 0; j < d; ++j) {
    partial[j] = x[j] * x[j];
    total += partial[j];
  }
  return total;
}

// Scratch acquired outside the kernel body; the body only indexes it.
void KernelWithScratch(Device* dev, CommandQueue* queue,
                       DeviceBuffer<double>& out, std::size_t rows) {
  ScratchBuffer tmp = dev->AcquireScratch(rows);
  queue->EnqueueLaunch(
      "fixture_kernel_scratch", rows, 1.0,
      std::tuple(Out(tmp, 0, rows), Out(out, 0, rows)),
      [](std::size_t begin, std::size_t end, double* t, double* b) {
        for (std::size_t i = begin; i < end; ++i) {
          t[i] = 1.0;
          b[i] = t[i];
        }
      });
}

}  // namespace fkde
