// fkde-lint fixture: cross-TU hot-alloc clean pattern. Same launch as
// cross_tu_violating.cc, but the kernel calls WeightInline, whose
// linked summary (cross_tu_helper.cc) records no allocation — so the
// whole-program analysis has nothing to flag.
#include <tuple>

#include "parallel/command_queue.h"
#include "parallel/device.h"

namespace fkde {

double WeightInline(double x);

void WeightedEstimate(CommandQueue* queue, const DeviceBuffer<double>& in,
                      DeviceBuffer<double>& out, std::size_t rows) {
  queue->EnqueueLaunch(
      "fixture_cross_tu_clean", rows, 1.0,
      std::tuple(In(in, 0, rows), Out(out, 0, rows)),
      [](std::size_t begin, std::size_t end, const double* x, double* y) {
        for (std::size_t i = begin; i < end; ++i) {
          y[i] = WeightInline(x[i]);
        }
      });
}

}  // namespace fkde
