// Compile-fail case: an accessor the body never uses is a stale
// declaration. Every accessor hands the body a parameter, so the stale
// one is an unused parameter, an error under -Werror=unused-parameter
// (the project builds with -Wall -Wextra -Werror).
#include <cstddef>
#include <tuple>

#include "parallel/command_queue.h"
#include "parallel/device.h"

namespace fkde {

void Copy(CommandQueue* queue, const DeviceBuffer<double>& in,
          const DeviceBuffer<double>& old_weights, DeviceBuffer<double>& out,
          std::size_t rows) {
  queue->EnqueueLaunch(
      "stale_declaration", rows, 1.0,
      std::tuple(In(in, 0, rows), In(old_weights, 0, rows),
                 Out(out, 0, rows)),
      [](std::size_t begin, std::size_t end, const double* x,
         const double* weights, double* y) {
        for (std::size_t i = begin; i < end; ++i) {
#ifndef FKDE_WITHOUT_MISUSE
          y[i] = x[i];
#else
          y[i] = x[i] * weights[i];
#endif
        }
      });
}

}  // namespace fkde
