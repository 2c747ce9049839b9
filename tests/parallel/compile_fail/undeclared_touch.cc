// Compile-fail case: a kernel body cannot touch a buffer its launch did
// not declare. `side` is captured but has no accessor, and the only way
// to its device memory is the private DeviceBuffer::device_data().
#include <cstddef>
#include <tuple>

#include "parallel/command_queue.h"
#include "parallel/device.h"

namespace fkde {

void Sum(CommandQueue* queue, const DeviceBuffer<double>& in,
         const DeviceBuffer<double>& side, DeviceBuffer<double>& out,
         std::size_t rows) {
  queue->EnqueueLaunch(
      "undeclared_touch", rows, 1.0,
      std::tuple(In(in, 0, rows), Out(out, 0, rows)),
      [&side](std::size_t begin, std::size_t end, const double* x,
              double* y) {
        for (std::size_t i = begin; i < end; ++i) {
#ifndef FKDE_WITHOUT_MISUSE
          y[i] = x[i] + side.device_data()[i];
#else
          y[i] = x[i] + static_cast<double>(side.size());
#endif
        }
      });
}

}  // namespace fkde
