// Compile-fail case: a kernel launched with no declared access set (the
// span form, opaque to the hazard checker) cannot reach device memory.
#include <cstddef>

#include "parallel/command_queue.h"
#include "parallel/device.h"

namespace fkde {

void Clear(CommandQueue* queue, DeviceBuffer<double>& out,
           std::size_t rows) {
#ifndef FKDE_WITHOUT_MISUSE
  queue->EnqueueLaunch("opaque_body", rows, 1.0,
                       [&out](std::size_t begin, std::size_t end) {
                         for (std::size_t i = begin; i < end; ++i) {
                           out.device_data()[i] = 0.0;
                         }
                       });
#else
  queue->EnqueueLaunch("declared_body", rows, 1.0,
                       std::tuple(Out(out, 0, rows)),
                       [](std::size_t begin, std::size_t end, double* y) {
                         for (std::size_t i = begin; i < end; ++i) {
                           y[i] = 0.0;
                         }
                       });
#endif
}

}  // namespace fkde
