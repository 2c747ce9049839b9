// fkde-lint fixture: cross-TU hot-alloc violation. The kernel body calls
// WeightFromTable, which is DEFINED in cross_tu_helper.cc — a different
// TU — and allocates there. Analyzed alone, the callee is opaque and the
// per-TU analyzer must stay conservative (no finding: see
// lint_cross_tu_per_tu_opaque). With the helper's summary linked in
// (whole-program or --summaries), the callee's facts say it allocates
// and the call inside the kernel is caught. Expected diagnostics for
// the linked run are pinned in cross_tu_violating.expected.
#include <tuple>

#include "parallel/command_queue.h"
#include "parallel/device.h"

namespace fkde {

double WeightFromTable(double x);

void WeightedEstimate(CommandQueue* queue, const DeviceBuffer<double>& in,
                      DeviceBuffer<double>& out, std::size_t rows) {
  queue->EnqueueLaunch(
      "fixture_cross_tu", rows, 1.0,
      std::tuple(In(in, 0, rows), Out(out, 0, rows)),
      [](std::size_t begin, std::size_t end, const double* x, double* y) {
        for (std::size_t i = begin; i < end; ++i) {
          y[i] = WeightFromTable(x[i]);
        }
      });
}

}  // namespace fkde
