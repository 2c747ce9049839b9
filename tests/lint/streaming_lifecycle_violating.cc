// fkde-lint fixture: streaming-lifecycle violations. This TU is never
// compiled; it is analyzed by fkde-lint in `ctest -L lint` and mirrors
// client code driving the ticketed streaming API of
// KdeSelectivityEstimator (StreamBegin / StreamDeliver /
// StreamFeedback / StreamRetire).
// Expected diagnostics are pinned in
// streaming_lifecycle_violating.expected.
#include "kde/kde_estimator.h"
#include "runtime/streaming_executor.h"

namespace fkde {

// Admits a ticket and walks away: nothing on any path retires it, so
// its ring slot stays in flight and the next classic call or Quiesce
// aborts.
double LeakTicket(KdeSelectivityEstimator* model, const Box& box) {
  const std::uint64_t ticket = model->StreamBegin(box);
  return model->StreamDeliver(ticket);
}

// Quiesces between StreamBegin and the retire: Quiesce asserts no
// tickets are open, so this path fires the assert (or, worse, folds
// device state out from under an in-flight ticket).
double SnapshotMidFlight(KdeSelectivityEstimator* model, const Box& box,
                         double truth) {
  const std::uint64_t ticket = model->StreamBegin(box);
  const double estimate = model->StreamDeliver(ticket);
  model->Quiesce();
  model->StreamFeedback(ticket, truth);
  return estimate;
}

}  // namespace fkde
