// fkde-lint fixture: streaming-lifecycle clean patterns. Mirrors the
// production serving loop of src/runtime/streaming_executor.cc: every
// StreamBegin is retired by StreamFeedback (or StreamRetire on the
// frozen path), and the quiesce happens only after the last ticket has
// retired.
#include "kde/kde_estimator.h"
#include "runtime/streaming_executor.h"

namespace fkde {

// The canonical depth-k serving loop: admit, deliver, feed back —
// every ticket retires before the function returns.
double ServeOne(KdeSelectivityEstimator* model, const Box& box,
                double truth) {
  const std::uint64_t ticket = model->StreamBegin(box);
  const double estimate = model->StreamDeliver(ticket);
  model->StreamFeedback(ticket, truth);
  return estimate;
}

// Frozen-model replay: retire without feedback is a retire too.
double ServeFrozen(KdeSelectivityEstimator* model, const Box& box) {
  const std::uint64_t ticket = model->StreamBegin(box);
  const double estimate = model->StreamDeliver(ticket);
  model->StreamRetire(ticket);
  return estimate;
}

// Serve, and only then quiesce for the snapshot — no ticket is
// statically open at the Quiesce call.
void ServeThenQuiesce(KdeSelectivityEstimator* model, const Box& box,
                      double truth) {
  const std::uint64_t ticket = model->StreamBegin(box);
  model->StreamDeliver(ticket);
  model->StreamFeedback(ticket, truth);
  model->Quiesce();
}

}  // namespace fkde
