#include "runtime/streaming_executor.h"

#include <algorithm>

#include "common/logging.h"
#include "common/rng.h"

namespace fkde {

StreamingExecutor::StreamingExecutor(DeviceGroup* group,
                                     StreamingOptions options)
    : group_(group), options_(options) {
  FKDE_CHECK(group != nullptr);
  FKDE_CHECK_MSG(options_.window >= 1, "window must be >= 1");
}

std::vector<double> StreamingExecutor::PoissonArrivals(
    std::size_t n, double offered_load_qps, std::uint64_t seed) {
  std::vector<double> arrivals(n, 0.0);
  if (offered_load_qps <= 0.0) return arrivals;  // Closed loop: all at t=0.
  Rng rng(seed);
  double t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    t += rng.Exponential(offered_load_qps);
    arrivals[i] = t;
  }
  return arrivals;
}

double StreamingExecutor::Now() const {
  return group_->MaxModeledSeconds() + advanced_ - start_s_;
}

void StreamingExecutor::AdvanceTo(double target) {
  const double now = Now();
  if (target <= now) return;
  group_->AdvanceHostTime(target - now);
  advanced_ += target - now;
}

void StreamingExecutor::Drain() {
  for (std::size_t i = 0; i < group_->size(); ++i) {
    group_->device(i)->default_queue()->Finish();
  }
}

Result<StreamingReport> StreamingExecutor::Run(
    KdeSelectivityEstimator* model, std::span<const StreamedQuery> queries) {
  if (model == nullptr) {
    return Status::InvalidArgument("model must be non-null");
  }
  const std::size_t n = queries.size();
  const std::vector<double> arrivals =
      PoissonArrivals(n, options_.offered_load_qps, options_.arrival_seed);

  // Counter baselines: the report is a delta over this run, so streamed
  // vs replay compare cleanly even on a warm group.
  const double modeled0 = group_->MaxModeledSeconds();
  const double stall0 = group_->TotalHostStallSeconds();
  advanced_ = 0.0;
  start_s_ = modeled0;
  // A classic estimate still awaiting feedback would sit at the head of
  // the ticket FIFO; retire it (and fold pending device passes) first.
  model->Quiesce();

  StreamingReport report;
  report.estimates.resize(n);
  report.latencies_s.resize(n);
  std::vector<std::uint64_t> tickets(n);

  // The deterministic admit/retire schedule: fill the window, then
  // alternate retire-oldest / admit-next until the tail drains. A pure
  // function of (arrival order, window) — never of modeled time — so the
  // pipelined and replay modes execute the same logical op sequence. The
  // window bounds the tickets in flight, and with them the model's slot
  // ring.
  std::size_t admitted = 0;
  std::size_t retired = 0;
  while (retired < n) {
    if (admitted < n && admitted - retired < options_.window) {
      // Open loop: the query does not exist before its arrival. (Closed
      // loop: arrivals are all 0 and this never advances.)
      AdvanceTo(arrivals[admitted]);
      tickets[admitted] = model->StreamBegin(queries[admitted].box);
      ++admitted;
      if (!options_.pipeline) Drain();
      continue;
    }
    const std::size_t k = retired;
    report.estimates[k] = model->StreamDeliver(tickets[k]);
    report.latencies_s[k] = Now() - arrivals[k];
    // The database executes query k while k+1..'s chains (and k's
    // pipelined gradient) crunch on the devices.
    if (options_.execution_seconds > 0.0) {
      AdvanceTo(Now() + options_.execution_seconds);
    }
    if (options_.feedback) {
      model->StreamFeedback(tickets[k], queries[k].truth);
    } else {
      model->StreamRetire(tickets[k]);
    }
    ++retired;
    if (!options_.pipeline) Drain();
  }

  // Drain before the report, so the span includes the tail's device
  // work, and release the window's extra ring slots.
  Drain();
  model->engine()->TrimRing();
  report.completed = n;
  report.span_s = Now();
  report.throughput_qps =
      report.span_s > 0.0 ? static_cast<double>(n) / report.span_s : 0.0;
  report.modeled_s = group_->MaxModeledSeconds() - modeled0;
  report.stall_s = group_->TotalHostStallSeconds() - stall0;
  report.idle_gap =
      report.modeled_s > 0.0 ? report.stall_s / report.modeled_s : 0.0;
  const CommandQueueStats queue_stats = group_->AggregateQueueStats();
  report.total_commands = queue_stats.total_commands;
  report.queue_depth_high_water = queue_stats.depth_high_water;
  return report;
}

Result<StreamingReport> StreamingExecutor::RunCatalog(
    ModelCatalog* catalog, const ModelKey& key,
    std::span<const StreamedQuery> queries, const StreamingOptions& options) {
  if (catalog == nullptr) {
    return Status::InvalidArgument("catalog must be non-null");
  }
  // Pin across the stream: another thread's budget enforcement must not
  // evict a model with tickets in flight (its quiesce would fault). The
  // per-entry serving lock is NOT held here — Open admits the model and
  // returns; the stream then drives the estimator directly, which is
  // safe because tickets are this thread's private state and eviction is
  // excluded by the pin.
  FKDE_RETURN_NOT_OK(catalog->Pin(key, true));
  FKDE_ASSIGN_OR_RETURN(KdeSelectivityEstimator * model, catalog->Open(key));
  StreamingExecutor executor(catalog->group(), options);
  Result<StreamingReport> report = executor.Run(model, queries);
  FKDE_RETURN_NOT_OK(catalog->Pin(key, false));
  return report;
}

}  // namespace fkde
