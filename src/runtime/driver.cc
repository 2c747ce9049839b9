#include "runtime/driver.h"

#include <cmath>

namespace fkde {

namespace {

/// The database executes the query between estimate and feedback; on the
/// modeled timeline that is external host time, during which enqueued
/// device work keeps running.
void ModelQueryExecution(const RunOptions& options) {
  if (options.modeled_execution_s <= 0.0) return;
  if (options.device_group != nullptr) {
    // Every device in the group sees the same external wall time.
    options.device_group->AdvanceHostTime(options.modeled_execution_s);
  } else if (options.device != nullptr) {
    options.device->AdvanceHostTime(options.modeled_execution_s);
  }
}

}  // namespace

double RunStats::MeanAbsoluteError() const {
  if (absolute_errors.empty()) return 0.0;
  double total = 0.0;
  for (double e : absolute_errors) total += e;
  return total / static_cast<double>(absolute_errors.size());
}

RunStats FeedbackDriver::RunPrecomputed(SelectivityEstimator* estimator,
                                        std::span<const Query> workload,
                                        const RunOptions& options) {
  RunStats stats;
  stats.absolute_errors.reserve(workload.size());
  stats.signed_errors.reserve(workload.size());
  stats.truths.reserve(workload.size());
  for (const Query& query : workload) {
    const double estimate = estimator->EstimateSelectivity(query.box);
    ModelQueryExecution(options);
    if (options.feedback) {
      estimator->ObserveTrueSelectivity(query.box, query.selectivity);
    }
    stats.absolute_errors.push_back(std::abs(estimate - query.selectivity));
    stats.signed_errors.push_back(estimate - query.selectivity);
    stats.truths.push_back(query.selectivity);
  }
  return stats;
}

RunStats FeedbackDriver::RunLive(SelectivityEstimator* estimator,
                                 Executor* executor,
                                 std::span<const Box> queries,
                                 const RunOptions& options) {
  RunStats stats;
  stats.absolute_errors.reserve(queries.size());
  for (const Box& box : queries) {
    const double estimate = estimator->EstimateSelectivity(box);
    // The executor's scan runs on the host while the commands the
    // estimator just enqueued drain on the device queue — real overlap,
    // no synchronization until the estimator collects its events inside
    // ObserveTrueSelectivity.
    const double truth = executor->TrueSelectivity(box);
    ModelQueryExecution(options);
    if (options.feedback) estimator->ObserveTrueSelectivity(box, truth);
    stats.absolute_errors.push_back(std::abs(estimate - truth));
    stats.signed_errors.push_back(estimate - truth);
    stats.truths.push_back(truth);
  }
  return stats;
}

void FeedbackDriver::Train(SelectivityEstimator* estimator,
                           std::span<const Query> workload,
                           const RunOptions& options) {
  for (const Query& query : workload) {
    (void)estimator->EstimateSelectivity(query.box);
    ModelQueryExecution(options);
    estimator->ObserveTrueSelectivity(query.box, query.selectivity);
  }
}

Result<RunStats> FeedbackDriver::RunCatalog(ModelCatalog* catalog,
                                            const ModelKey& key,
                                            std::span<const Query> workload,
                                            const RunOptions& options) {
  if (catalog == nullptr) {
    return Status::InvalidArgument("catalog must be non-null");
  }
  RunOptions effective = options;
  if (effective.device_group == nullptr && effective.device == nullptr) {
    effective.device_group = catalog->group();
  }
  RunStats stats;
  stats.absolute_errors.reserve(workload.size());
  stats.signed_errors.reserve(workload.size());
  stats.truths.reserve(workload.size());
  for (const Query& query : workload) {
    FKDE_ASSIGN_OR_RETURN(const double estimate,
                          catalog->Estimate(key, query.box));
    ModelQueryExecution(effective);
    if (effective.feedback) {
      FKDE_RETURN_NOT_OK(
          catalog->Feedback(key, query.box, query.selectivity));
    }
    stats.absolute_errors.push_back(std::abs(estimate - query.selectivity));
    stats.signed_errors.push_back(estimate - query.selectivity);
    stats.truths.push_back(query.selectivity);
  }
  return stats;
}

Result<RunStats> FeedbackDriver::RunStreamed(
    KdeSelectivityEstimator* estimator, std::span<const Query> workload,
    const StreamingOptions& options, StreamingReport* report) {
  if (estimator == nullptr) {
    return Status::InvalidArgument("estimator must be non-null");
  }
  DeviceGroup* group = estimator->engine()->sample()->group();
  if (group == nullptr) {
    return Status::InvalidArgument(
        "streamed runs need a group-hosted estimator");
  }
  std::vector<StreamedQuery> queries(workload.size());
  for (std::size_t i = 0; i < workload.size(); ++i) {
    queries[i].box = workload[i].box;
    queries[i].truth = workload[i].selectivity;
  }
  StreamingExecutor executor(group, options);
  FKDE_ASSIGN_OR_RETURN(StreamingReport streamed,
                        executor.Run(estimator, queries));
  RunStats stats;
  stats.absolute_errors.reserve(workload.size());
  stats.signed_errors.reserve(workload.size());
  stats.truths.reserve(workload.size());
  for (std::size_t i = 0; i < workload.size(); ++i) {
    stats.absolute_errors.push_back(
        std::abs(streamed.estimates[i] - workload[i].selectivity));
    stats.signed_errors.push_back(streamed.estimates[i] -
                                  workload[i].selectivity);
    stats.truths.push_back(workload[i].selectivity);
  }
  if (report != nullptr) *report = std::move(streamed);
  return stats;
}

}  // namespace fkde
