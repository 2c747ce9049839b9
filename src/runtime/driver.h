/// \file driver.h
/// \brief Feedback-loop driver: the evaluation protocol of Section 6.
///
/// For each query the driver (1) asks the estimator for a selectivity,
/// (2) "executes" the query to obtain the truth, (3) feeds the truth back
/// (self-tuning estimators adapt here), and (4) records the absolute
/// estimation error |p̂ - p| — the paper's quality metric.
///
/// Step (2) is where the paper's overlap happens: work the estimator
/// enqueued during step (1) — the adaptive gradient pass, the previous
/// query's Karma scoring — executes on the device while the database
/// executes the query. `RunOptions::modeled_execution_s` advances the
/// device's modeled host clock across step (2) so the modeled timeline
/// reflects that concurrency (`Device::AdvanceHostTime`; the external
/// time itself is excluded from `ModeledSeconds()`). In `RunLive` the
/// executor's scan genuinely runs concurrently with the enqueued device
/// commands — there is no synchronization point between the estimate and
/// the feedback.

#ifndef FKDE_RUNTIME_DRIVER_H_
#define FKDE_RUNTIME_DRIVER_H_

#include <span>
#include <vector>

#include "common/stats.h"
#include "estimator/estimator.h"
#include "parallel/device.h"
#include "parallel/device_group.h"
#include "runtime/catalog.h"
#include "runtime/executor.h"
#include "runtime/streaming_executor.h"
#include "workload/workload.h"

namespace fkde {

/// \brief Per-workload error record.
struct RunStats {
  /// |estimate - truth| per query, in execution order.
  std::vector<double> absolute_errors;
  /// Signed (estimate - truth) per query.
  std::vector<double> signed_errors;
  /// Truths per query (for relative metrics downstream).
  std::vector<double> truths;

  double MeanAbsoluteError() const;
  Summary AbsoluteErrorSummary() const { return Summarize(absolute_errors); }
};

/// \brief Knobs of one driver run.
struct RunOptions {
  /// Feed the truth back after each query (false = frozen model).
  bool feedback = true;
  /// When set, `modeled_execution_s` of external query-execution time is
  /// applied between each estimate and its feedback via
  /// `device->AdvanceHostTime` — the window that hides enqueued device
  /// work on the modeled timeline.
  Device* device = nullptr;
  /// Multi-device variant of `device`: the execution window advances every
  /// device in the group (takes precedence when both are set).
  DeviceGroup* device_group = nullptr;
  /// Modeled wall time of executing one query in the database, seconds.
  double modeled_execution_s = 0.0;
};

/// \brief Runs workloads through estimators with query feedback.
class FeedbackDriver {
 public:
  /// The queries carry their exact selectivity from generation time (the
  /// table must be unchanged since), so no re-execution is needed.
  static RunStats RunPrecomputed(SelectivityEstimator* estimator,
                                 std::span<const Query> workload,
                                 const RunOptions& options = {});

  /// Runs a workload computing the truth against the live table via
  /// `executor` (used when the table mutates between queries).
  static RunStats RunLive(SelectivityEstimator* estimator,
                          Executor* executor, std::span<const Box> queries,
                          const RunOptions& options = {});

  /// Feeds a training workload (estimate + feedback) without recording —
  /// the warm-up used to let self-tuning estimators (Adaptive, STHoles)
  /// absorb the training phase that Batch receives explicitly.
  static void Train(SelectivityEstimator* estimator,
                    std::span<const Query> workload,
                    const RunOptions& options = {});

  /// Runs a precomputed workload through one catalog-served model: the
  /// serving analogue of RunPrecomputed, where residency (lazy build,
  /// eviction, fault-back) is the catalog's business. When
  /// `options.device_group` is unset, the catalog's group is used for the
  /// modeled execution window.
  static Result<RunStats> RunCatalog(ModelCatalog* catalog,
                                     const ModelKey& key,
                                     std::span<const Query> workload,
                                     const RunOptions& options = {});

  /// Streamed analogue of RunPrecomputed: keeps `options.window` queries
  /// in flight through a `StreamingExecutor` (the estimator must be
  /// hosted on a DeviceGroup) and reports errors in arrival order.
  /// `report`, when non-null, receives the timing/throughput report.
  static Result<RunStats> RunStreamed(KdeSelectivityEstimator* estimator,
                                      std::span<const Query> workload,
                                      const StreamingOptions& options = {},
                                      StreamingReport* report = nullptr);
};

}  // namespace fkde

#endif  // FKDE_RUNTIME_DRIVER_H_
