/// \file probes.h
/// \brief Per-layer probes: each times calls into one module's public
/// functions on a probe object built from the workload's inputs, so the
/// served model's state is untouched.

#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <span>
#include <vector>

#include "bench.h"
#include "kde/kde_estimator.h"
#include "runtime/streaming_executor.h"
#include "workload/workload.h"

namespace perfbench {

/// Builds a model on `group`; counts the attempt (a failure returns null).
std::unique_ptr<fkde::KdeSelectivityEstimator> BuildModel(
    fkde::KdeSelectivityEstimator::Mode mode, fkde::DeviceGroup* group,
    const fkde::Table* table, const fkde::KdeConfig& config, Tally* tally);

/// The model a workload serves, as inputs for building probe copies.
struct ProbeSpec {
  fkde::KdeSelectivityEstimator::Mode mode;
  fkde::KdeConfig config;
  std::vector<fkde::DeviceProfile> profiles;
  const fkde::Table* table;
  std::span<const fkde::Query> queries;
  bool feedback;
};

/// `StreamingReport` fields summed over runs -> the `stream.*` metrics.
struct StreamTotals {
  double modeled_s = 0.0;
  double stall_s = 0.0;
  double span_s = 0.0;
  std::uint64_t commands = 0;
  std::size_t completed = 0;
  std::size_t depth_high_water = 0;

  void Add(const fkde::StreamingReport& report);
  void Report(MetricMap* layers) const;
};

/// Runs the probes every workload shares: command queue, thread pool and
/// reduction, kernel backends, engine, estimator, snapshot, and (when
/// `catalog` / `stream` is set) a probe catalog and a probe stream for
/// workloads that do not serve through those layers themselves.
void RunCommonProbes(const ProbeSpec& spec, Tracer* tracer, Tally* tally,
                     double budget_s, bool catalog, bool stream,
                     MetricMap* layers);

/// Layer counters of the reference rounds (`wall_s` = their wall time):
/// queue, ledger, scratch pool, idle gap and Karma rates per query.
void RoundLayerMetrics(const RoundModel& model, double wall_s,
                       std::size_t devices, MetricMap* layers);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
