/// \file streaming_executor.h
/// \brief Sustained-traffic serving: N queries in flight per estimator.
///
/// The feedback driver (driver.h) serves one query at a time: estimate,
/// modeled execution window, feedback, repeat. On the modeled timeline
/// most of that cycle is the host waiting — the estimate's read-back
/// stall plus the execution window — while the device sits idle between
/// chains. `StreamingExecutor` closes the gap by keeping a bounded
/// admission window of N queries in flight against one
/// `KdeSelectivityEstimator`: query k+1's estimate chain is enqueued
/// (onto the per-device in-order queues, into its own descriptor ring
/// slot) while query k's gradient collection and Karma feedback are
/// still pending on the device. Completion is tracked per query through
/// the slot's read-back `Event`s, and delivery/feedback retire strictly
/// FIFO.
///
/// ## Determinism and the replay contract
///
/// The schedule is a pure function of the arrival order and the window
/// size — admit while a slot is free, otherwise retire the oldest —
/// never of modeled time, and modeled time never feeds back into the
/// math. Setting `StreamingOptions::pipeline = false` replays the SAME
/// logical op sequence with a full device drain after every admission
/// and retirement: genuinely serial execution, identical estimates, bit
/// for bit. That pair is the correctness pin for the overlap (verified
/// under the strict hazard checker); the throughput win is the modeled
/// span shrinking toward max(device busy time, arrival spacing) as the
/// per-query stalls vanish.
///
/// ## Open-loop traffic
///
/// `PoissonArrivals` precomputes an open-loop arrival schedule at a
/// configured offered load; admission paces the modeled clock to each
/// query's arrival (`Device::AdvanceHostTime` — external wall time, like
/// the driver's execution window), and per-query modeled latency is
/// delivery time minus arrival time. With `offered_load_qps == 0` the
/// stream is closed-loop: every query is ready at t=0 and the span
/// measures peak sustainable throughput.

#ifndef FKDE_RUNTIME_STREAMING_EXECUTOR_H_
#define FKDE_RUNTIME_STREAMING_EXECUTOR_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "data/box.h"
#include "kde/kde_estimator.h"
#include "parallel/device_group.h"
#include "runtime/catalog.h"

namespace fkde {

/// \brief Knobs of one streamed run.
struct StreamingOptions {
  /// In-flight queries per estimator (the descriptor-ring depth). 1
  /// degenerates to the classic one-at-a-time cycle.
  std::size_t window = 4;
  /// false = serial replay: same op order, full drain after every step.
  /// The streamed run of the same schedule is bitwise-identical.
  bool pipeline = true;
  /// Modeled wall time the database spends executing each query between
  /// its delivery and its feedback (the paper's overlap window).
  double execution_seconds = 0.0;
  /// Apply the true selectivity after each delivery (false = frozen
  /// model; tickets still retire).
  bool feedback = true;
  /// Open-loop offered load; 0 = closed loop (all queries ready at t=0).
  double offered_load_qps = 0.0;
  /// Seed of the Poisson arrival process.
  std::uint64_t arrival_seed = 42;
};

/// \brief One query of a streamed workload.
struct StreamedQuery {
  Box box;
  double truth = 0.0;
};

/// \brief Outcome of one streamed run, on the modeled timeline.
struct StreamingReport {
  /// Clamped estimates, arrival order (the bitwise-comparison payload).
  std::vector<double> estimates;
  /// Per-query modeled latency: delivery time - arrival time.
  std::vector<double> latencies_s;
  std::size_t completed = 0;
  /// Modeled makespan from run start to the final drain.
  double span_s = 0.0;
  double throughput_qps = 0.0;  ///< completed / span_s.
  /// Group modeled-time deltas over the run.
  double modeled_s = 0.0;
  double stall_s = 0.0;
  double idle_gap = 0.0;  ///< stall_s / modeled_s — the steady-state gap.
  /// Queue occupancy over the run (group fold; high-water is a max and
  /// is NOT delta-adjusted, so compare runs on fresh groups).
  std::uint64_t total_commands = 0;
  std::size_t queue_depth_high_water = 0;
};

/// \brief Drives one estimator with a bounded window of in-flight queries.
class StreamingExecutor {
 public:
  /// `group` is the device group the estimator's sample lives on; it
  /// provides the modeled clock, the drain points and the idle-gap
  /// counters. Must outlive the executor.
  StreamingExecutor(DeviceGroup* group, StreamingOptions options);

  /// Streams `queries` through `model`: quiesces it (retiring a classic
  /// estimate still awaiting feedback), runs the deterministic
  /// admit/retire schedule with at most `options.window` tickets in
  /// flight, drains the queues, trims the model's slot ring and reports.
  /// Every ticket is retired on return, so the model is ready for
  /// classic serving.
  Result<StreamingReport> Run(KdeSelectivityEstimator* model,
                              std::span<const StreamedQuery> queries);

  /// Catalog-served variant: opens and PINS the model (so a concurrent
  /// thread's budget enforcement cannot evict mid-stream — eviction
  /// quiesce would fault on in-flight tickets), streams, unpins.
  static Result<StreamingReport> RunCatalog(
      ModelCatalog* catalog, const ModelKey& key,
      std::span<const StreamedQuery> queries,
      const StreamingOptions& options);

  /// Open-loop Poisson arrival schedule: n exponential inter-arrival
  /// gaps at `offered_load_qps`, cumulated, seconds from run start.
  static std::vector<double> PoissonArrivals(std::size_t n,
                                             double offered_load_qps,
                                             std::uint64_t seed);

  const StreamingOptions& options() const { return options_; }

 private:
  /// Max host position across the group, relative to run start:
  /// ModeledSeconds folds enqueue overhead and stalls; external advances
  /// (arrival pacing, execution windows) are tracked in `advanced_`.
  double Now() const;
  /// Advances the modeled clock to `target` (external wall time on every
  /// device); no-op when the clock is already past it.
  void AdvanceTo(double target);
  /// Waits out every device queue (replay-mode serialization point and
  /// the end of a run).
  void Drain();

  DeviceGroup* group_;
  StreamingOptions options_;
  double advanced_ = 0.0;
  double start_s_ = 0.0;
};

}  // namespace fkde

#endif  // FKDE_RUNTIME_STREAMING_EXECUTOR_H_
