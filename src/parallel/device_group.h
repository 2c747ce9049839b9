/// \file device_group.h
/// \brief A group of execution devices acting as one logical accelerator.
///
/// The paper evaluates its estimator on a single OpenCL device (Section
/// 5.4 / Figure 7 show throughput scaling linearly in sample size until
/// that device saturates). A `DeviceGroup` is the step past the ceiling:
/// it owns N devices (any mix of `OpenClCpu` / `SimulatedGtx460`
/// profiles) over one shared thread pool, and the KDE layer shards the
/// device-resident sample across them (see kde/sample.h). Each device
/// keeps its own in-order `CommandQueue` and dispatcher thread, so
/// per-shard kernels enqueued back-to-back on different devices really
/// execute — and are modeled — concurrently; the group-level modeled time
/// of a blocking pass is the max over the member devices' clocks.
///
/// Partitioning is self-tuning in the paper's spirit: `InitialWeights()`
/// seeds shard sizes proportional to each profile's modeled compute
/// throughput, and the sharded sample keeps an EWMA of measured per-shard
/// throughput to rebalance shard boundaries at runtime
/// (`DeviceGroupOptions` below tunes that loop).

#ifndef FKDE_PARALLEL_DEVICE_GROUP_H_
#define FKDE_PARALLEL_DEVICE_GROUP_H_

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "parallel/device.h"
#include "parallel/thread_pool.h"

namespace fkde {

/// \brief Tuning knobs of the self-balancing shard partitioner.
struct DeviceGroupOptions {
  /// Explicit initial shard weights (one per device, any positive scale).
  /// Empty: weight by `DeviceProfile::compute_throughput`.
  std::vector<double> initial_weights;

  /// Enables runtime rebalancing from measured per-shard throughput.
  bool rebalance = true;

  /// EWMA smoothing factor for measured per-shard throughput
  /// (rows/busy-second): `rate = alpha * sample + (1 - alpha) * rate`.
  double ewma_alpha = 0.3;

  /// Number of observed estimate passes between rebalance checks.
  std::size_t rebalance_interval = 8;

  /// Relative shard-size deviation from target that triggers migration;
  /// below it the partition is considered converged (hysteresis so the
  /// balancer does not thrash rows over the bus).
  double rebalance_trigger = 0.05;

  /// No shard shrinks below this many rows (when the sample has them),
  /// keeping every device warm enough to measure.
  std::size_t min_shard_rows = 64;

  /// Hazard checking for the whole group: one shared `HazardChecker`
  /// attached to every member device, so cross-device wait-list edges
  /// resolve against a single command DAG. `kOff` defers to the
  /// per-device `HAZARD_STRICT=1` environment toggle — but a group
  /// promotes even env-attached per-device checkers to one shared
  /// checker (per-device DAGs cannot order cross-device edges).
  HazardMode hazard_mode = HazardMode::kOff;
};

/// \brief Owns N devices that jointly host one sharded KDE model.
///
/// Group-level accessors fold the member devices' modeled clocks and
/// ledgers: a blocking multi-device pass costs the *max* of the member
/// host timelines (each device has its own dispatcher; submissions to
/// different queues overlap), while ledger counters are sums.
class DeviceGroup {
 public:
  explicit DeviceGroup(const std::vector<DeviceProfile>& profiles,
                       DeviceGroupOptions options = {},
                       ThreadPool* pool = &ThreadPool::Global());

  DeviceGroup(const DeviceGroup&) = delete;
  DeviceGroup& operator=(const DeviceGroup&) = delete;

  std::size_t size() const { return devices_.size(); }
  Device* device(std::size_t i) const { return devices_[i].get(); }
  const DeviceGroupOptions& options() const { return options_; }

  /// The group-wide hazard checker shared by every member device, or
  /// nullptr when checking is off.
  HazardChecker* hazard_checker() const { return hazard_checker_.get(); }

  /// Initial shard weights, normalized to sum 1: `options.initial_weights`
  /// when set, else each device's modeled `compute_throughput`.
  std::vector<double> InitialWeights() const;

  /// Max over member devices' `ModeledSeconds()` — the group-level cost of
  /// a blocking pass (per-device submissions overlap across queues).
  double MaxModeledSeconds() const;

  /// Sum of member devices' `HostStallSeconds()`.
  double TotalHostStallSeconds() const;

  /// Element-wise sum of member ledgers.
  TransferLedger AggregateLedger() const;

  /// Element-wise sum of member scratch-pool counters — the group's
  /// reclaimable (`pooled_bytes`) and in-use (`outstanding`) scratch
  /// footprint, which the model catalog folds into its device-memory
  /// budget accounting.
  BufferPoolStats AggregateScratchStats() const;

  /// Folds the member queues' occupancy counters: `total_commands` and
  /// `dispatcher_wait_s` sum, `depth_high_water` and `pending` take the
  /// max — one command deep everywhere means the pipeline never filled,
  /// regardless of how many devices it failed to fill on. The summed
  /// wait is starvation only (a member queue with nothing pending and
  /// nothing running), not time a waiting host ran that queue's commands.
  CommandQueueStats AggregateQueueStats() const;

  /// Frees every parked scratch buffer on every member device — the
  /// cheap first response to budget pressure, tried before any model is
  /// evicted (outstanding handles are unaffected).
  void TrimScratchPools();

  /// Advances every member's host clock (external work covers all
  /// devices' enqueued passes at once — there is one host).
  void AdvanceHostTime(double seconds);

  void ResetModeledTime();
  void ResetLedger();

 private:
  DeviceGroupOptions options_;
  /// Declared before the devices: member queues drain (and notify the
  /// checker) during device destruction.
  std::shared_ptr<HazardChecker> hazard_checker_;
  std::vector<std::unique_ptr<Device>> devices_;
};

/// \brief Parses a device-group topology spec: '+'-separated profile names
/// from `harness`-style vocabulary, e.g. "gpu", "cpu+gpu", "gpu+gpu".
/// Names: "cpu" -> `OpenClCpu`, "gpu" -> `SimulatedGtx460`.
Result<std::vector<DeviceProfile>> ParseDeviceTopology(
    const std::string& spec);

}  // namespace fkde

#endif  // FKDE_PARALLEL_DEVICE_GROUP_H_
