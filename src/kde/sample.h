/// \file sample.h
/// \brief Device-resident data sample (paper Section 5.1/5.2), optionally
/// sharded across a `DeviceGroup`.
///
/// The sample is the memory-dominant part of a KDE model, stored in
/// single precision on the device. Every shard holds its rows in one
/// layout: dim-major strips, coordinate j of local row i at
/// `x[j * stride() + i]`, with the strip pitch fixed at the full
/// capacity so rebalancing never restructures strips. The kernels read
/// each dimension as one contiguous strip (the 8-wide AVX2 lanes load
/// eight points per instruction), and sample maintenance still replaces
/// one point with a single d-float transfer: the paper's row-major
/// layout exists for exactly that, and a rectangular copy
/// (`Device::CopyRectToDevice`, OpenCL's `clEnqueueWriteBufferRect`)
/// keeps it with the row scattered across the strips.
///
/// Loading the sample at ANALYZE time is the only bulk transfer the
/// estimator ever performs; everything afterwards is query bounds,
/// scalars, and replaced rows. The host transposes its row-major staging
/// to and from strips, so every load, gather and migration moves the
/// same bytes in the same number of transfers as a row-major layout.
///
/// ## Sharding (Section 5.4 past one device's ceiling)
///
/// Constructed over a `DeviceGroup`, the sample splits into one shard per
/// device: shard i holds a contiguous run of rows resident on device i,
/// and the engine runs every hot path per-shard concurrently, folding the
/// partials on the host. Rows keep a stable *global slot* (what
/// `ReplaceRow`/Karma/reservoir address); a host-side slot map routes a
/// global slot to its current (shard, local-row) home.
///
/// The partition is self-tuning: initial shard sizes follow the group's
/// modeled-throughput weights, then `ObserveShardSeconds` feeds measured
/// per-shard completion times into an EWMA of per-shard throughput and
/// `MaybeRebalance` periodically migrates rows from slow to fast shards.
/// Migration moves rows over the bus through ordinary metered transfers
/// (donor read-back + receiver upload), so the `TransferLedger` story
/// stays honest. Each migration bumps `migration_epoch()`; consumers
/// caching per-slot device state (Karma bitmaps, point scales) must
/// refresh when the epoch moves.

#ifndef FKDE_KDE_SAMPLE_H_
#define FKDE_KDE_SAMPLE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "data/table.h"
#include "parallel/device.h"
#include "parallel/device_group.h"

namespace fkde {

/// \brief Fixed-capacity sample of table rows resident on one device or
/// sharded across a device group.
class DeviceSample {
 public:
  /// Allocates an empty single-shard sample of `capacity` rows with
  /// `dims` attributes on `device`.
  DeviceSample(Device* device, std::size_t capacity, std::size_t dims);

  /// Allocates an empty sample sharded across `group` (one shard per
  /// device). Every shard is allocated at full capacity so rebalancing
  /// migrates rows without reallocating device memory.
  DeviceSample(DeviceGroup* group, std::size_t capacity, std::size_t dims);

  /// Draws a uniform random sample (without replacement) of up to
  /// `capacity()` rows from `table` and uploads it in one transfer per
  /// shard. Returns FailedPrecondition on an empty table.
  Status LoadFromTable(const Table& table, Rng* rng);

  /// Uploads explicit rows (row-major doubles, rows*dims values) in one
  /// transfer per shard; the sample size becomes `rows`.
  Status LoadRows(std::span<const double> rows_data, std::size_t rows);

  /// Uploads explicit rows (row-major doubles in GLOBAL-SLOT order) into
  /// an EXPLICIT shard layout: `shard_slots[i]` lists, in local-row
  /// order, the global slots resident on shard i. Unlike `LoadRows`,
  /// which re-apportions rows by the group's initial weights, this
  /// reproduces a saved post-migration placement exactly — the snapshot
  /// warm-restart path. Every global slot in [0, rows) must appear
  /// exactly once across the shards.
  Status LoadShardLayout(
      std::span<const double> rows_data, std::size_t rows,
      const std::vector<std::vector<std::uint32_t>>& shard_slots);

  /// Per-shard global-slot residency, local-row ordered — the layout
  /// `LoadShardLayout` consumes (snapshot serialization).
  std::vector<std::vector<std::uint32_t>> ShardSlots() const;

  /// Restores the throughput EWMAs and the rebalance pass counter saved
  /// from another sample (snapshot warm restart), so the self-tuning
  /// partitioner resumes the saved trajectory. `rates` arity must match
  /// the shard count.
  Status RestoreRates(std::span<const double> rates,
                      std::size_t observed_passes);

  /// Replaces the row at global slot `slot` with `row` using a single
  /// d-float transfer to whichever shard currently hosts the slot (the
  /// Karma/reservoir replacement path).
  void ReplaceRow(std::size_t slot, std::span<const double> row);

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }
  std::size_t dims() const { return dims_; }
  bool empty() const { return size_ == 0; }

  /// Primary device (shard 0). Single-shard callers see the pre-sharding
  /// behavior unchanged.
  Device* device() const { return shards_[0].device; }

  /// Owning group; nullptr for a single-device sample.
  DeviceGroup* group() const { return group_; }

  std::size_t num_shards() const { return shards_.size(); }
  Device* shard_device(std::size_t shard) const {
    return shards_[shard].device;
  }
  std::size_t shard_size(std::size_t shard) const {
    return shards_[shard].size;
  }
  /// Device storage of one shard: dim-major strips, coordinate j of
  /// local row i at `[j * stride() + i]` (shard_size live rows per
  /// strip). For kernel functors.
  const DeviceBuffer<float>& shard_buffer(std::size_t shard) const {
    return shards_[shard].buffer;
  }

  /// Shard-0 storage — the whole sample for single-shard callers.
  const DeviceBuffer<float>& buffer() const { return shards_[0].buffer; }

  /// Strip pitch of every shard, in elements: the full capacity, so
  /// rebalancing never restructures strips.
  std::size_t stride() const { return capacity_; }

  /// Global slot currently held by local row `local` of `shard`.
  std::size_t GlobalSlot(std::size_t shard, std::size_t local) const {
    return shards_[shard].global_ids[local];
  }

  /// Current (shard, local row) home of global slot `slot`.
  std::pair<std::size_t, std::size_t> LocateSlot(std::size_t slot) const {
    return {slot_map_[slot].first, slot_map_[slot].second};
  }

  /// Reads one sample row back to the host (a metered transfer). Intended
  /// for tests and diagnostics, not the hot path.
  std::vector<double> ReadRow(std::size_t slot);

  /// Reads the whole sample back in global-slot order (one metered
  /// transfer per shard). Construction-time consumers only (SCV bandwidth
  /// selection, variable-KDE pilot) — never the per-query path.
  std::vector<double> GatherRows();

  /// Feeds one estimate pass's measured per-shard busy-seconds into the
  /// per-shard throughput EWMAs (entries <= 0 or empty shards are
  /// skipped). Called by the engine after every folded pass.
  void ObserveShardSeconds(std::span<const double> busy_seconds);

  /// Rebalances shard sizes toward the measured-throughput proportions if
  /// enough passes were observed and the deviation exceeds the trigger.
  /// Returns true when rows migrated (and `migration_epoch` advanced).
  /// Engine-called between queries, never while work is enqueued on the
  /// shards being resized.
  bool MaybeRebalance();

  /// Bumped once per migrating rebalance. Consumers caching per-slot
  /// device state refresh when this moves.
  std::uint64_t migration_epoch() const { return migration_epoch_; }

  /// Total rows moved across devices by rebalancing.
  std::uint64_t rows_migrated() const { return rows_migrated_; }

  std::vector<std::size_t> shard_sizes() const;

  /// Measured per-shard throughput EWMAs, rows/busy-second (0 until the
  /// first observation).
  std::vector<double> shard_rates() const;

  /// Estimate passes whose shard timings have been observed so far — the
  /// rebalance counter `RestoreRates` re-installs on warm restart.
  std::size_t observed_passes() const { return observed_passes_; }

  /// Model bytes consumed by the sample payload.
  std::size_t PayloadBytes() const { return size_ * dims_ * sizeof(float); }

 private:
  struct Shard {
    Device* device = nullptr;
    DeviceBuffer<float> buffer;
    std::size_t size = 0;
    /// local row -> global slot.
    std::vector<std::uint32_t> global_ids;
    /// Throughput EWMA, rows/busy-second; 0 = unmeasured.
    double rate_ewma = 0.0;
  };

  /// Splits `rows` into per-shard targets proportional to `weights`
  /// (largest-remainder rounding, then a min_shard_rows floor).
  std::vector<std::size_t> Apportion(std::size_t rows,
                                     const std::vector<double>& weights) const;

  /// The initial layout of `rows` rows: contiguous global-slot runs sized
  /// by the group's initial weights.
  std::vector<std::vector<std::uint32_t>> InitialLayout(
      std::size_t rows) const;

  /// Installs `shard_slots` as the layout and uploads every shard's
  /// strips in one transfer, staging coordinate j of global slot g as
  /// `value(g, j)`.
  template <typename ValueFn>
  void UploadLayout(std::size_t rows,
                    const std::vector<std::vector<std::uint32_t>>& shard_slots,
                    ValueFn value);

  /// Moves the last `count` rows of shard `from` to the end of shard `to`
  /// through metered transfers, updating the slot map.
  void MigrateRows(std::size_t from, std::size_t to, std::size_t count);

  DeviceGroup* group_ = nullptr;
  std::size_t capacity_;
  std::size_t dims_;
  std::size_t size_ = 0;
  std::vector<Shard> shards_;
  /// global slot -> (shard, local row).
  std::vector<std::pair<std::uint32_t, std::uint32_t>> slot_map_;
  std::uint64_t migration_epoch_ = 0;
  std::uint64_t rows_migrated_ = 0;
  std::size_t observed_passes_ = 0;
};

}  // namespace fkde

#endif  // FKDE_KDE_SAMPLE_H_
