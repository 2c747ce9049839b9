/// \file catalog.h
/// \brief Multi-model serving: many KDE models on one shared device group.
///
/// A database does not keep one selectivity model — it keeps one per
/// (table, column-set) that ANALYZE has seen, all sharing the one
/// accelerator. In the paper's Postgres integration this is the
/// `pg_kdemodels` catalog relation plus the in-memory model directory:
/// models are built at ANALYZE time, persisted, reloaded lazily on first
/// use, and dropped when memory runs short. `ModelCatalog` is that layer:
///
///  * **Lifecycle** — `Register` declares a model spec under a `ModelKey`;
///    the estimator itself is built lazily on the first query ("open"),
///    and `Drop` removes it. Per-model `ModelStats` count queries served,
///    feedback observations applied, evictions, faults and the model's
///    device footprint.
///  * **Two tiers** — a model is *resident* (a live estimator on the
///    group's devices) or *parked* (its `SavedModel`, the decoded state
///    of kde/snapshot.h, in host memory). Eviction captures a resident
///    model and parks it; a fault rebuilds it from the parked state. A
///    rebuilt model is bitwise-faithful (same estimate bits, same
///    Karma/bandwidth decisions), so serving quality never depends on
///    residency history.
///  * **Persistence** — the snapshot codec runs only at the process
///    boundary: `SaveSnapshot` encodes (a resident model is captured
///    first), and `RegisterFromSnapshot` decodes and checks once, then
///    parks.
///  * **Admission & eviction** — `CatalogOptions::device_budget_bytes`
///    bounds the models' aggregate device footprint. On pressure the
///    catalog first trims the group's parked scratch buffers (free
///    memory, no model impact), then evicts least-recently-used
///    non-pinned models: quiesce, capture, park, destroy. An evicted
///    model faults back transparently on its next query.
///
/// All models are tenants of ONE `DeviceGroup`: their per-query passes
/// interleave on the shared in-order queues, which is safe because every
/// engine pass declares its buffer access-sets (hazard checker) and each
/// model's buffers are disjoint.
///
/// ## Lock discipline (multi-threaded serving)
///
/// Multiple client threads may drive one catalog concurrently. Two lock
/// levels, never inverted:
///
///  * `registry_mu_` guards ONLY the key → entry map (register, drop,
///    lookup, iteration). It is never held across model work.
///  * each entry's `mu` serializes that one model's build / serve /
///    snapshot / evict. Admission onto the shared device queues happens
///    under it, so one model's command chains enqueue in program order
///    (per-model estimates stay deterministic); different models'
///    chains interleave freely on the in-order queues.
///
/// Blocking on an entry `mu` while holding `registry_mu_` or another
/// entry's `mu` is forbidden — budget enforcement walks victims with
/// `try_lock` and simply skips models another thread is serving.
/// Cross-thread-read counters (stats, LRU ticks, footprints) are
/// atomics, so `Stats()`/`UsedBytes()` never need a model's lock.

#ifndef FKDE_RUNTIME_CATALOG_H_
#define FKDE_RUNTIME_CATALOG_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/table.h"
#include "estimator/estimator.h"
#include "kde/kde_estimator.h"
#include "kde/snapshot.h"
#include "parallel/device_group.h"
#include "workload/workload.h"

namespace fkde {

/// \brief Catalog key: which relation and attribute set a model covers.
struct ModelKey {
  std::string table;
  std::vector<std::string> columns;

  bool operator<(const ModelKey& other) const {
    if (table != other.table) return table < other.table;
    return columns < other.columns;
  }
  bool operator==(const ModelKey& other) const {
    return table == other.table && columns == other.columns;
  }

  /// "orders(price,discount)" — diagnostics and handle names.
  std::string ToString() const;
};

/// \brief Everything the catalog needs to build (and rebuild) one model.
struct ModelSpec {
  KdeSelectivityEstimator::Mode mode =
      KdeSelectivityEstimator::Mode::kAdaptive;
  KdeConfig config;
  /// Base table; must outlive the catalog entry (replacement rows and
  /// lazy builds read it).
  const Table* table = nullptr;
  /// Training workload (required by Mode::kBatch, ignored otherwise).
  /// Owned: a lazy build may happen long after the caller's span died.
  std::vector<Query> training;
};

/// \brief Per-model serving counters.
struct ModelStats {
  std::uint64_t queries_served = 0;
  std::uint64_t feedback_applied = 0;
  std::uint64_t evictions = 0;  ///< Times parked off the device.
  std::uint64_t faults = 0;     ///< Times rebuilt from the parked state.
  std::size_t device_bytes = 0;  ///< Model footprint while resident, else 0.
  bool resident = false;
  bool pinned = false;
};

/// \brief Catalog-wide counters and budget occupancy.
struct CatalogStats {
  std::size_t models = 0;
  std::size_t resident_models = 0;
  std::uint64_t evictions = 0;
  std::uint64_t faults = 0;
  std::size_t budget_bytes = 0;  ///< 0 = unbounded.
  /// Resident model bytes + the group's parked scratch bytes — what the
  /// budget is enforced against.
  std::size_t used_bytes = 0;
};

struct CatalogOptions {
  /// Aggregate device-memory budget for model payloads plus parked
  /// scratch; 0 disables eviction. The most-recently-touched model is
  /// never evicted, so one model over budget still serves.
  std::size_t device_budget_bytes = 0;
};

/// \brief Registry of concurrently-served KDE models sharing one group.
class ModelCatalog {
 public:
  /// All models shard across (or, for a one-device group, reside on)
  /// `group`, which must outlive the catalog.
  ModelCatalog(DeviceGroup* group, CatalogOptions options = {});
  ~ModelCatalog();

  ModelCatalog(const ModelCatalog&) = delete;
  ModelCatalog& operator=(const ModelCatalog&) = delete;

  /// Declares a model. Construction is lazy: the estimator is built on
  /// the first query (ANALYZE writes the catalog row; the optimizer's
  /// first lookup loads the model). AlreadyExists on a duplicate key,
  /// InvalidArgument on a null/empty table or a column-count mismatch.
  Status Register(const ModelKey& key, ModelSpec spec);

  /// Removes the model, its parked state and its stats entirely.
  Status Drop(const ModelKey& key);

  /// Serves one estimate through the model (building or faulting it in
  /// first if needed).
  Result<double> Estimate(const ModelKey& key, const Box& box);

  /// Applies query feedback through the model. InvalidArgument for a
  /// non-finite `selectivity` (NaN, ±inf); the model, its stats and its
  /// residency are then untouched.
  Status Feedback(const ModelKey& key, const Box& box, double selectivity);

  /// Ensures the model is resident and returns it (catalog retains
  /// ownership; the pointer is valid until the model is evicted or
  /// dropped). Prefer Estimate/Feedback, which also maintain stats.
  /// Under concurrent serving, `Pin` the model first: another thread's
  /// budget enforcement may otherwise evict it between your calls.
  Result<KdeSelectivityEstimator*> Open(const ModelKey& key);

  /// Pins (or unpins) the model: pinned models are never evicted.
  Status Pin(const ModelKey& key, bool pinned);

  /// Serializes the model's current state (resident or parked) and
  /// returns the blob — external persistence across process restarts. A
  /// parked model's blob equals the one it would give had it stayed
  /// resident.
  Result<std::vector<std::uint8_t>> SaveSnapshot(const ModelKey& key);

  /// Registers a model directly from a snapshot blob (warm restart from
  /// external storage). The blob is decoded and checked here, so a bad one
  /// fails registration with InvalidArgument; the model starts parked and
  /// faults in on first use.
  Status RegisterFromSnapshot(const ModelKey& key, ModelSpec spec,
                              std::span<const std::uint8_t> snapshot);

  /// Evicts the model now (quiesce + capture + park + destroy); no-op
  /// when not resident. FailedPrecondition when pinned.
  Status Evict(const ModelKey& key);

  /// Wraps the model as a `SelectivityEstimator` bound to this catalog —
  /// drivers and benches run unchanged against it while the catalog keeps
  /// the model's residency fluid underneath.
  Result<std::unique_ptr<SelectivityEstimator>> Handle(const ModelKey& key);

  Result<ModelStats> StatsFor(const ModelKey& key) const;
  CatalogStats Stats() const;
  DeviceGroup* group() const { return group_; }
  const CatalogOptions& options() const { return options_; }

  /// Registered keys in key order (diagnostics, benches).
  std::vector<ModelKey> Keys() const;

 private:
  struct Entry {
    /// Immutable after Register (readable without any lock).
    ModelSpec spec;
    /// Serializes this model's build / serve / snapshot / evict. Held
    /// while the model enqueues onto the shared device queues.
    std::mutex mu;
    /// Resident tier: the live estimator, the state of record while set.
    /// Guarded by `mu`.
    std::unique_ptr<KdeSelectivityEstimator> model;
    /// Parked tier: the decoded state of an evicted (or snapshot-
    /// registered) model, the state of record while `model` is null.
    /// Released when a fault rebuilds the model, so at most one of the
    /// two is set; neither is before the first build. Guarded by `mu`.
    std::optional<SavedModel> parked;
    /// Counters read by Stats()/UsedBytes() without taking `mu`.
    std::atomic<std::uint64_t> queries_served{0};
    std::atomic<std::uint64_t> feedback_applied{0};
    std::atomic<std::uint64_t> evictions{0};
    std::atomic<std::uint64_t> faults{0};
    std::atomic<std::size_t> device_bytes{0};
    std::atomic<bool> resident{false};
    std::atomic<bool> pinned{false};
    std::atomic<std::uint64_t> lru_tick{0};
  };

  /// Looks the entry up under `registry_mu_`; the shared_ptr keeps it
  /// alive across a concurrent Drop.
  Result<std::shared_ptr<Entry>> Find(const ModelKey& key);
  /// Builds or faults in the entry's model and bumps its LRU tick; then
  /// sheds memory down to the budget (never evicting `entry` itself).
  /// Caller holds `entry->mu`.
  Status EnsureResidentLocked(Entry* entry);
  /// Trims scratch, then evicts LRU non-pinned models until under budget.
  /// `keep` survives (the model serving the current query). Victims are
  /// acquired with try_lock; models busy in another thread are skipped.
  Status EnforceBudget(const Entry* keep);
  /// Caller holds `entry->mu`.
  Status EvictEntryLocked(Entry* entry);
  std::size_t UsedBytes() const;

  DeviceGroup* group_;
  CatalogOptions options_;
  /// Guards only the map itself (entries are shared_ptr-stable).
  mutable std::mutex registry_mu_;
  std::map<ModelKey, std::shared_ptr<Entry>> entries_;
  std::atomic<std::uint64_t> lru_clock_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> faults_{0};
};

}  // namespace fkde

#endif  // FKDE_RUNTIME_CATALOG_H_
