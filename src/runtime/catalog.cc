#include "runtime/catalog.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"
#include "kde/snapshot.h"

namespace fkde {
namespace {

/// Catalog-bound estimator facade: routes the SelectivityEstimator
/// protocol through the catalog so residency stays fluid underneath a
/// long-lived handle.
class CatalogModelHandle : public SelectivityEstimator {
 public:
  CatalogModelHandle(ModelCatalog* catalog, ModelKey key, std::size_t dims)
      : catalog_(catalog), key_(std::move(key)), dims_(dims) {}

  std::string name() const override { return "catalog:" + key_.ToString(); }
  std::size_t dims() const override { return dims_; }

  double EstimateSelectivity(const Box& box) override {
    return catalog_->Estimate(key_, box).MoveValueOrDie();
  }

  void ObserveTrueSelectivity(const Box& box, double selectivity) override {
    FKDE_CHECK_OK(catalog_->Feedback(key_, box, selectivity));
  }

  void OnInsert(std::span<const double> row,
                std::size_t table_rows_after) override {
    // Insert notifications only matter to a resident adaptive model; a
    // parked model's reservoir counters resume from its saved state,
    // exactly as the paper's lazily-loaded models miss no correctness (the
    // sample just refreshes through later inserts/Karma).
    Result<KdeSelectivityEstimator*> model = catalog_->Open(key_);
    FKDE_CHECK_OK(model.status());
    model.ValueOrDie()->OnInsert(row, table_rows_after);
  }

  std::size_t ModelBytes() const override {
    Result<ModelStats> stats = catalog_->StatsFor(key_);
    return stats.ok() ? stats.ValueOrDie().device_bytes : 0;
  }

 private:
  ModelCatalog* catalog_;
  ModelKey key_;
  std::size_t dims_;
};

}  // namespace

std::string ModelKey::ToString() const {
  std::string out = table + "(";
  for (std::size_t i = 0; i < columns.size(); ++i) {
    if (i > 0) out += ",";
    out += columns[i];
  }
  out += ")";
  return out;
}

ModelCatalog::ModelCatalog(DeviceGroup* group, CatalogOptions options)
    : group_(group), options_(options) {
  FKDE_CHECK(group != nullptr);
}

ModelCatalog::~ModelCatalog() = default;

Status ModelCatalog::Register(const ModelKey& key, ModelSpec spec) {
  if (spec.table == nullptr || spec.table->empty()) {
    return Status::InvalidArgument("model spec needs a non-empty table");
  }
  if (!key.columns.empty() &&
      key.columns.size() != spec.table->num_cols()) {
    return Status::InvalidArgument(
        "key names " + std::to_string(key.columns.size()) +
        " columns but the table has " +
        std::to_string(spec.table->num_cols()));
  }
  auto entry = std::make_shared<Entry>();
  entry->spec = std::move(spec);
  std::lock_guard<std::mutex> lock(registry_mu_);
  if (!entries_.emplace(key, std::move(entry)).second) {
    return Status::AlreadyExists("model already registered: " +
                                 key.ToString());
  }
  return Status::OK();
}

Status ModelCatalog::RegisterFromSnapshot(
    const ModelKey& key, ModelSpec spec,
    std::span<const std::uint8_t> snapshot) {
  // Decode and check once, here: the model parks as decoded state, so a
  // later fault rebuilds without the codec.
  FKDE_ASSIGN_OR_RETURN(SavedModel saved, DecodeModel(snapshot));
  if (spec.table != nullptr &&
      spec.table->num_cols() != saved.header().dims) {
    return Status::InvalidArgument("snapshot dims do not match the table");
  }
  FKDE_RETURN_NOT_OK(Register(key, std::move(spec)));
  FKDE_ASSIGN_OR_RETURN(std::shared_ptr<Entry> entry, Find(key));
  std::lock_guard<std::mutex> lock(entry->mu);
  entry->parked.emplace(std::move(saved));
  return Status::OK();
}

Status ModelCatalog::Drop(const ModelKey& key) {
  // Erase under the registry lock only: a thread mid-serve on this model
  // holds its own shared_ptr and finishes on the orphaned entry; the
  // entry (and its device buffers) dies with the last reference.
  std::lock_guard<std::mutex> lock(registry_mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    return Status::NotFound("no model registered: " + key.ToString());
  }
  entries_.erase(it);
  return Status::OK();
}

Result<std::shared_ptr<ModelCatalog::Entry>> ModelCatalog::Find(
    const ModelKey& key) {
  std::lock_guard<std::mutex> lock(registry_mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    return Status::NotFound("no model registered: " + key.ToString());
  }
  return it->second;
}

Result<double> ModelCatalog::Estimate(const ModelKey& key, const Box& box) {
  FKDE_ASSIGN_OR_RETURN(std::shared_ptr<Entry> entry, Find(key));
  std::lock_guard<std::mutex> lock(entry->mu);
  FKDE_RETURN_NOT_OK(EnsureResidentLocked(entry.get()));
  entry->queries_served.fetch_add(1, std::memory_order_relaxed);
  return entry->model->EstimateSelectivity(box);
}

Status ModelCatalog::Feedback(const ModelKey& key, const Box& box,
                              double selectivity) {
  // A non-finite truth would poison the adaptive bandwidth step; reject
  // it before the model (or its residency) is touched.
  if (!std::isfinite(selectivity)) {
    return Status::InvalidArgument("feedback selectivity is not finite");
  }
  FKDE_ASSIGN_OR_RETURN(std::shared_ptr<Entry> entry, Find(key));
  std::lock_guard<std::mutex> lock(entry->mu);
  FKDE_RETURN_NOT_OK(EnsureResidentLocked(entry.get()));
  entry->feedback_applied.fetch_add(1, std::memory_order_relaxed);
  entry->model->ObserveTrueSelectivity(box, selectivity);
  entry->device_bytes.store(entry->model->ModelBytes(),
                            std::memory_order_relaxed);
  return Status::OK();
}

Result<KdeSelectivityEstimator*> ModelCatalog::Open(const ModelKey& key) {
  FKDE_ASSIGN_OR_RETURN(std::shared_ptr<Entry> entry, Find(key));
  std::lock_guard<std::mutex> lock(entry->mu);
  FKDE_RETURN_NOT_OK(EnsureResidentLocked(entry.get()));
  return entry->model.get();
}

Status ModelCatalog::Pin(const ModelKey& key, bool pinned) {
  FKDE_ASSIGN_OR_RETURN(std::shared_ptr<Entry> entry, Find(key));
  // Take the entry lock so a pin cannot slip between a concurrent
  // enforcer's pinned-check and its eviction.
  std::lock_guard<std::mutex> lock(entry->mu);
  entry->pinned.store(pinned, std::memory_order_relaxed);
  return Status::OK();
}

Result<std::vector<std::uint8_t>> ModelCatalog::SaveSnapshot(
    const ModelKey& key) {
  FKDE_ASSIGN_OR_RETURN(std::shared_ptr<Entry> entry, Find(key));
  std::lock_guard<std::mutex> lock(entry->mu);
  if (entry->model != nullptr) {
    return SnapshotModel(entry->model.get());
  }
  if (entry->parked.has_value()) return EncodeModel(*entry->parked);
  return Status::FailedPrecondition(
      "model was never built, nothing to snapshot: " + key.ToString());
}

Status ModelCatalog::Evict(const ModelKey& key) {
  FKDE_ASSIGN_OR_RETURN(std::shared_ptr<Entry> entry, Find(key));
  std::lock_guard<std::mutex> lock(entry->mu);
  if (entry->model == nullptr) return Status::OK();
  if (entry->pinned.load(std::memory_order_relaxed)) {
    return Status::FailedPrecondition("model is pinned: " + key.ToString());
  }
  return EvictEntryLocked(entry.get());
}

Result<std::unique_ptr<SelectivityEstimator>> ModelCatalog::Handle(
    const ModelKey& key) {
  FKDE_ASSIGN_OR_RETURN(std::shared_ptr<Entry> entry, Find(key));
  return std::unique_ptr<SelectivityEstimator>(std::make_unique<
      CatalogModelHandle>(this, key, entry->spec.table->num_cols()));
}

Result<ModelStats> ModelCatalog::StatsFor(const ModelKey& key) const {
  std::shared_ptr<Entry> entry;
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      return Status::NotFound("no model registered: " + key.ToString());
    }
    entry = it->second;
  }
  ModelStats stats;
  stats.queries_served = entry->queries_served.load(std::memory_order_relaxed);
  stats.feedback_applied =
      entry->feedback_applied.load(std::memory_order_relaxed);
  stats.evictions = entry->evictions.load(std::memory_order_relaxed);
  stats.faults = entry->faults.load(std::memory_order_relaxed);
  stats.device_bytes = entry->device_bytes.load(std::memory_order_relaxed);
  stats.resident = entry->resident.load(std::memory_order_relaxed);
  stats.pinned = entry->pinned.load(std::memory_order_relaxed);
  return stats;
}

CatalogStats ModelCatalog::Stats() const {
  CatalogStats stats;
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    stats.models = entries_.size();
    for (const auto& [key, entry] : entries_) {
      if (entry->resident.load(std::memory_order_relaxed)) {
        ++stats.resident_models;
      }
    }
  }
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  stats.faults = faults_.load(std::memory_order_relaxed);
  stats.budget_bytes = options_.device_budget_bytes;
  stats.used_bytes = UsedBytes();
  return stats;
}

std::vector<ModelKey> ModelCatalog::Keys() const {
  std::lock_guard<std::mutex> lock(registry_mu_);
  std::vector<ModelKey> keys;
  keys.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) keys.push_back(key);
  return keys;
}

Status ModelCatalog::EnsureResidentLocked(Entry* entry) {
  entry->lru_tick.store(lru_clock_.fetch_add(1, std::memory_order_relaxed) + 1,
                        std::memory_order_relaxed);
  if (entry->model == nullptr) {
    if (entry->parked.has_value()) {
      // Fault the parked model back; the rebuilt instance is
      // bitwise-faithful, so eviction history never shows in estimates.
      FKDE_ASSIGN_OR_RETURN(
          entry->model,
          RebuildModel(*entry->parked, group_, entry->spec.table));
      // The live model is now the state of record (SaveSnapshot reads it,
      // the next eviction parks it again); release the parked state. A
      // failed rebuild keeps it.
      entry->parked.reset();
      entry->faults.fetch_add(1, std::memory_order_relaxed);
      faults_.fetch_add(1, std::memory_order_relaxed);
    } else {
      FKDE_ASSIGN_OR_RETURN(
          entry->model,
          KdeSelectivityEstimator::Create(entry->spec.mode, group_,
                                          entry->spec.table,
                                          entry->spec.config,
                                          entry->spec.training));
    }
    entry->resident.store(true, std::memory_order_relaxed);
    entry->device_bytes.store(entry->model->ModelBytes(),
                              std::memory_order_relaxed);
  }
  // Admit first, then shed: the serving model itself is exempt, so a
  // single over-budget model still serves (matching how the paper's
  // directory never refuses the model the optimizer is asking for).
  return EnforceBudget(entry);
}

Status ModelCatalog::EnforceBudget(const Entry* keep) {
  if (options_.device_budget_bytes == 0) return Status::OK();
  if (UsedBytes() <= options_.device_budget_bytes) return Status::OK();
  // Cheapest first: parked scratch buffers are pure cache.
  group_->TrimScratchPools();
  while (UsedBytes() > options_.device_budget_bytes) {
    // Snapshot the candidates under the registry lock, then lock the
    // victim OUTSIDE it — blocking on an entry mutex while holding the
    // registry (or another entry, as the caller does with `keep`) is the
    // forbidden inversion, so victims are taken with try_lock and busy
    // models are skipped: whoever is serving them will re-enforce on
    // their own admission.
    std::vector<std::shared_ptr<Entry>> candidates;
    {
      std::lock_guard<std::mutex> lock(registry_mu_);
      for (const auto& [key, entry] : entries_) {
        if (entry.get() == keep) continue;
        if (!entry->resident.load(std::memory_order_relaxed)) continue;
        if (entry->pinned.load(std::memory_order_relaxed)) continue;
        candidates.push_back(entry);
      }
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const std::shared_ptr<Entry>& a,
                 const std::shared_ptr<Entry>& b) {
                return a->lru_tick.load(std::memory_order_relaxed) <
                       b->lru_tick.load(std::memory_order_relaxed);
              });
    bool evicted = false;
    for (const std::shared_ptr<Entry>& victim : candidates) {
      std::unique_lock<std::mutex> victim_lock(victim->mu, std::try_to_lock);
      if (!victim_lock.owns_lock()) continue;
      // Re-check under the lock: the candidate scan was unlocked.
      if (victim->model == nullptr ||
          victim->pinned.load(std::memory_order_relaxed)) {
        continue;
      }
      FKDE_RETURN_NOT_OK(EvictEntryLocked(victim.get()));
      evicted = true;
      break;
    }
    if (!evicted) return Status::OK();  // Nothing evictable (now) left.
  }
  return Status::OK();
}

Status ModelCatalog::EvictEntryLocked(Entry* entry) {
  // SaveModel quiesces: in-flight gradient/Karma passes fold into host
  // state before the engine's destructor drains the queues. The state
  // parks decoded; nothing is encoded until a SaveSnapshot asks.
  FKDE_ASSIGN_OR_RETURN(SavedModel saved, SaveModel(entry->model.get()));
  entry->parked.emplace(std::move(saved));
  entry->model.reset();
  entry->resident.store(false, std::memory_order_relaxed);
  entry->device_bytes.store(0, std::memory_order_relaxed);
  entry->evictions.fetch_add(1, std::memory_order_relaxed);
  evictions_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

std::size_t ModelCatalog::UsedBytes() const {
  std::size_t bytes = group_->AggregateScratchStats().pooled_bytes;
  std::lock_guard<std::mutex> lock(registry_mu_);
  for (const auto& [key, entry] : entries_) {
    bytes += entry->device_bytes.load(std::memory_order_relaxed);
  }
  return bytes;
}

}  // namespace fkde
