// fkde-lint fixture: the clean twin of save_model_quiesce_violating.cc.
// The same quiescing ParkModel is called only after the registry mutex
// is released, as src/runtime/catalog.cc does under the entry's own
// admission mutex. Analyzed whole-program; must report nothing.
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "kde/snapshot.h"
#include "runtime/catalog.h"

namespace fkde {

// The catalog's eviction idiom: capture the model, park the state, drop
// the live model.
Status ParkModel(CatalogEntry* entry) {
  FKDE_ASSIGN_OR_RETURN(SavedModel saved, SaveModel(entry->model.get()));
  entry->parked.emplace(std::move(saved));
  entry->model.reset();
  return Status::OK();
}

// Registry lock for the map lookup only; the park runs after it is
// released, under the entry's admission mutex.
Status ParkOutsideRegistry(ModelCatalog* catalog, const std::string& name) {
  std::shared_ptr<CatalogEntry> entry;
  {
    std::lock_guard<std::mutex> registry_lock(catalog->registry_mu_);
    entry = catalog->entries_[name];
  }
  std::lock_guard<std::mutex> admission(entry->mu_);
  return ParkModel(entry.get());
}

}  // namespace fkde
