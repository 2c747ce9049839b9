// fkde-lint fixture: a quiescing callee under the registry mutex. This TU
// is never compiled; fkde-lint analyzes it whole-program in
// `ctest -L lint`, so the call to ParkModel is judged by ParkModel's
// summary facts. SaveModel quiesces the model (it waits on in-flight
// device passes), so ParkModel carries the quiesce fact, and calling it
// under the registry mutex is the stall lock-discipline forbids. Expected
// diagnostics are pinned in save_model_quiesce_violating.expected.
#include <mutex>
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

// Parks while holding the registry mutex: every catalog lookup on every
// thread stalls behind one model's quiesce.
Status ParkUnderRegistry(ModelCatalog* catalog, CatalogEntry* entry) {
  std::lock_guard<std::mutex> lock(catalog->registry_mu_);
  return ParkModel(entry);
}

}  // namespace fkde
