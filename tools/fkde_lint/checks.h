/// \file checks.h
/// \brief The six fkde-lint checks and their findings.
///
/// Check names (used in diagnostics, `--checks`, and the
/// `FKDE_LINT_SUPPRESS(name)` escape hatch):
///
///   * `readback-sync`    — every EnqueueCopyToHost result reaches an
///                          Event::Wait / Queue::Finish (or escapes to a
///                          caller who can wait).
///   * `hot-alloc`        — no allocation inside kernel bodies or
///                          FKDE_HOT functions.
///   * `scratch-lifetime` — AcquireScratch handles are parked, leased to
///                          a launch (accessor or capture), or outlive a
///                          blocking point.
///   * `lock-discipline`  — the catalog registry mutex (any mutex whose
///                          name contains "registry") is never held
///                          across a per-entry mutex acquire, a blocking
///                          point, or a re-acquire of itself.
///   * `streaming-lifecycle` — StreamBegin is matched by
///                          StreamRetire/StreamFeedback, and no
///                          Quiesce/snapshot call is reachable while a
///                          ticket is statically open.
///   * `snapshot-completeness` — every persistent member of a class
///                          declaring `friend class ModelSnapshotAccess`
///                          is written by both the save and restore
///                          paths or carries FKDE_SNAPSHOT_EXCLUDE.
///
/// The first five run per function; when a `ProgramIndex` is supplied
/// they additionally resolve out-of-TU callees through function facts.
/// snapshot-completeness is a
/// program-level check over the merged index (per-TU invocations get a
/// single-TU index, so it only fires when class and codec share a TU).

#ifndef FKDE_TOOLS_LINT_CHECKS_H_
#define FKDE_TOOLS_LINT_CHECKS_H_

#include <string>
#include <vector>

#include "model.h"
#include "summary.h"

namespace fkde_lint {

struct Finding {
  std::string check;    ///< One of the six check names.
  std::string path;
  int line = 0;
  std::string message;
  bool suppressed = false;
};

inline constexpr const char* kAllChecks[] = {
    "readback-sync",   "hot-alloc",          "scratch-lifetime",
    "lock-discipline", "streaming-lifecycle", "snapshot-completeness"};

/// Runs every per-function check in `enabled` (empty = all) over one
/// modeled file. Findings covered by a FKDE_LINT_SUPPRESS comment are
/// returned with `suppressed = true` so the report can count them.
/// `program` may be null (per-TU mode): out-of-TU callees stay opaque.
std::vector<Finding> RunChecks(const SourceFile& sf,
                               const std::vector<std::string>& enabled,
                               const ProgramIndex* program);

inline std::vector<Finding> RunChecks(
    const SourceFile& sf, const std::vector<std::string>& enabled) {
  return RunChecks(sf, enabled, nullptr);
}

/// Program-level checks over the merged index (today:
/// snapshot-completeness). FKDE_SNAPSHOT_EXCLUDE is the suppression
/// mechanism here — line suppressions don't apply.
std::vector<Finding> RunProgramChecks(
    const ProgramIndex& index, const std::vector<std::string>& enabled);

}  // namespace fkde_lint

#endif  // FKDE_TOOLS_LINT_CHECKS_H_
