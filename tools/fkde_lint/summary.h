/// \file summary.h
/// \brief Per-TU function summaries and the whole-program index.
///
/// fkde-lint's two-pass mode works on this layer:
///
///   * **Pass 1** models each TU of the compilation database and
///     distills it to a `TuSummary` — boolean `FunctionFacts` per
///     function (blocks, drains, allocates, lock
///     acquisitions, streaming calls), the snapshot-friend classes with
///     their persistent members, and (for the codec TU) the field sets
///     written by the save/restore paths. Summaries serialize to a
///     line-oriented text file, one per TU (`--emit-summaries`).
///   * **Pass 2** merges summaries — freshly built or loaded from disk
///     (`--summaries`) — into a `ProgramIndex` and re-runs the checks
///     with it, so calls into other TUs resolve instead of being
///     treated as opaque.
///
/// Linking is by function *name*, mirroring the model's name-class
/// philosophy. Facts are OR-merged so they can only add conservative
/// knowledge (a callee that might block is treated as blocking).

#ifndef FKDE_TOOLS_LINT_SUMMARY_H_
#define FKDE_TOOLS_LINT_SUMMARY_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "model.h"

namespace fkde_lint {

/// Boolean distillation of one function body, OR-merged across TUs.
struct FunctionFacts {
  bool blocks = false;             ///< Contains a blocking sync point.
  bool drains = false;             ///< Finish()/Synchronize on a queue.
  bool allocates = false;          ///< Heap/container allocation.
  bool acquires_registry = false;  ///< Locks a *registry*-named mutex.
  bool acquires_admission = false; ///< Locks any other (non-try) mutex.
  bool begins_stream = false;      ///< Calls StreamBegin.
  bool retires_stream = false;     ///< Calls StreamRetire/StreamFeedback.
  bool quiesces = false;           ///< Calls Quiesce or a snapshot entry.

  bool Any() const {
    return blocks || drains || allocates || acquires_registry ||
           acquires_admission || begins_stream || retires_stream ||
           quiesces;
  }
};

/// Everything pass 2 needs to know about one TU.
struct TuSummary {
  std::string path;
  std::map<std::string, FunctionFacts> facts;
  std::vector<SnapshotClassInfo> snapshot_classes;
  /// Codec TU only (defines `class ModelSnapshotAccess`): member names
  /// written by the save (`Snapshot`) and restore (`Restore`) paths.
  bool has_codec = false;
  std::set<std::string> save_fields;
  std::set<std::string> restore_fields;
  int save_line = 0;
  int restore_line = 0;
};

/// Distills a modeled TU. Functions whose facts are all false are
/// omitted from `facts` — absence means "nothing interesting".
TuSummary Summarize(const SourceFile& sf);

/// Line-oriented text serialization (format documented in DESIGN §9).
std::string SerializeTuSummary(const TuSummary& tu);

/// Parses `SerializeTuSummary` output. Returns false on malformed
/// input (wrong magic/version); partial records are skipped.
bool ParseTuSummary(const std::string& text, TuSummary* out);

/// The merged whole-program view consumed by the checks.
struct ProgramIndex {
  std::map<std::string, FunctionFacts> facts;
  /// (defining path, class) for every snapshot-friend class seen.
  std::vector<std::pair<std::string, SnapshotClassInfo>> snapshot_classes;
  bool has_codec = false;
  std::string codec_path;
  std::set<std::string> save_fields;
  std::set<std::string> restore_fields;
  int save_line = 0;
  int restore_line = 0;

  void Add(const TuSummary& tu);
  /// Null when unknown.
  const FunctionFacts* Facts(const std::string& name) const;
};

}  // namespace fkde_lint

#endif  // FKDE_TOOLS_LINT_SUMMARY_H_
