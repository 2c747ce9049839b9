/// \file model.h
/// \brief fkde-lint's per-TU source model: functions, buffer alias
/// classes, launch/readback/scratch sites.
///
/// The model is what the checks consume; it is deliberately independent
/// of how it was extracted (today: the bundled token frontend in
/// model.cc; tomorrow: a Clang LibTooling frontend producing the same
/// structures — see README.md). All reasoning is *name-class* based:
///
///  * Every device-buffer-ish expression is normalized to a **terminal
///    key** — the last identifier of its postfix chain, skipping
///    `.get()` / `.data()` / index and call argument lists. So
///    `engine_->shard_contributions(si)`, `*bs.bounds`, `sums[si].get()`
///    normalize to `shard_contributions`, `bounds`, `sums`.
///  * Within one function, assignments/initializations union keys into
///    **alias classes** (union-find): `ScratchBuffer dst = scratch_a;`
///    puts `dst` and `scratch_a` in one class; `std::swap(dst, spare)`,
///    reference bindings, and ternaries union likewise. Classes are
///    flow-insensitive — ping-pong reduction buffers legitimately
///    collapse into one class, trading precision for zero false
///    positives on that idiom.
///
/// Which buffers a kernel touches is no longer modeled: the typed
/// accessors of src/parallel/device.h make an undeclared touch fail to
/// compile (see tests/parallel/compile_fail/).

#ifndef FKDE_TOOLS_LINT_MODEL_H_
#define FKDE_TOOLS_LINT_MODEL_H_

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "lexer.h"

namespace fkde_lint {

/// A kernel lambda: capture names plus body token range.
struct LambdaInfo {
  std::vector<std::string> captures;  ///< Explicit capture names.
  bool capture_default = false;       ///< [=] or [&] present.
  std::size_t body_begin = 0;         ///< Token index of the body '{'.
  std::size_t body_end = 0;           ///< Token index of the matching '}'.
  std::size_t decl_token = 0;         ///< For named lambda variables.
  int line = 0;
  bool valid = false;
};

/// One EnqueueLaunch / Device::Launch call site, in either form: the
/// span form (`name, n, ops, body[, accesses]`) or the accessor form
/// (`name, n, ops, std::tuple(In(...), ...), body`).
struct LaunchSite {
  int line = 0;
  std::size_t token = 0;     ///< Token index of the call ident.
  std::string kernel_name;   ///< The string literal, if present.
  LambdaInfo body;           ///< Resolved kernel body (possibly via a
                             ///< named local lambda variable).
  bool body_resolved = false;
  /// Keys passed undereferenced as the buffer of an `In`/`Out`/`InOut`/
  /// `InIf` accessor of the launch: a `ScratchBuffer` passed so is
  /// leased to the command until it retires.
  std::vector<std::string> accessor_buffers;
};

/// One EnqueueCopyToHost call site (readback discipline check).
struct ReadbackSite {
  int line = 0;
  std::size_t token = 0;       ///< Index of the EnqueueCopyToHost ident.
  std::string queue_base;      ///< Base ident of the queue expression.
  std::string lhs_base;        ///< Base ident of the assignment LHS ("" if
                               ///< the returned event is discarded).
  std::string lhs_terminal;    ///< Terminal ident of the LHS.
  bool chained_wait = false;   ///< `EnqueueCopyToHost(...).Wait()`.
};

/// One AcquireScratch call site (scratch lifetime check).
struct ScratchSite {
  int line = 0;
  std::size_t token = 0;
  std::string lhs_base;      ///< "" when the handle is discarded.
  std::string lhs_terminal;
};

/// One named call site inside a function body (free or member call).
/// The raw material for interprocedural linking: lock-discipline and
/// streaming-lifecycle resolve these names against per-TU function
/// facts when a whole-program index is available.
struct CallSite {
  std::string name;          ///< Callee identifier.
  std::string base;          ///< Receiver base ident ("" for free calls).
  std::size_t token = 0;     ///< Token index of the callee ident.
  int line = 0;
  bool member = false;       ///< Preceded by '.' or '->'.
};

/// One scoped-lock acquisition: `std::lock_guard<std::mutex> l(mu);`
/// (also unique_lock / scoped_lock). The guard's lifetime is the
/// innermost enclosing brace scope.
struct LockSite {
  std::string mutex_key;     ///< Terminal key of the mutex expression.
  std::string mutex_text;    ///< Source text of the mutex arg, for messages.
  std::size_t token = 0;     ///< Token index of the guard-type ident.
  std::size_t scope_end = 0; ///< Token index of the enclosing scope's '}'.
  int line = 0;
  bool try_lock = false;     ///< try_to_lock / defer_lock — non-blocking.
};

/// One analyzed function (or method) definition.
struct FunctionInfo {
  std::string name;          ///< Terminal identifier (no qualifiers).
  int line = 0;              ///< Line of the body '{'.
  std::size_t body_begin = 0;
  std::size_t body_end = 0;
  bool hot = false;          ///< FKDE_HOT in the signature.

  /// Union-find over normalized keys (resolved; query via Find()).
  std::map<std::string, std::string> parent;
  /// Names declared inside this function (params included). A name
  /// assigned to but never declared is a member/global — it escapes.
  std::set<std::string> locals;
  /// Keys whose class escapes the function: members/globals the key was
  /// bound to, returned locals, and function parameters.
  std::set<std::string> escaping;
  /// Named local lambdas (`auto body = [...](...) {...};`), in
  /// declaration order; launches resolve the nearest preceding one.
  std::vector<std::pair<std::string, LambdaInfo>> lambda_vars;

  std::vector<LaunchSite> launches;
  std::vector<ReadbackSite> readbacks;
  std::vector<ScratchSite> scratches;
  /// Names that hold a ScratchBuffer *by value* (shared_ptr copy):
  /// AcquireScratch assignment targets, ScratchBuffer-typed
  /// declarations, and chain-only aliases of either. Only these keep a
  /// scratch allocation alive when captured or passed to an accessor —
  /// a dereferenced `*handle` shares the alias class but not the
  /// ownership.
  std::set<std::string> scratch_handles;

  /// Token indices of blocking synchronization points: `.Wait(`,
  /// `Finish(`, blocking `CopyToHost`/`CopyToDevice`/`Launch`,
  /// `ReduceSum(`/`ReduceSumSegments(`.
  std::vector<std::size_t> blocking_points;
  /// Base idents that are waited on somewhere: `X.Wait()`/`X[i].Wait()`.
  std::set<std::string> waited_bases;
  /// Queue base idents that see a `Finish()` call, with token position.
  std::vector<std::pair<std::string, std::size_t>> finishes;
  /// Later-enqueue rule inputs: (queue_base, lhs_base, token) of every
  /// `X = Q->Enqueue*(...)` assignment.
  struct EnqueueAssign {
    std::string queue_base;
    std::string lhs_base;
    bool lhs_escapes = false;
    std::size_t token = 0;
  };
  std::vector<EnqueueAssign> enqueue_assigns;
  /// Token spans (begin, end) of Enqueue* call argument lists, used to
  /// detect asynchronous uses of scratch classes.
  std::vector<std::pair<std::size_t, std::size_t>> async_arg_spans;
  /// Names returned from this function.
  std::set<std::string> returned;
  /// Every named call site in the body, in token order.
  std::vector<CallSite> calls;
  /// Scoped-lock acquisitions (lock_guard/unique_lock/scoped_lock).
  std::vector<LockSite> locks;
  /// Member names (trailing '_') referenced anywhere in the body.
  std::set<std::string> fields;

  /// Resolved union-find lookup (const: path not compressed).
  std::string Find(const std::string& key) const;
  /// True when `a` and `b` are in the same alias class.
  bool SameClass(const std::string& a, const std::string& b) const;
};

/// One persistent data member of a snapshot-friend class.
struct SnapshotMember {
  std::string name;
  int line = 0;
  bool excluded = false;   ///< Carries FKDE_SNAPSHOT_EXCLUDE(reason).
  std::string reason;
};

/// A class granting `friend class ModelSnapshotAccess` — its members
/// are the persistence surface the snapshot-completeness check audits.
struct SnapshotClassInfo {
  std::string name;
  int line = 0;
  std::vector<SnapshotMember> members;
};

/// Fully extracted model of one translation unit.
struct SourceFile {
  std::string path;
  std::string contents;   ///< Owns the bytes tokens view into.
  TokenStream stream;
  std::vector<FunctionInfo> functions;
  /// line -> suppressed check names ("*" suppresses all) parsed from
  /// `// FKDE_LINT_SUPPRESS(check): reason` comments. A suppression on
  /// line L covers findings on L and L+1.
  std::map<int, std::set<std::string>> suppressions;
  /// Classes declaring `friend class ModelSnapshotAccess`.
  std::vector<SnapshotClassInfo> snapshot_classes;
  /// True when this TU defines `class ModelSnapshotAccess { ... }` —
  /// i.e. it is the snapshot codec TU.
  bool defines_snapshot_codec = false;
  bool io_error = false;
};

/// Loads and models one file. Sets io_error when unreadable.
SourceFile BuildModel(const std::string& path);

/// Normalizes an expression token range [begin, end) to its terminal
/// key; empty string when no identifier chain is present. Exposed for
/// tests and the check layer.
std::string TerminalKey(const TokenStream& ts, std::size_t begin,
                        std::size_t end);

}  // namespace fkde_lint

#endif  // FKDE_TOOLS_LINT_MODEL_H_
