/// \file checks.cc
/// \brief Implementations of the six fkde-lint checks over
/// SourceFile, optionally linked through a whole-program index.

#include "checks.h"

#include <algorithm>
#include <map>
#include <set>

namespace fkde_lint {

namespace {

bool Enabled(const std::vector<std::string>& enabled, const char* name) {
  if (enabled.empty()) return true;
  return std::find(enabled.begin(), enabled.end(), name) != enabled.end();
}

/// A name escapes when it is a parameter, is returned, is bound to
/// non-local state, or was never locally declared (member/global).
bool Escapes(const FunctionInfo& fn, const std::string& name) {
  if (name.empty()) return false;
  return fn.escaping.count(name) > 0 || fn.locals.count(name) == 0;
}

void Emit(std::vector<Finding>& out, const SourceFile& sf,
          const char* check, int line, std::string message) {
  Finding f;
  f.check = check;
  f.path = sf.path;
  f.line = line;
  f.message = std::move(message);
  for (int l : {line, line - 1}) {
    auto it = sf.suppressions.find(l);
    if (it != sf.suppressions.end() &&
        (it->second.count(check) || it->second.count("*"))) {
      f.suppressed = true;
      break;
    }
  }
  out.push_back(std::move(f));
}

// ------------------------------------------------------------------ //
// readback-sync

/// True when a call after `token` drains queued work: the callee's
/// facts say it calls Finish()/Synchronize (e.g. `Drain()` helpers
/// defined in another TU).
bool LaterDrainingCall(const FunctionInfo& fn, const ProgramIndex* program,
                       std::size_t token) {
  if (!program) return false;
  for (const CallSite& c : fn.calls) {
    if (c.token <= token || c.name == fn.name) continue;
    const FunctionFacts* f = program->Facts(c.name);
    if (f && f->drains) return true;
  }
  return false;
}

void CheckReadbackSync(const SourceFile& sf, const FunctionInfo& fn,
                       const ProgramIndex* program,
                       std::vector<Finding>& out) {
  for (const ReadbackSite& rb : fn.readbacks) {
    if (rb.chained_wait) continue;
    if (rb.lhs_terminal.empty() && rb.lhs_base.empty()) {
      // Discarded event. The queue is in-order, so a later Finish() or
      // a later *waited* enqueue on the same queue orders the copy
      // before any host read.
      bool ordered = false;
      for (const auto& [base, tok] : fn.finishes) {
        if (tok > rb.token && (base == rb.queue_base || base.empty())) {
          ordered = true;
          break;
        }
      }
      if (!ordered) {
        for (const auto& ea : fn.enqueue_assigns) {
          if (ea.token > rb.token && ea.queue_base == rb.queue_base &&
              (ea.lhs_escapes || fn.waited_bases.count(ea.lhs_base))) {
            ordered = true;
            break;
          }
        }
      }
      if (!ordered) ordered = LaterDrainingCall(fn, program, rb.token);
      if (!ordered) {
        Emit(out, sf, "readback-sync", rb.line,
             "EnqueueCopyToHost result is discarded and no later "
             "Wait()/Finish() on queue '" +
                 rb.queue_base + "' orders the host read");
      }
      continue;
    }
    if (Escapes(fn, rb.lhs_base) || Escapes(fn, rb.lhs_terminal)) continue;
    if (fn.waited_bases.count(rb.lhs_base) ||
        fn.waited_bases.count(rb.lhs_terminal)) {
      continue;
    }
    Emit(out, sf, "readback-sync", rb.line,
         "readback event '" + rb.lhs_terminal +
             "' never reaches Wait()/Finish(); the host buffer may be "
             "read before the copy completes");
  }
}

// ------------------------------------------------------------------ //
// hot-alloc

const char* AllocCall(std::string_view id) {
  static constexpr std::string_view kCalls[] = {
      "malloc", "calloc", "realloc", "aligned_alloc", "strdup",
      "make_unique", "make_shared"};
  for (std::string_view c : kCalls) {
    if (id == c) return c.data();
  }
  return nullptr;
}

const char* GrowthCall(std::string_view id) {
  static constexpr std::string_view kCalls[] = {
      "push_back", "emplace_back", "resize",  "reserve",
      "insert",    "emplace",      "assign",  "append"};
  for (std::string_view c : kCalls) {
    if (id == c) return c.data();
  }
  return nullptr;
}

bool IsOwningContainer(std::string_view id) {
  static constexpr std::string_view kTypes[] = {
      "vector", "string", "basic_string", "map",  "unordered_map",
      "set",    "unordered_set",          "deque", "list", "function"};
  for (std::string_view t : kTypes) {
    if (id == t) return true;
  }
  return false;
}

void ScanHotRegion(const SourceFile& sf, const ProgramIndex* program,
                   std::size_t begin, std::size_t end,
                   const std::string& context, std::vector<Finding>& out) {
  const auto& toks = sf.stream.tokens;
  for (std::size_t j = begin + 1; j < end; ++j) {
    const Token& t = toks[j];
    if (t.kind != TokKind::kIdent) continue;
    if (t.text == "new" &&
        !(j > 0 && (IsPunct(toks[j - 1], ".") ||
                    IsPunct(toks[j - 1], "->")))) {
      Emit(out, sf, "hot-alloc", t.line,
           "heap allocation ('new') inside " + context);
      continue;
    }
    const bool called = j + 1 < end && IsPunct(toks[j + 1], "(");
    if (called) {
      if (const char* a = AllocCall(t.text)) {
        Emit(out, sf, "hot-alloc", t.line,
             "allocating call '" + std::string(a) + "' inside " + context);
        continue;
      }
      if (j > 0 && (IsPunct(toks[j - 1], ".") ||
                    IsPunct(toks[j - 1], "->"))) {
        if (const char* g = GrowthCall(t.text)) {
          Emit(out, sf, "hot-alloc", t.line,
               "allocating container call '" + std::string(g) +
                   "' inside " + context);
          continue;
        }
      }
      // Interprocedural: a callee whose summary says it allocates.
      if (program && !GrowthCall(t.text)) {
        const FunctionFacts* f = program->Facts(std::string(t.text));
        if (f && f->allocates) {
          Emit(out, sf, "hot-alloc", t.line,
               "call to '" + std::string(t.text) +
                   "', which allocates, inside " + context);
          continue;
        }
      }
    }
    // std::vector<...> v / std::string s(...) constructed in the body.
    if (IsOwningContainer(t.text) && j >= 2 &&
        IsPunct(toks[j - 1], "::") && IsIdent(toks[j - 2], "std")) {
      // Skip template arguments, then decide: a reference/pointer type
      // position is fine, a constructed object is not.
      std::size_t k = j + 1;
      if (k < end && IsPunct(toks[k], "<")) {
        int angle = 0;
        while (k < end) {
          if (IsPunct(toks[k], "<")) ++angle;
          if (IsPunct(toks[k], ">")) --angle;
          if (IsPunct(toks[k], ">>")) angle -= 2;
          ++k;
          if (angle <= 0) break;
        }
      }
      if (k < end && !IsPunct(toks[k], "&") && !IsPunct(toks[k], "*") &&
          !IsPunct(toks[k], ">") && !IsPunct(toks[k], ",") &&
          !IsPunct(toks[k], ")")) {
        Emit(out, sf, "hot-alloc", t.line,
             "allocating container 'std::" + std::string(t.text) +
                 "' constructed inside " + context);
      }
    }
  }
}

void CheckHotAlloc(const SourceFile& sf, const FunctionInfo& fn,
                   const ProgramIndex* program, std::vector<Finding>& out) {
  std::set<std::size_t> seen;
  if (fn.hot) {
    seen.insert(fn.body_begin);
    ScanHotRegion(sf, program, fn.body_begin, fn.body_end,
                  "FKDE_HOT function '" + fn.name + "'", out);
  }
  for (const LaunchSite& ls : fn.launches) {
    if (!ls.body_resolved) continue;
    if (!seen.insert(ls.body.body_begin).second) continue;
    const std::string kname =
        ls.kernel_name.empty() ? fn.name : ls.kernel_name;
    ScanHotRegion(sf, program, ls.body.body_begin, ls.body.body_end,
                  "kernel '" + kname + "'", out);
  }
}

// ------------------------------------------------------------------ //
// scratch-lifetime

void CheckScratchLifetime(const SourceFile& sf, const FunctionInfo& fn,
                          const ProgramIndex* program,
                          std::vector<Finding>& out) {
  const auto& toks = sf.stream.tokens;
  for (const ScratchSite& sc : fn.scratches) {
    if (sc.lhs_terminal.empty() && sc.lhs_base.empty()) {
      Emit(out, sf, "scratch-lifetime", sc.line,
           "AcquireScratch handle is discarded; the scratch returns to "
           "the pool immediately");
      continue;
    }
    if (Escapes(fn, sc.lhs_base) || Escapes(fn, sc.lhs_terminal)) {
      continue;  // Parked in a member / returned to the caller.
    }
    const std::string rep = fn.Find(sc.lhs_terminal);
    std::size_t last_async = 0;
    for (const auto& [b, e] : fn.async_arg_spans) {
      for (std::size_t j = b; j < e; ++j) {
        if (toks[j].kind == TokKind::kIdent &&
            fn.Find(std::string(toks[j].text)) == rep) {
          last_async = std::max(last_async, j);
        }
      }
    }
    if (last_async == 0) continue;  // Only used by blocking calls.
    // Held alive by a launch? An accessor over the handle leases it to
    // the command, and so does a kernel capture of it. Only a
    // ScratchBuffer-valued name (shared_ptr copy) extends the lifetime —
    // a dereferenced `*handle` shares the alias class but not the
    // ownership.
    const auto holds = [&](const std::string& name) {
      return fn.scratch_handles.count(name) != 0 && fn.Find(name) == rep;
    };
    bool held = false;
    for (const LaunchSite& ls : fn.launches) {
      for (const std::string& b : ls.accessor_buffers) {
        if (holds(b)) held = true;
      }
      if (!ls.body_resolved) continue;
      for (const std::string& c : ls.body.captures) {
        if (holds(c)) held = true;
      }
      if (ls.body.capture_default) {
        for (std::size_t j = ls.body.body_begin + 1;
             j < ls.body.body_end && !held; ++j) {
          if (toks[j].kind == TokKind::kIdent &&
              holds(std::string(toks[j].text))) {
            held = true;
          }
        }
      }
      if (held) break;
    }
    if (held) continue;
    // Or does a blocking point drain the queue after the last use?
    bool drained = false;
    for (std::size_t p : fn.blocking_points) {
      if (p >= last_async) drained = true;
    }
    // A call into another TU that blocks or drains counts too.
    if (!drained && LaterDrainingCall(fn, program, last_async - 1)) {
      drained = true;
    }
    if (drained) continue;
    Emit(out, sf, "scratch-lifetime", sc.line,
         "scratch '" + sc.lhs_terminal +
             "' may be released before queued work that references it "
             "completes (no accessor lease, hold capture or blocking "
             "point)");
  }
}

// ------------------------------------------------------------------ //
// lock-discipline

/// Naming convention (documented in README.md): the catalog-level
/// registry lock is any mutex whose name contains "registry". Plain
/// worker/device mutexes (`mu_`, `pool_mu_`) are admission-level.
bool IsRegistryKey(const std::string& key) {
  return key.find("registry") != std::string::npos;
}

void CheckLockDiscipline(const SourceFile& sf, const FunctionInfo& fn,
                         const ProgramIndex* program,
                         std::vector<Finding>& out) {
  const auto& toks = sf.stream.tokens;
  std::set<std::size_t> flagged;  // Dedup across the two scans below.
  for (const LockSite& lk : fn.locks) {
    if (!IsRegistryKey(lk.mutex_key) || lk.try_lock) continue;
    const std::size_t begin = lk.token;
    const std::size_t end = lk.scope_end;
    for (const LockSite& other : fn.locks) {
      if (other.token <= begin || other.token >= end) continue;
      if (other.try_lock || !flagged.insert(other.token).second) continue;
      if (IsRegistryKey(other.mutex_key)) {
        Emit(out, sf, "lock-discipline", other.line,
             "registry mutex '" + other.mutex_text +
                 "' re-acquired while '" + lk.mutex_text +
                 "' is already held (self-deadlock)");
      } else {
        Emit(out, sf, "lock-discipline", other.line,
             "per-entry mutex '" + other.mutex_text +
                 "' acquired while registry mutex '" + lk.mutex_text +
                 "' is held (lock-order inversion: admission locks must "
                 "be taken outside the registry lock)");
      }
    }
    for (std::size_t p : fn.blocking_points) {
      if (p <= begin || p >= end) continue;
      if (!flagged.insert(p).second) continue;
      Emit(out, sf, "lock-discipline", toks[p].line,
           "blocking call '" + std::string(toks[p].text) +
               "' while holding registry mutex '" + lk.mutex_text + "'");
    }
    for (const CallSite& c : fn.calls) {
      if (c.token <= begin || c.token >= end) continue;
      if (flagged.count(c.token)) continue;
      if (c.name == "Quiesce") {
        flagged.insert(c.token);
        Emit(out, sf, "lock-discipline", c.line,
             "blocking call 'Quiesce' while holding registry mutex '" +
                 lk.mutex_text + "'");
        continue;
      }
      if (!program || c.name == fn.name) continue;
      const FunctionFacts* f = program->Facts(c.name);
      if (!f) continue;
      if (f->acquires_registry) {
        flagged.insert(c.token);
        Emit(out, sf, "lock-discipline", c.line,
             "call to '" + c.name +
                 "' re-acquires the registry mutex while '" +
                 lk.mutex_text + "' is held (self-deadlock)");
      } else if (f->acquires_admission) {
        flagged.insert(c.token);
        Emit(out, sf, "lock-discipline", c.line,
             "call to '" + c.name +
                 "' acquires a per-entry mutex while registry mutex '" +
                 lk.mutex_text + "' is held (lock-order inversion)");
      } else if (f->blocks || f->quiesces) {
        flagged.insert(c.token);
        Emit(out, sf, "lock-discipline", c.line,
             "call to blocking '" + c.name +
                 "' while holding registry mutex '" + lk.mutex_text + "'");
      }
    }
  }
}

// ------------------------------------------------------------------ //
// streaming-lifecycle

bool IsStreamApiName(const std::string& name) {
  return name == "StreamBegin" || name == "StreamDeliver" ||
         name == "StreamFeedback" || name == "StreamRetire";
}

void CheckStreamingLifecycle(const SourceFile& sf, const FunctionInfo& fn,
                             const ProgramIndex* program,
                             std::vector<Finding>& out) {
  // The API definitions (and wrappers forwarding under the same name)
  // are the protocol's implementation, not a client of it.
  if (IsStreamApiName(fn.name) || fn.name == "Quiesce") return;
  std::vector<const CallSite*> begins, retires;
  for (const CallSite& c : fn.calls) {
    if (c.name == "StreamBegin") begins.push_back(&c);
    if (c.name == "StreamRetire" || c.name == "StreamFeedback") {
      retires.push_back(&c);
    }
  }
  // Helper calls whose facts retire on our behalf.
  bool helper_retires = false;
  std::size_t last_retire_tok = 0;
  for (const CallSite& c : fn.calls) {
    if (program && !IsStreamApiName(c.name) && c.name != fn.name) {
      const FunctionFacts* f = program->Facts(c.name);
      if (f && f->retires_stream) {
        helper_retires = true;
        last_retire_tok = std::max(last_retire_tok, c.token);
      }
    }
  }
  for (const CallSite* r : retires) {
    last_retire_tok = std::max(last_retire_tok, r->token);
  }

  if (!begins.empty()) {
    if (retires.empty() && !helper_retires) {
      Emit(out, sf, "streaming-lifecycle", begins.front()->line,
           "StreamBegin in '" + fn.name +
               "' is never matched by StreamRetire/StreamFeedback; the "
               "ticket cannot retire on any path");
    }
    // The statically-open region: from the first begin to the last
    // retire (or the end of the function when nothing retires).
    const std::size_t open_begin = begins.front()->token;
    const std::size_t open_end =
        last_retire_tok > 0 ? last_retire_tok : fn.body_end;
    for (const CallSite& c : fn.calls) {
      if (c.token <= open_begin || c.token >= open_end) continue;
      bool bad = c.name == "Quiesce" || c.name == "SnapshotModel" ||
                 c.name == "SaveSnapshot" || c.name == "Evict";
      if (!bad && program && !IsStreamApiName(c.name) &&
          c.name != fn.name) {
        const FunctionFacts* f = program->Facts(c.name);
        bad = f && f->quiesces;
      }
      if (bad) {
        Emit(out, sf, "streaming-lifecycle", c.line,
             "'" + c.name +
                 "' is reachable while a streamed ticket is statically "
                 "open (between StreamBegin and the last retire)");
      }
    }
  }
}

}  // namespace

std::vector<Finding> RunChecks(const SourceFile& sf,
                               const std::vector<std::string>& enabled,
                               const ProgramIndex* program) {
  std::vector<Finding> out;
  if (sf.io_error) return out;
  for (const FunctionInfo& fn : sf.functions) {
    if (Enabled(enabled, "readback-sync")) {
      CheckReadbackSync(sf, fn, program, out);
    }
    if (Enabled(enabled, "hot-alloc")) CheckHotAlloc(sf, fn, program, out);
    if (Enabled(enabled, "scratch-lifetime")) {
      CheckScratchLifetime(sf, fn, program, out);
    }
    if (Enabled(enabled, "lock-discipline")) {
      CheckLockDiscipline(sf, fn, program, out);
    }
    if (Enabled(enabled, "streaming-lifecycle")) {
      CheckStreamingLifecycle(sf, fn, program, out);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const Finding& a, const Finding& b) {
              if (a.line != b.line) return a.line < b.line;
              return a.check < b.check;
            });
  return out;
}

std::vector<Finding> RunProgramChecks(
    const ProgramIndex& index, const std::vector<std::string>& enabled) {
  std::vector<Finding> out;
  if (!Enabled(enabled, "snapshot-completeness")) return out;
  // Only meaningful when the index saw both a snapshot-friend class and
  // the codec: a header analyzed alone stays silent.
  if (!index.has_codec || index.snapshot_classes.empty()) return out;
  auto basename = [](const std::string& p) {
    const std::size_t pos = p.find_last_of('/');
    return pos == std::string::npos ? p : p.substr(pos + 1);
  };
  for (const auto& [path, cls] : index.snapshot_classes) {
    for (const SnapshotMember& mb : cls.members) {
      if (mb.excluded) continue;
      if (!index.save_fields.count(mb.name)) {
        Finding f;
        f.check = "snapshot-completeness";
        f.path = path;
        f.line = mb.line;
        f.message = "persistent member '" + mb.name + "' of '" + cls.name +
                    "' is never written by the snapshot save path "
                    "(ModelSnapshotAccess::Snapshot in " +
                    basename(index.codec_path) +
                    "); serialize it or annotate it with "
                    "FKDE_SNAPSHOT_EXCLUDE(reason)";
        out.push_back(std::move(f));
      }
      if (!index.restore_fields.count(mb.name)) {
        Finding f;
        f.check = "snapshot-completeness";
        f.path = path;
        f.line = mb.line;
        f.message = "persistent member '" + mb.name + "' of '" + cls.name +
                    "' is never restored by ModelSnapshotAccess::Restore "
                    "in " +
                    basename(index.codec_path) +
                    "; restore it or annotate it with "
                    "FKDE_SNAPSHOT_EXCLUDE(reason)";
        out.push_back(std::move(f));
      }
    }
  }
  return out;
}

}  // namespace fkde_lint
