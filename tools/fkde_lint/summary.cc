/// \file summary.cc
/// \brief TuSummary distillation, (de)serialization, and ProgramIndex
/// merging. The text format is documented in DESIGN §9.

#include "summary.h"

#include <sstream>

namespace fkde_lint {

namespace {

bool IsAllocName(std::string_view id) {
  return id == "malloc" || id == "calloc" || id == "realloc" ||
         id == "aligned_alloc" || id == "strdup" || id == "make_unique" ||
         id == "make_shared";
}

bool IsGrowthName(std::string_view id) {
  return id == "push_back" || id == "emplace_back" || id == "resize" ||
         id == "reserve" || id == "insert" || id == "emplace" ||
         id == "assign" || id == "append";
}

/// Body-wide allocation scan, mirroring the hot-alloc check's notion of
/// "allocates" so interprocedural hot-alloc agrees with the local one.
bool BodyAllocates(const SourceFile& sf, const FunctionInfo& fn) {
  const auto& toks = sf.stream.tokens;
  for (std::size_t j = fn.body_begin + 1; j < fn.body_end; ++j) {
    const Token& t = toks[j];
    if (t.kind != TokKind::kIdent) continue;
    const bool member = j > 0 && (IsPunct(toks[j - 1], ".") ||
                                  IsPunct(toks[j - 1], "->"));
    if (t.text == "new" && !member) return true;
    const bool called = j + 1 < fn.body_end && IsPunct(toks[j + 1], "(");
    if (!called) continue;
    if (IsAllocName(t.text)) return true;
    if (member && IsGrowthName(t.text)) return true;
  }
  return false;
}

/// Member names (trailing '_' preceded by '.'/'->') referenced inside
/// the body of `fn` — the codec field sets.
std::set<std::string> MemberAccessFields(const SourceFile& sf,
                                         const FunctionInfo& fn) {
  std::set<std::string> out;
  const auto& toks = sf.stream.tokens;
  for (std::size_t j = fn.body_begin + 1; j < fn.body_end; ++j) {
    const Token& t = toks[j];
    if (t.kind != TokKind::kIdent || t.text.size() < 2 ||
        t.text.back() != '_') {
      continue;
    }
    if (j > 0 && (IsPunct(toks[j - 1], ".") || IsPunct(toks[j - 1], "->"))) {
      out.insert(std::string(t.text));
    }
  }
  return out;
}

FunctionFacts DistillFacts(const SourceFile& sf, const FunctionInfo& fn) {
  FunctionFacts f;
  f.blocks = !fn.blocking_points.empty();
  f.allocates = BodyAllocates(sf, fn);
  for (const auto& [base, tok] : fn.finishes) {
    (void)base;
    (void)tok;
    f.drains = true;
  }
  for (const LockSite& lk : fn.locks) {
    if (lk.mutex_key.find("registry") != std::string::npos) {
      f.acquires_registry = true;
    } else if (!lk.try_lock) {
      f.acquires_admission = true;
    }
  }
  for (const CallSite& c : fn.calls) {
    if (c.name == "StreamBegin") f.begins_stream = true;
    if (c.name == "StreamRetire" || c.name == "StreamFeedback") {
      f.retires_stream = true;
    }
    if (c.name == "Quiesce" || c.name == "SnapshotModel" ||
        c.name == "SaveSnapshot" || c.name == "SaveModel") {
      f.quiesces = true;
    }
    if (c.name == "Synchronize") f.drains = true;
  }
  return f;
}

std::vector<std::string> SplitWs(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream ss(line);
  std::string w;
  while (ss >> w) out.push_back(std::move(w));
  return out;
}

}  // namespace

TuSummary Summarize(const SourceFile& sf) {
  TuSummary tu;
  tu.path = sf.path;
  tu.snapshot_classes = sf.snapshot_classes;
  for (const FunctionInfo& fn : sf.functions) {
    const FunctionFacts f = DistillFacts(sf, fn);
    if (!f.Any()) continue;
    // OR-merge across same-named overloads within the TU.
    FunctionFacts& slot = tu.facts[fn.name];
    slot.blocks |= f.blocks;
    slot.drains |= f.drains;
    slot.allocates |= f.allocates;
    slot.acquires_registry |= f.acquires_registry;
    slot.acquires_admission |= f.acquires_admission;
    slot.begins_stream |= f.begins_stream;
    slot.retires_stream |= f.retires_stream;
    slot.quiesces |= f.quiesces;
  }
  if (sf.defines_snapshot_codec) {
    tu.has_codec = true;
    for (const FunctionInfo& fn : sf.functions) {
      if (fn.name == "Snapshot") {
        auto fields = MemberAccessFields(sf, fn);
        tu.save_fields.insert(fields.begin(), fields.end());
        if (tu.save_line == 0) tu.save_line = fn.line;
      } else if (fn.name == "Restore") {
        auto fields = MemberAccessFields(sf, fn);
        tu.restore_fields.insert(fields.begin(), fields.end());
        if (tu.restore_line == 0) tu.restore_line = fn.line;
      }
    }
  }
  return tu;
}

std::string SerializeTuSummary(const TuSummary& tu) {
  std::ostringstream out;
  out << "fkde-lint-summary 1\n";
  out << "tu " << tu.path << "\n";
  for (const auto& [name, f] : tu.facts) {
    out << "fact " << name << ' ';
    if (f.blocks) out << 'b';
    if (f.drains) out << 'd';
    if (f.allocates) out << 'a';
    if (f.acquires_registry) out << 'r';
    if (f.acquires_admission) out << 'm';
    if (f.begins_stream) out << 'B';
    if (f.retires_stream) out << 'R';
    if (f.quiesces) out << 'q';
    out << "\n";
  }
  for (const SnapshotClassInfo& cls : tu.snapshot_classes) {
    out << "class " << cls.name << ' ' << cls.line << "\n";
    for (const SnapshotMember& mb : cls.members) {
      out << "member " << mb.name << ' ' << mb.line << ' '
          << (mb.excluded ? 1 : 0);
      if (!mb.reason.empty()) out << ' ' << mb.reason;
      out << "\n";
    }
    out << "endclass\n";
  }
  if (tu.has_codec) {
    out << "codec " << tu.save_line << ' ' << tu.restore_line << "\n";
    out << "save";
    for (const std::string& fld : tu.save_fields) out << ' ' << fld;
    out << "\nrestore";
    for (const std::string& fld : tu.restore_fields) out << ' ' << fld;
    out << "\n";
  }
  return out.str();
}

bool ParseTuSummary(const std::string& text, TuSummary* out) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || SplitWs(line) !=
      std::vector<std::string>{"fkde-lint-summary", "1"}) {
    return false;
  }
  SnapshotClassInfo* open_class = nullptr;
  while (std::getline(in, line)) {
    auto w = SplitWs(line);
    if (w.empty()) continue;
    if (w[0] == "tu" && w.size() >= 2) {
      out->path = w[1];
    } else if (w[0] == "fact" && w.size() >= 3) {
      FunctionFacts& f = out->facts[w[1]];
      for (char c : w[2]) {
        if (c == 'b') f.blocks = true;
        if (c == 'd') f.drains = true;
        if (c == 'a') f.allocates = true;
        if (c == 'r') f.acquires_registry = true;
        if (c == 'm') f.acquires_admission = true;
        if (c == 'B') f.begins_stream = true;
        if (c == 'R') f.retires_stream = true;
        if (c == 'q') f.quiesces = true;
      }
    } else if (w[0] == "class" && w.size() >= 3) {
      out->snapshot_classes.emplace_back();
      open_class = &out->snapshot_classes.back();
      open_class->name = w[1];
      open_class->line = std::atoi(w[2].c_str());
    } else if (w[0] == "member" && w.size() >= 4 && open_class) {
      SnapshotMember mb;
      mb.name = w[1];
      mb.line = std::atoi(w[2].c_str());
      mb.excluded = w[3] == "1";
      for (std::size_t i = 4; i < w.size(); ++i) {
        if (!mb.reason.empty()) mb.reason += ' ';
        mb.reason += w[i];
      }
      open_class->members.push_back(std::move(mb));
    } else if (w[0] == "endclass") {
      open_class = nullptr;
    } else if (w[0] == "codec" && w.size() >= 3) {
      out->has_codec = true;
      out->save_line = std::atoi(w[1].c_str());
      out->restore_line = std::atoi(w[2].c_str());
    } else if (w[0] == "save") {
      for (std::size_t i = 1; i < w.size(); ++i) out->save_fields.insert(w[i]);
    } else if (w[0] == "restore") {
      for (std::size_t i = 1; i < w.size(); ++i) {
        out->restore_fields.insert(w[i]);
      }
    }
  }
  return true;
}

void ProgramIndex::Add(const TuSummary& tu) {
  for (const auto& [name, f] : tu.facts) {
    FunctionFacts& slot = facts[name];
    slot.blocks |= f.blocks;
    slot.drains |= f.drains;
    slot.allocates |= f.allocates;
    slot.acquires_registry |= f.acquires_registry;
    slot.acquires_admission |= f.acquires_admission;
    slot.begins_stream |= f.begins_stream;
    slot.retires_stream |= f.retires_stream;
    slot.quiesces |= f.quiesces;
  }
  for (const SnapshotClassInfo& cls : tu.snapshot_classes) {
    bool dup = false;
    for (const auto& [path, existing] : snapshot_classes) {
      if (existing.name == cls.name) {
        dup = true;
        break;
      }
    }
    if (!dup) snapshot_classes.emplace_back(tu.path, cls);
  }
  if (tu.has_codec) {
    has_codec = true;
    if (codec_path.empty()) codec_path = tu.path;
    if (save_line == 0) save_line = tu.save_line;
    if (restore_line == 0) restore_line = tu.restore_line;
    save_fields.insert(tu.save_fields.begin(), tu.save_fields.end());
    restore_fields.insert(tu.restore_fields.begin(),
                          tu.restore_fields.end());
  }
}

const FunctionFacts* ProgramIndex::Facts(const std::string& name) const {
  auto it = facts.find(name);
  return it == facts.end() ? nullptr : &it->second;
}

}  // namespace fkde_lint
