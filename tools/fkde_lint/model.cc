/// \file model.cc
/// \brief The bundled token frontend: turns a TokenStream into the
/// SourceFile model described in model.h.
///
/// The extraction is a handful of linear passes per function body:
///
///   1. parameter registration,
///   2. a statement pass (aliasing, declarations, scratch/readback/
///      enqueue sites, named lambdas, returns),
///   3. a synchronization pass (Wait/Finish/blocking calls),
///   4. launch-site resolution (kernel body by token position, accessor
///      buffers),
///   5. escape finalization.
///
/// Precision notes live next to the code they concern; the guiding rule
/// is "no false positives on the real codebase".

#include "model.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>

namespace fkde_lint {

namespace {

/// Identifiers that do not name a buffer when they terminate a postfix
/// chain: `sums[si].get()` means `sums`, not `get`.
bool IsAccessorName(std::string_view s) {
  return s == "get" || s == "device_data" || s == "data" || s == "size" ||
         s == "begin" || s == "end" || s == "c_str" || s == "front" ||
         s == "back";
}

bool IsControlKeyword(std::string_view s) {
  return s == "if" || s == "for" || s == "while" || s == "switch" ||
         s == "catch" || s == "return" || s == "sizeof" || s == "alignof" ||
         s == "decltype" || s == "static_assert" || s == "new" ||
         s == "delete" || s == "else" || s == "do" || s == "case" ||
         s == "co_await" || s == "co_return" || s == "throw";
}

/// A bracket token that opens a balanced group we can jump over.
bool IsOpenBracket(const Token& t) {
  return t.kind == TokKind::kPunct && t.text.size() == 1 &&
         (t.text[0] == '(' || t.text[0] == '[' || t.text[0] == '{');
}

/// The typed accessors of src/parallel/device.h.
bool IsAccessor(std::string_view s) {
  return s == "In" || s == "Out" || s == "InOut" || s == "InIf";
}

}  // namespace

std::string FunctionInfo::Find(const std::string& key) const {
  std::string k = key;
  for (int guard = 0; guard < 64; ++guard) {
    auto it = parent.find(k);
    if (it == parent.end() || it->second == k) return k;
    k = it->second;
  }
  return k;
}

bool FunctionInfo::SameClass(const std::string& a,
                             const std::string& b) const {
  return Find(a) == Find(b);
}

std::string TerminalKey(const TokenStream& ts, std::size_t begin,
                        std::size_t end) {
  std::string result;
  std::size_t i = begin;
  end = std::min(end, ts.tokens.size());
  while (i < end) {
    const Token& t = ts.tokens[i];
    if (t.kind == TokKind::kPunct && t.text.size() == 1 &&
        (t.text[0] == '(' || t.text[0] == '[' || t.text[0] == '{')) {
      const std::size_t m = ts.match[i];
      i = (m > i && m < end) ? m + 1 : i + 1;
      continue;
    }
    if (t.kind == TokKind::kIdent) {
      bool accessor = false;
      if (IsAccessorName(t.text) && i > begin) {
        const Token& p = ts.tokens[i - 1];
        accessor = IsPunct(p, ".") || IsPunct(p, "->");
      }
      if (!accessor) result.assign(t.text);
    }
    ++i;
  }
  return result;
}

namespace {

/// Per-function extraction state and passes.
class Extractor {
 public:
  Extractor(const TokenStream& ts, const std::string& contents,
            FunctionInfo& fn)
      : ts_(ts), contents_(contents), fn_(fn) {}

  void Run() {
    RegisterParams();
    StatementPass();
    SyncPass();
    CallLockFieldPass();
    LaunchPass();
    Finalize();
  }

  void set_signature(std::size_t sig_open) { sig_open_ = sig_open; }

 private:
  const Token& Tok(std::size_t i) const { return ts_.tokens[i]; }
  std::size_t Match(std::size_t i) const { return ts_.match[i]; }

  std::size_t Offset(std::size_t i) const {
    return static_cast<std::size_t>(Tok(i).text.data() - contents_.data());
  }

  std::string Slice(std::size_t from_tok, std::size_t to_tok) const {
    const std::size_t a = Offset(from_tok);
    const std::size_t b = Offset(to_tok) + Tok(to_tok).text.size();
    return contents_.substr(a, b - a);
  }

  void Union(const std::string& a, const std::string& b) {
    if (a.empty() || b.empty() || a == b) return;
    const std::string ra = fn_.Find(a);
    const std::string rb = fn_.Find(b);
    if (ra != rb) fn_.parent[ra] = rb;
    fn_.parent.try_emplace(a, a);
    fn_.parent.try_emplace(b, b);
  }

  /// Splits [begin, end) by commas outside (), [], {} and <>.
  std::vector<std::pair<std::size_t, std::size_t>> SplitArgs(
      std::size_t begin, std::size_t end) const {
    std::vector<std::pair<std::size_t, std::size_t>> out;
    int angle = 0;
    std::size_t start = begin;
    for (std::size_t i = begin; i < end;) {
      const Token& t = Tok(i);
      if (IsOpenBracket(t)) {
        const std::size_t m = Match(i);
        i = (m > i && m <= end) ? m + 1 : i + 1;
        continue;
      }
      if (IsPunct(t, "<")) ++angle;
      if (IsPunct(t, ">") && angle > 0) --angle;
      if (IsPunct(t, ">>") && angle > 0) angle = std::max(0, angle - 2);
      if (IsPunct(t, ",") && angle == 0) {
        out.emplace_back(start, i);
        start = i + 1;
      }
      ++i;
    }
    if (start < end) out.emplace_back(start, end);
    return out;
  }

  /// First top-level `=` in [begin, end), or end.
  std::size_t FindTopEq(std::size_t begin, std::size_t end) const {
    for (std::size_t i = begin; i < end;) {
      const Token& t = Tok(i);
      if (IsOpenBracket(t)) {
        const std::size_t m = Match(i);
        i = (m > i && m <= end) ? m + 1 : i + 1;
        continue;
      }
      if (IsPunct(t, "=")) return i;
      ++i;
    }
    return end;
  }

  bool HasTopPunct(std::size_t begin, std::size_t end,
                   std::string_view p) const {
    for (std::size_t i = begin; i < end;) {
      const Token& t = Tok(i);
      if (IsOpenBracket(t)) {
        const std::size_t m = Match(i);
        i = (m > i && m <= end) ? m + 1 : i + 1;
        continue;
      }
      if (IsPunct(t, p)) return true;
      ++i;
    }
    return false;
  }

  std::string FirstIdent(std::size_t begin, std::size_t end) const {
    for (std::size_t i = begin; i < end; ++i) {
      if (Tok(i).kind == TokKind::kIdent) return std::string(Tok(i).text);
    }
    return {};
  }

  void RegisterParams() {
    if (sig_open_ == 0) return;
    const std::size_t close = Match(sig_open_);
    if (close <= sig_open_) return;
    for (auto [b, e] : SplitArgs(sig_open_ + 1, close)) {
      const std::size_t eq = FindTopEq(b, e);
      const std::string name = TerminalKey(ts_, b, eq);
      if (name.empty() || name == "void") continue;
      fn_.locals.insert(name);
      fn_.escaping.insert(name);
    }
  }

  // --------------------------------------------------------------- //

  void StatementPass() {
    std::size_t i = fn_.body_begin + 1;
    std::size_t stmt_start = i;
    while (i < fn_.body_end) {
      const Token& t = Tok(i);
      if (t.kind == TokKind::kPunct && t.text.size() == 1) {
        const char c = t.text[0];
        if (c == '(' || c == '[') {
          const std::size_t m = Match(i);
          i = (m > i) ? m + 1 : i + 1;
          continue;
        }
        if (c == '{') {
          // Initializer / lambda-body braces belong to the current
          // statement when an `=` (or `return`) was already seen;
          // otherwise this opens a block.
          const bool in_stmt =
              FindTopEq(stmt_start, i) != i ||
              (stmt_start < i && IsIdent(Tok(stmt_start), "return"));
          if (in_stmt) {
            const std::size_t m = Match(i);
            i = (m > i) ? m + 1 : i + 1;
            continue;
          }
          ProcessStmt(stmt_start, i);
          ++i;
          stmt_start = i;
          continue;
        }
        if (c == '}' || c == ';') {
          ProcessStmt(stmt_start, i);
          ++i;
          stmt_start = i;
          continue;
        }
      }
      ++i;
    }
    ProcessStmt(stmt_start, fn_.body_end);
  }

  void ProcessStmt(std::size_t s, std::size_t e) {
    if (s >= e) return;
    // Strip leading else / if(...) / for(...) / while(...).
    for (int guard = 0; guard < 8 && s < e; ++guard) {
      if (IsIdent(Tok(s), "else")) {
        ++s;
        continue;
      }
      if ((IsIdent(Tok(s), "if") || IsIdent(Tok(s), "for") ||
           IsIdent(Tok(s), "while")) &&
          s + 1 < e && IsPunct(Tok(s + 1), "(")) {
        const std::size_t m = Match(s + 1);
        if (m <= s + 1 || m >= e) return;  // Header only; no tail stmt.
        s = m + 1;
        continue;
      }
      break;
    }
    if (s >= e) return;

    if (IsIdent(Tok(s), "return")) {
      const std::string key = TerminalKey(ts_, s + 1, e);
      if (!key.empty()) fn_.returned.insert(key);
      return;
    }

    const std::size_t eq = FindTopEq(s, e);
    if (eq < e) {
      const bool has_member = HasTopPunct(s, eq, ".") ||
                              HasTopPunct(s, eq, "->");
      const std::string lhs_terminal = TerminalKey(ts_, s, eq);
      const std::string lhs_base =
          has_member ? FirstIdent(s, eq) : lhs_terminal;
      if (ClassifyDecl(s, eq, has_member)) {
        RegisterDecl(s, eq, lhs_terminal, eq + 1, e);
      }
      HandleRhs(eq, e, lhs_base, lhs_terminal);
    } else {
      HandleNoEqStmt(s, e);
    }
  }

  bool ClassifyDecl(std::size_t s, std::size_t eq, bool has_member) const {
    if (has_member) return false;
    if (eq - s < 2) return false;
    if (Tok(s).kind == TokKind::kPunct) return false;  // `*out = ...`
    // Count identifiers before the first `[` (if any).
    int idents_before_bracket = 0;
    for (std::size_t i = s; i < eq; ++i) {
      if (IsPunct(Tok(i), "[")) {
        return idents_before_bracket >= 2;
      }
      if (Tok(i).kind == TokKind::kIdent) ++idents_before_bracket;
    }
    return idents_before_bracket >= 2;  // Single ident => assignment.
  }

  void RegisterDecl(std::size_t s, std::size_t eq, const std::string& name,
                    std::size_t rhs_b, std::size_t rhs_e) {
    if (name.empty()) return;
    fn_.locals.insert(name);
    std::string type;
    for (std::size_t i = s; i < eq; ++i) {
      if (Tok(i).text == name && i + 1 >= eq) break;
      type.append(Tok(i).text);
      type.push_back(' ');
    }
    if (type.find("Scratch") != std::string::npos) {
      fn_.scratch_handles.insert(name);
    }
    if (type.find('&') != std::string::npos) {
      // Reference declaration: remember the init's identifiers; the
      // name escapes when any of them does (resolved in Finalize()).
      std::vector<std::string> ids;
      for (std::size_t i = rhs_b; i < rhs_e; ++i) {
        if (Tok(i).kind == TokKind::kIdent &&
            !IsAccessorName(Tok(i).text)) {
          ids.emplace_back(Tok(i).text);
        }
      }
      ref_inits_[name] = std::move(ids);
    }
  }

  void HandleRhs(std::size_t eq, std::size_t e,
                 const std::string& lhs_base,
                 const std::string& lhs_terminal) {
    const std::size_t b = eq + 1;
    // Named lambda variable?
    if (b < e && IsPunct(Tok(b), "[")) {
      LambdaInfo info = ParseLambda(b, e);
      if (info.valid && !lhs_terminal.empty()) {
        info.decl_token = eq;
        fn_.lambda_vars.emplace_back(lhs_terminal, info);
        return;
      }
    }

    bool handled_alias = false;
    for (std::size_t j = b; j < e; ++j) {
      if (Tok(j).kind != TokKind::kIdent) continue;
      const std::string_view id = Tok(j).text;
      if (id == "AcquireScratch") {
        fn_.scratches.push_back(
            {Tok(j).line, j, lhs_base, lhs_terminal});
        if (!lhs_terminal.empty()) fn_.scratch_handles.insert(lhs_terminal);
        handled_alias = true;
      } else if (id == "CreateBuffer" || id == "make_shared" ||
                 id == "make_unique") {
        handled_alias = true;
      } else if (id.size() > 7 && id.substr(0, 7) == "Enqueue" &&
                 j + 1 < e && IsPunct(Tok(j + 1), "(")) {
        const std::string qbase = FirstIdent(b, j);
        fn_.enqueue_assigns.push_back(
            {qbase, lhs_base.empty() ? lhs_terminal : lhs_base, false, j});
        const std::size_t close = Match(j + 1);
        if (close > j + 1) fn_.async_arg_spans.emplace_back(j + 2, close);
        if (id == "EnqueueCopyToHost") {
          fn_.readbacks.push_back({Tok(j).line, j, qbase,
                                   lhs_base.empty() ? lhs_terminal
                                                    : lhs_base,
                                   lhs_terminal, false});
        }
        handled_alias = true;
      }
    }
    if (handled_alias || lhs_terminal.empty()) return;

    // Chain-only RHS: alias unless it is a plain call `Name(args)`.
    if (!IsChainOnly(b, e)) return;
    for (auto [ab, ae] : TernaryArms(b, e)) {
      std::size_t last_ident = ae;
      for (std::size_t j = ab; j < ae;) {
        if (IsOpenBracket(Tok(j))) {
          const std::size_t m = Match(j);
          j = (m > j && m <= ae) ? m + 1 : j + 1;
          continue;
        }
        if (Tok(j).kind == TokKind::kIdent) last_ident = j;
        ++j;
      }
      if (last_ident == ae) continue;
      const std::string term = TerminalKey(ts_, ab, ae);
      if (term.empty() || term == "nullptr" || term == "this") continue;
      if (last_ident + 1 < ae && IsPunct(Tok(last_ident + 1), "(") &&
          Tok(last_ident).text == term) {
        continue;
      }
      Union(lhs_terminal, term);
      if (fn_.scratch_handles.count(term)) {
        fn_.scratch_handles.insert(lhs_terminal);
      }
    }
  }

  void HandleNoEqStmt(std::size_t s, std::size_t e) {
    for (std::size_t j = s; j < e; ++j) {
      if (Tok(j).kind != TokKind::kIdent) continue;
      const std::string_view id = Tok(j).text;
      if (id == "AcquireScratch") {
        fn_.scratches.push_back({Tok(j).line, j, "", ""});
      } else if (id == "swap" && j + 1 < e && IsPunct(Tok(j + 1), "(")) {
        const std::size_t close = Match(j + 1);
        if (close > j + 1) {
          auto args = SplitArgs(j + 2, close);
          if (args.size() == 2) {
            Union(TerminalKey(ts_, args[0].first, args[0].second),
                  TerminalKey(ts_, args[1].first, args[1].second));
          }
        }
      } else if (id.size() > 7 && id.substr(0, 7) == "Enqueue" &&
                 j + 1 < e && IsPunct(Tok(j + 1), "(")) {
        const std::size_t close = Match(j + 1);
        if (close > j + 1) fn_.async_arg_spans.emplace_back(j + 2, close);
        if (id == "EnqueueCopyToHost") {
          bool chained = close + 2 < e && IsPunct(Tok(close + 1), ".") &&
                         IsIdent(Tok(close + 2), "Wait");
          fn_.readbacks.push_back(
              {Tok(j).line, j, FirstIdent(s, j), "", "", chained});
        }
      }
    }
    // Declaration without initializer: `Type name;`, `Type name[N];`,
    // `Type name(args);`.
    RegisterPlainDecl(s, e);
  }

  void RegisterPlainDecl(std::size_t s, std::size_t e) {
    if (HasTopPunct(s, e, ".") || HasTopPunct(s, e, "->")) return;
    if (Tok(s).kind != TokKind::kIdent || IsControlKeyword(Tok(s).text)) {
      return;
    }
    int idents = 0;
    std::string name;
    std::string type;
    int angle = 0;
    for (std::size_t i = s; i < e; ++i) {
      const Token& t = Tok(i);
      if (IsPunct(t, "<")) ++angle;
      if (IsPunct(t, ">") && angle > 0) --angle;
      if (IsPunct(t, "[")) {
        if (idents >= 2 && !name.empty()) break;
        return;
      }
      if (IsPunct(t, "(")) {
        // Declaration with ctor args needs >= 2 identifiers before the
        // paren and the name must not be `::`-qualified (a call).
        if (idents >= 2 && !name.empty() && i >= 1 &&
            Tok(i - 1).kind == TokKind::kIdent &&
            !(i >= 2 && IsPunct(Tok(i - 2), "::"))) {
          break;
        }
        return;
      }
      if (t.kind == TokKind::kIdent && angle == 0) {
        ++idents;
        if (!name.empty()) {
          type.append(name);
          type.push_back(' ');
        }
        name.assign(t.text);
      } else if (t.kind == TokKind::kPunct &&
                 (t.text == "*" || t.text == "&" || t.text == "::")) {
        if (!name.empty()) {
          type.append(name);
          type.push_back(' ');
          name.clear();
        }
        type.append(t.text);
        type.push_back(' ');
      }
    }
    if (idents < 2 || name.empty()) return;
    fn_.locals.insert(name);
    if (type.find("Scratch") != std::string::npos) {
      fn_.scratch_handles.insert(name);
    }
  }

  LambdaInfo ParseLambda(std::size_t open, std::size_t limit) {
    LambdaInfo info;
    const std::size_t close = Match(open);
    if (close <= open || close >= limit) return info;
    for (auto [b, e] : SplitArgs(open + 1, close)) {
      if (b >= e) continue;
      if (e - b == 1 && (IsPunct(Tok(b), "=") || IsPunct(Tok(b), "&"))) {
        info.capture_default = true;
        continue;
      }
      std::string name;
      for (std::size_t i = b; i < e; ++i) {
        if (Tok(i).kind == TokKind::kIdent) {
          name.assign(Tok(i).text);
          break;
        }
      }
      if (name.empty()) continue;
      info.captures.push_back(name);
      // Init capture `[x = expr]`: alias the capture to its source.
      const std::size_t ieq = FindTopEq(b, e);
      if (ieq < e && IsChainOnly(ieq + 1, e)) {
        Union(name, TerminalKey(ts_, ieq + 1, e));
      }
    }
    std::size_t j = close + 1;
    if (j < limit && IsPunct(Tok(j), "(")) {
      const std::size_t m = Match(j);
      if (m <= j) return info;
      j = m + 1;
    }
    for (int guard = 0; guard < 32 && j < limit; ++guard) {
      if (IsIdent(Tok(j), "mutable") || IsIdent(Tok(j), "constexpr")) {
        ++j;
        continue;
      }
      if (IsIdent(Tok(j), "noexcept")) {
        ++j;
        if (j < limit && IsPunct(Tok(j), "(")) j = Match(j) + 1;
        continue;
      }
      if (IsPunct(Tok(j), "->")) {
        ++j;
        while (j < limit && !IsPunct(Tok(j), "{")) ++j;
        continue;
      }
      break;
    }
    if (j >= limit || !IsPunct(Tok(j), "{")) return info;
    const std::size_t bend = Match(j);
    if (bend <= j) return info;
    info.body_begin = j;
    info.body_end = bend;
    info.line = Tok(open).line;
    info.valid = true;
    return info;
  }

  bool IsChainOnly(std::size_t b, std::size_t e) const {
    for (std::size_t i = b; i < e; ++i) {
      const Token& t = Tok(i);
      switch (t.kind) {
        case TokKind::kIdent:
        case TokKind::kNumber:
          continue;
        case TokKind::kString:
          return false;
        case TokKind::kPunct:
          if (t.text == "::" || t.text == "." || t.text == "->" ||
              t.text == "(" || t.text == ")" || t.text == "[" ||
              t.text == "]" || t.text == "&" || t.text == "*" ||
              t.text == "?" || t.text == ":" || t.text == ",") {
            continue;
          }
          return false;
        case TokKind::kEnd:
          return false;
      }
    }
    return true;
  }

  std::vector<std::pair<std::size_t, std::size_t>> TernaryArms(
      std::size_t b, std::size_t e) const {
    std::vector<std::pair<std::size_t, std::size_t>> out;
    std::size_t start = b;
    for (std::size_t i = b; i < e;) {
      if (IsOpenBracket(Tok(i))) {
        const std::size_t m = Match(i);
        i = (m > i && m <= e) ? m + 1 : i + 1;
        continue;
      }
      if (IsPunct(Tok(i), "?") || IsPunct(Tok(i), ":")) {
        out.emplace_back(start, i);
        start = i + 1;
      }
      ++i;
    }
    out.emplace_back(start, e);
    return out;
  }

  // --------------------------------------------------------------- //

  void SyncPass() {
    for (std::size_t j = fn_.body_begin + 1; j < fn_.body_end; ++j) {
      if (Tok(j).kind != TokKind::kIdent) continue;
      const std::string_view id = Tok(j).text;
      const bool called = j + 1 < fn_.body_end && IsPunct(Tok(j + 1), "(");
      if (!called) continue;
      const bool member = j > 0 && (IsPunct(Tok(j - 1), ".") ||
                                    IsPunct(Tok(j - 1), "->"));
      if (id == "Wait" && member && IsPunct(Tok(j - 1), ".")) {
        fn_.blocking_points.push_back(j);
        const std::string base = PostfixChainBase(j - 2);
        if (!base.empty()) fn_.waited_bases.insert(base);
      } else if (id == "Finish" && member) {
        fn_.blocking_points.push_back(j);
        fn_.finishes.emplace_back(PostfixChainBase(j - 2), j);
      } else if ((id == "CopyToHost" || id == "CopyToDevice" ||
                  id == "Launch" || id == "Synchronize") &&
                 member) {
        fn_.blocking_points.push_back(j);
      } else if (id == "ReduceSum" || id == "ReduceSumSegments") {
        fn_.blocking_points.push_back(j);
      }
    }
  }

  // --------------------------------------------------------------- //

  /// Records every named call site, scoped-lock acquisition, and
  /// trailing-underscore member reference — the raw material for the
  /// lock-discipline and streaming-lifecycle checks and for
  /// interprocedural function facts.
  void CallLockFieldPass() {
    for (std::size_t j = fn_.body_begin + 1; j < fn_.body_end; ++j) {
      const Token& t = Tok(j);
      if (t.kind != TokKind::kIdent) continue;
      const std::string_view id = t.text;
      if (id.size() > 1 && id.back() == '_') {
        fn_.fields.insert(std::string(id));
      }
      if (id == "lock_guard" || id == "unique_lock" ||
          id == "scoped_lock") {
        RecordLock(j);
        continue;
      }
      if (j + 1 < fn_.body_end && IsPunct(Tok(j + 1), "(") &&
          !IsControlKeyword(id)) {
        CallSite cs;
        cs.name.assign(id);
        cs.token = j;
        cs.line = t.line;
        cs.member =
            IsPunct(Tok(j - 1), ".") || IsPunct(Tok(j - 1), "->");
        if (cs.member && j >= 2) cs.base = PostfixChainBase(j - 2);
        fn_.calls.push_back(std::move(cs));
      }
    }
  }

  /// Token index of the '}' closing the innermost brace scope that
  /// contains `pos` (the function's own '}' when unnested).
  std::size_t EnclosingScopeEnd(std::size_t pos) const {
    std::size_t best = fn_.body_end;
    for (std::size_t i = fn_.body_begin + 1; i < pos; ++i) {
      if (!IsPunct(Tok(i), "{")) continue;
      const std::size_t m = Match(i);
      if (m > pos && m <= fn_.body_end && m < best) best = m;
    }
    return best;
  }

  /// `j` names lock_guard / unique_lock / scoped_lock. Parses
  /// `<...> var(mutex[, policy])` and records one LockSite per mutex
  /// argument (scoped_lock may take several).
  void RecordLock(std::size_t j) {
    std::size_t k = j + 1;
    if (k < fn_.body_end && IsPunct(Tok(k), "<")) {
      int depth = 0;
      while (k < fn_.body_end) {
        if (IsPunct(Tok(k), "<")) {
          ++depth;
        } else if (IsPunct(Tok(k), ">")) {
          if (--depth == 0) {
            ++k;
            break;
          }
        } else if (IsPunct(Tok(k), ">>")) {
          depth -= 2;
          if (depth <= 0) {
            ++k;
            break;
          }
        }
        ++k;
      }
    }
    if (k >= fn_.body_end || Tok(k).kind != TokKind::kIdent) return;
    ++k;
    if (k >= fn_.body_end || !IsPunct(Tok(k), "(")) return;
    const std::size_t close = Match(k);
    if (close <= k) return;
    const auto args = SplitArgs(k + 1, close);
    if (args.empty()) return;
    bool try_lock = false;
    for (std::size_t a = 1; a < args.size(); ++a) {
      for (std::size_t p = args[a].first; p < args[a].second; ++p) {
        if (Tok(p).kind == TokKind::kIdent &&
            (Tok(p).text == "try_to_lock" || Tok(p).text == "defer_lock")) {
          try_lock = true;
        }
      }
    }
    const bool multi = Tok(j).text == "scoped_lock";
    const std::size_t scope_end = EnclosingScopeEnd(j);
    const std::size_t count = multi ? args.size() : 1;
    for (std::size_t a = 0; a < count && a < args.size(); ++a) {
      if (args[a].second <= args[a].first) continue;
      const std::string key =
          TerminalKey(ts_, args[a].first, args[a].second);
      if (key.empty() || key == "try_to_lock" || key == "defer_lock" ||
          key == "adopt_lock") {
        continue;
      }
      LockSite lk;
      lk.mutex_key = key;
      lk.mutex_text = Slice(args[a].first, args[a].second - 1);
      lk.token = j;
      lk.scope_end = scope_end;
      lk.line = Tok(j).line;
      lk.try_lock = try_lock;
      fn_.locks.push_back(std::move(lk));
    }
  }

  /// First identifier of the postfix chain ending at token `k`
  /// (`done[si].Wait()` from the `]`/ident before `.Wait` -> "done").
  std::string PostfixChainBase(std::size_t k) const {
    std::string base;
    for (int guard = 0; guard < 256; ++guard) {
      const Token& t = Tok(k);
      if (t.kind == TokKind::kPunct && t.text.size() == 1 &&
          (t.text[0] == ']' || t.text[0] == ')')) {
        const std::size_t m = Match(k);
        if (m >= k || m == 0) break;
        k = m - 1;
        continue;
      }
      if (t.kind == TokKind::kIdent) {
        base.assign(t.text);
        if (k >= 2 && (IsPunct(Tok(k - 1), ".") ||
                       IsPunct(Tok(k - 1), "->"))) {
          k -= 2;
          continue;
        }
        break;
      }
      break;
    }
    return base;
  }

  // --------------------------------------------------------------- //

  void LaunchPass() {
    for (std::size_t j = fn_.body_begin + 1; j < fn_.body_end; ++j) {
      if (Tok(j).kind != TokKind::kIdent) continue;
      const bool is_enqueue = Tok(j).text == "EnqueueLaunch";
      const bool is_direct =
          Tok(j).text == "Launch" && j > 0 &&
          (IsPunct(Tok(j - 1), "->") || IsPunct(Tok(j - 1), "."));
      if (!is_enqueue && !is_direct) continue;
      if (j + 1 >= fn_.body_end || !IsPunct(Tok(j + 1), "(")) continue;
      const std::size_t close = Match(j + 1);
      if (close <= j + 1) continue;
      auto args = SplitArgs(j + 2, close);

      LaunchSite ls;
      ls.line = Tok(j).line;
      ls.token = j;
      if (!args.empty() && Tok(args[0].first).kind == TokKind::kString) {
        std::string_view lit = Tok(args[0].first).text;
        if (lit.size() >= 2) ls.kernel_name.assign(lit.substr(1, lit.size() - 2));
      }
      // Span form: the body is argument 3. Accessor form: argument 3 is
      // the accessor tuple and the body follows it.
      if (args.size() > 3) ResolveBody(args[3], j, ls);
      if (!ls.body_resolved && args.size() > 4) {
        CollectAccessorBuffers(args[3], ls);
        ResolveBody(args[4], j, ls);
      }
      fn_.launches.push_back(std::move(ls));
    }
  }

  void ResolveBody(std::pair<std::size_t, std::size_t> arg, std::size_t site,
                   LaunchSite& ls) {
    auto [b, e] = arg;
    if (b >= e) return;
    if (IsPunct(Tok(b), "[")) {
      ls.body = ParseLambda(b, e + 1);
      ls.body_resolved = ls.body.valid;
      return;
    }
    if (e - b == 1 && Tok(b).kind == TokKind::kIdent) {
      const std::string name(Tok(b).text);
      for (auto it = fn_.lambda_vars.rbegin(); it != fn_.lambda_vars.rend();
           ++it) {
        if (it->first == name && it->second.decl_token < site) {
          ls.body = it->second;
          ls.body_resolved = true;
          return;
        }
      }
    }
  }

  /// Records the buffer argument of every accessor call in `arg` (the
  /// second argument of `InIf`, the first of the others) unless it is
  /// dereferenced: `Out(tmp, ...)` leases the scratch, `Out(*tmp, ...)`
  /// does not.
  void CollectAccessorBuffers(std::pair<std::size_t, std::size_t> arg,
                              LaunchSite& ls) {
    for (std::size_t i = arg.first; i + 1 < arg.second; ++i) {
      if (Tok(i).kind != TokKind::kIdent || !IsAccessor(Tok(i).text) ||
          !IsPunct(Tok(i + 1), "(")) {
        continue;
      }
      const std::size_t close = Match(i + 1);
      if (close <= i + 1) continue;
      const auto args = SplitArgs(i + 2, close);
      const std::size_t which = Tok(i).text == "InIf" ? 1 : 0;
      if (args.size() <= which) continue;
      const auto [b, e] = args[which];
      if (b >= e || IsPunct(Tok(b), "*")) continue;
      const std::string key = TerminalKey(ts_, b, e);
      if (!key.empty()) ls.accessor_buffers.push_back(key);
    }
  }

  // --------------------------------------------------------------- //

  void Finalize() {
    for (const std::string& r : fn_.returned) fn_.escaping.insert(r);
    // Reference declarations escape when any init identifier does;
    // two rounds cover ref-of-ref chains.
    for (int round = 0; round < 2; ++round) {
      for (const auto& [name, ids] : ref_inits_) {
        for (const std::string& id : ids) {
          if (!fn_.locals.count(id) || fn_.escaping.count(id)) {
            fn_.escaping.insert(name);
            break;
          }
        }
      }
    }
    for (auto& ea : fn_.enqueue_assigns) {
      ea.lhs_escapes = !ea.lhs_base.empty() &&
                       (fn_.escaping.count(ea.lhs_base) ||
                        !fn_.locals.count(ea.lhs_base));
    }
  }

  const TokenStream& ts_;
  const std::string& contents_;
  FunctionInfo& fn_;
  std::size_t sig_open_ = 0;
  std::map<std::string, std::vector<std::string>> ref_inits_;
};

/// Finds function definitions: `name (params) [quals] { body }`.
struct FnCandidate {
  std::string name;
  std::size_t sig_open = 0;
  std::size_t body_begin = 0;
  std::size_t body_end = 0;
  int line = 0;
  bool hot = false;
};

std::vector<FnCandidate> FindFunctions(const TokenStream& ts) {
  std::vector<FnCandidate> out;
  const auto& toks = ts.tokens;
  for (std::size_t i = 1; i + 1 < toks.size(); ++i) {
    if (!IsPunct(toks[i], "(")) continue;
    const std::size_t close = ts.match[i];
    if (close <= i) continue;
    const Token& prev = toks[i - 1];
    if (prev.kind != TokKind::kIdent || IsControlKeyword(prev.text)) {
      continue;
    }
    if (i >= 2 && IsPunct(toks[i - 2], "]")) continue;  // Lambda.
    // Walk from the `)` to the body `{`, skipping qualifiers, trailing
    // return types, and constructor initializer lists.
    std::size_t j = close + 1;
    bool ok = true;
    for (int guard = 0; guard < 128 && j < toks.size(); ++guard) {
      const Token& t = toks[j];
      if (IsIdent(t, "const") || IsIdent(t, "override") ||
          IsIdent(t, "final") || IsIdent(t, "mutable")) {
        ++j;
        continue;
      }
      if (IsIdent(t, "noexcept") || IsIdent(t, "throw")) {
        ++j;
        if (j < toks.size() && IsPunct(toks[j], "(")) {
          const std::size_t m = ts.match[j];
          if (m <= j) { ok = false; break; }
          j = m + 1;
        }
        continue;
      }
      if (IsPunct(t, "&") || IsPunct(t, "&&")) {
        ++j;
        continue;
      }
      if (IsPunct(t, "->")) {  // Trailing return type.
        ++j;
        while (j < toks.size() && !IsPunct(toks[j], "{") &&
               !IsPunct(toks[j], ";") && !IsPunct(toks[j], "=")) {
          ++j;
        }
        continue;
      }
      if (IsPunct(t, ":")) {  // Constructor initializer list.
        ++j;
        bool init_ok = true;
        for (int g2 = 0; g2 < 64 && j < toks.size(); ++g2) {
          while (j < toks.size() && (toks[j].kind == TokKind::kIdent ||
                                     IsPunct(toks[j], "::"))) {
            ++j;
          }
          if (j >= toks.size() ||
              (!IsPunct(toks[j], "(") && !IsPunct(toks[j], "{"))) {
            init_ok = false;
            break;
          }
          const std::size_t m = ts.match[j];
          if (m <= j) { init_ok = false; break; }
          j = m + 1;
          if (j < toks.size() && IsPunct(toks[j], ",")) {
            ++j;
            continue;
          }
          break;
        }
        if (!init_ok) ok = false;
        if (!ok) break;
        continue;
      }
      if (IsPunct(t, "{")) break;
      ok = false;
      break;
    }
    if (!ok || j >= toks.size() || !IsPunct(toks[j], "{")) continue;
    const std::size_t bend = ts.match[j];
    if (bend <= j) continue;
    FnCandidate c;
    c.name.assign(prev.text);
    c.sig_open = i;
    c.body_begin = j;
    c.body_end = bend;
    c.line = toks[j].line;
    // FKDE_HOT anywhere in the signature tokens (back to the previous
    // statement/body boundary).
    for (std::size_t k = i; k-- > 0;) {
      if (IsPunct(toks[k], ";") || IsPunct(toks[k], "}") ||
          IsPunct(toks[k], "{")) {
        break;
      }
      if (IsIdent(toks[k], "FKDE_HOT")) {
        c.hot = true;
        break;
      }
      if (i - k > 64) break;
    }
    out.push_back(std::move(c));
  }
  // Keep only candidates not nested inside another candidate's body.
  std::vector<FnCandidate> top;
  for (const FnCandidate& c : out) {
    bool nested = false;
    for (const FnCandidate& o : out) {
      if (o.body_begin < c.sig_open && c.body_end < o.body_end) {
        nested = true;
        break;
      }
    }
    if (!nested) top.push_back(c);
  }
  return top;
}

/// Finds classes declaring `friend class ModelSnapshotAccess` and
/// collects their persistent members (trailing-underscore names at
/// class scope). A member may be excluded from the snapshot audit by a
/// preceding `FKDE_SNAPSHOT_EXCLUDE("reason")` macro or a
/// `// FKDE_SNAPSHOT_EXCLUDE(reason)` comment on the same or previous
/// line. Also flags the TU that defines the codec class itself.
void ScanSnapshotClasses(SourceFile& sf) {
  const TokenStream& ts = sf.stream;
  const auto& toks = ts.tokens;

  std::map<int, std::string> comment_excludes;
  for (const Comment& c : ts.comments) {
    const std::size_t pos = c.text.find("FKDE_SNAPSHOT_EXCLUDE");
    if (pos == std::string_view::npos) continue;
    std::string reason;
    const std::size_t open = c.text.find('(', pos);
    const std::size_t closep = c.text.rfind(')');
    if (open != std::string_view::npos &&
        closep != std::string_view::npos && closep > open) {
      reason.assign(c.text.substr(open + 1, closep - open - 1));
    }
    // Covers a member on the comment's own line(s) or the next one.
    for (int line = c.line; line <= c.end_line + 1; ++line) {
      comment_excludes[line] = reason;
    }
  }

  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if (!IsIdent(toks[i], "class") && !IsIdent(toks[i], "struct")) continue;
    if (toks[i + 1].kind != TokKind::kIdent) continue;
    const std::string name(toks[i + 1].text);
    // Find the class body '{', bailing on forward declarations and
    // template-parameter uses of the keyword.
    std::size_t b = i + 2;
    while (b < toks.size() && !IsPunct(toks[b], "{") &&
           !IsPunct(toks[b], ";") && !IsPunct(toks[b], "(") &&
           !IsPunct(toks[b], ">") && !IsPunct(toks[b], ",")) {
      ++b;
    }
    if (b >= toks.size() || !IsPunct(toks[b], "{")) continue;
    const std::size_t end = ts.match[b];
    if (end <= b) continue;
    if (name == "ModelSnapshotAccess") sf.defines_snapshot_codec = true;

    bool is_snapshot_class = false;
    for (std::size_t k = b + 1; k + 2 < end; ++k) {
      if (IsIdent(toks[k], "friend") && IsIdent(toks[k + 1], "class") &&
          IsIdent(toks[k + 2], "ModelSnapshotAccess")) {
        is_snapshot_class = true;
        break;
      }
    }
    if (!is_snapshot_class) continue;

    SnapshotClassInfo info;
    info.name = name;
    info.line = toks[i].line;
    bool pending_exclude = false;
    std::string pending_reason;
    std::size_t k = b + 1;
    while (k < end) {
      const Token& t = toks[k];
      if (IsIdent(t, "FKDE_SNAPSHOT_EXCLUDE") && k + 1 < end &&
          IsPunct(toks[k + 1], "(")) {
        const std::size_t m = ts.match[k + 1];
        pending_exclude = true;
        pending_reason.clear();
        if (m > k + 2 && toks[k + 2].kind == TokKind::kString) {
          std::string_view lit = toks[k + 2].text;
          if (lit.size() >= 2) {
            pending_reason.assign(lit.substr(1, lit.size() - 2));
          }
        }
        k = m > k + 1 ? m + 1 : k + 2;
        continue;
      }
      if (IsPunct(t, "(")) {
        // Member function: skip parameters, qualifiers, and any inline
        // body so its local mentions don't read as data members.
        const std::size_t m = ts.match[k];
        if (m <= k) {
          ++k;
          continue;
        }
        std::size_t j = m + 1;
        for (int guard = 0; guard < 32 && j < end; ++guard) {
          if (IsIdent(toks[j], "const") || IsIdent(toks[j], "override") ||
              IsIdent(toks[j], "final") || IsIdent(toks[j], "noexcept") ||
              IsPunct(toks[j], "&") || IsPunct(toks[j], "&&")) {
            ++j;
            continue;
          }
          if (IsPunct(toks[j], "->")) {
            while (j < end && !IsPunct(toks[j], "{") &&
                   !IsPunct(toks[j], ";")) {
              ++j;
            }
            continue;
          }
          if (IsPunct(toks[j], "{")) {
            const std::size_t bm = ts.match[j];
            j = bm > j ? bm + 1 : j + 1;
          }
          break;
        }
        k = j;
        continue;
      }
      if (IsPunct(t, "{")) {
        // Nested class/enum body or a brace initializer.
        const std::size_t m = ts.match[k];
        k = m > k ? m + 1 : k + 1;
        continue;
      }
      if (t.kind == TokKind::kIdent && t.text.size() > 1 &&
          t.text.back() == '_' && k + 1 < end &&
          (IsPunct(toks[k + 1], ";") || IsPunct(toks[k + 1], "=") ||
           IsPunct(toks[k + 1], "{"))) {
        SnapshotMember mb;
        mb.name.assign(t.text);
        mb.line = t.line;
        if (pending_exclude) {
          mb.excluded = true;
          mb.reason = pending_reason;
        } else if (auto ce = comment_excludes.find(t.line);
                   ce != comment_excludes.end()) {
          mb.excluded = true;
          mb.reason = ce->second;
        }
        info.members.push_back(std::move(mb));
        pending_exclude = false;
        pending_reason.clear();
      }
      ++k;
    }
    sf.snapshot_classes.push_back(std::move(info));
  }
}

void ParseSuppressions(const TokenStream& ts,
                       std::map<int, std::set<std::string>>& out) {
  constexpr std::string_view kTag = "FKDE_LINT_SUPPRESS";
  for (const Comment& c : ts.comments) {
    const std::size_t pos = c.text.find(kTag);
    if (pos == std::string_view::npos) continue;
    std::size_t open = c.text.find('(', pos);
    if (open == std::string_view::npos) continue;
    std::size_t closep = c.text.find(')', open);
    if (closep == std::string_view::npos) continue;
    std::set<std::string> checks;
    std::string cur;
    for (std::size_t i = open + 1; i <= closep; ++i) {
      const char ch = c.text[i];
      if (ch == ',' || ch == ')') {
        if (!cur.empty()) checks.insert(cur);
        cur.clear();
      } else if (!std::isspace(static_cast<unsigned char>(ch))) {
        cur.push_back(ch);
      }
    }
    if (checks.empty()) checks.insert("*");
    for (int line = c.line; line <= c.end_line; ++line) {
      out[line].insert(checks.begin(), checks.end());
    }
  }
}

}  // namespace

SourceFile BuildModel(const std::string& path) {
  SourceFile sf;
  sf.path = path;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    sf.io_error = true;
    return sf;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  sf.contents = ss.str();
  sf.stream = Tokenize(sf.contents);
  ParseSuppressions(sf.stream, sf.suppressions);
  ScanSnapshotClasses(sf);

  for (const FnCandidate& c : FindFunctions(sf.stream)) {
    FunctionInfo fn;
    fn.name = c.name;
    fn.line = c.line;
    fn.body_begin = c.body_begin;
    fn.body_end = c.body_end;
    fn.hot = c.hot;
    Extractor ex(sf.stream, sf.contents, fn);
    ex.set_signature(c.sig_open);
    ex.Run();
    sf.functions.push_back(std::move(fn));
  }

  return sf;
}

}  // namespace fkde_lint
