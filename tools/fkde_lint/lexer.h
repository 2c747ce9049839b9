/// \file lexer.h
/// \brief Minimal C++ tokenizer for fkde-lint's source model.
///
/// fkde-lint's bundled frontend works on raw (un-preprocessed) token
/// streams: the project's command-stream discipline is expressed in a
/// small, idiomatic surface syntax (`EnqueueLaunch`, `In`/`Out`
/// accessors, `AcquireScratch`, lambda kernel bodies), so a faithful
/// lexer plus bracket matching recovers everything the checks need
/// without a full C++ frontend. A Clang LibTooling frontend producing
/// the same SourceFile model is the planned drop-in upgrade (see
/// tools/fkde_lint/README.md); the check layer is frontend-agnostic.
///
/// The lexer handles line/block comments (retained, for the
/// `FKDE_LINT_SUPPRESS` escape hatch), string/char literals (including
/// raw strings), preprocessor lines (skipped, with continuations), and
/// maximal-munch multi-character operators. It never throws: malformed
/// input degrades to punctuation tokens and the checks simply see less.

#ifndef FKDE_TOOLS_LINT_LEXER_H_
#define FKDE_TOOLS_LINT_LEXER_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace fkde_lint {

enum class TokKind {
  kIdent,   ///< Identifiers and keywords (no keyword table needed).
  kNumber,  ///< Numeric literals.
  kString,  ///< String or character literals (quotes included).
  kPunct,   ///< Operators and punctuation, maximal munch.
  kEnd,     ///< One-past-the-last sentinel token.
};

struct Token {
  TokKind kind = TokKind::kEnd;
  std::string_view text;  ///< View into the owning SourceFile's contents.
  int line = 0;           ///< 1-based source line.
};

/// A comment retained for suppression parsing.
struct Comment {
  std::string_view text;  ///< Full comment text including delimiters.
  int line = 0;           ///< Line the comment starts on.
  int end_line = 0;       ///< Line the comment ends on (block comments).
};

/// Tokenized view of one file. `contents` owns the bytes every
/// string_view points into; keep the object alive while using tokens.
struct TokenStream {
  std::vector<Token> tokens;     ///< Ends with a kEnd sentinel.
  std::vector<Comment> comments; ///< In source order.
  /// For every bracket token index, the index of its matching partner
  /// (() {} []), or 0 for the sentinel/no-match. match[i] == i means
  /// unmatched.
  std::vector<std::size_t> match;
};

/// Tokenizes `contents`. Never fails; unrecognized bytes become
/// single-character punctuation.
TokenStream Tokenize(std::string_view contents);

/// True for an identifier token with exactly this text.
inline bool IsIdent(const Token& t, std::string_view s) {
  return t.kind == TokKind::kIdent && t.text == s;
}

/// True for a punctuation token with exactly this text.
inline bool IsPunct(const Token& t, std::string_view s) {
  return t.kind == TokKind::kPunct && t.text == s;
}

}  // namespace fkde_lint

#endif  // FKDE_TOOLS_LINT_LEXER_H_
