// Source model for pasched-srclint: a C++ token stream with line numbers,
// comment-carried suppressions, and preprocessor-line awareness.
//
// This is the portable frontend. The container/CI baseline ships no clang
// LibTooling/ASTMatchers dev packages, so the analyzer is architected as
// rules over a *frontend-produced token model* rather than over a clang AST:
// the lexer below is a real C++ tokenizer (raw strings, escapes, comments,
// line splices, longest-match punctuation), and src/srclint/model.hpp
// recovers the structure the PSL4xx rules need (function bodies bound to a
// marker, class bodies, macro argument lists). A clang-AST frontend can
// replace lex_file() behind the same SourceFile interface when LLVM dev
// packages are available; the rules do not change (DESIGN.md §5.6).
#pragma once

#include <string>
#include <vector>

namespace pasched::srclint {

enum class Tok : std::uint8_t {
  Identifier,  // identifiers and keywords
  Number,
  String,   // string literal (text holds the uninterpreted lexeme)
  CharLit,  // character literal
  Punct,    // operators/punctuation, longest-match ("::", "<<=", ...)
};

struct Token {
  Tok kind = Tok::Punct;
  std::string text;
  int line = 0;
  /// True when the token sits on a preprocessor directive line (including
  /// backslash continuations). Rules skip these: `#define PASCHED_HOT ...`
  /// is the macro's definition, not an annotation site.
  bool pp = false;
};

/// One `// srclint-ok(PSLnnn): reason` comment. It silences findings of
/// that rule on its own line and on the following line (so it can sit
/// above the offending statement, or trail it). A contiguous block of
/// //-comments counts as one comment anchored at its last line, so a
/// multi-line justification covers the statement right below the block.
struct Suppression {
  std::string rule;  // "PSL402"
  int line = 0;
};

struct SourceFile {
  /// Path relative to the scanned root, '/'-separated — what rules match
  /// their subsystem scopes and allowlists against, and what reports print.
  std::string path;
  std::vector<Token> tokens;
  std::vector<Suppression> suppressions;

  /// True if findings of `rule` at `line` are silenced by a suppression on
  /// the same or the preceding line.
  [[nodiscard]] bool suppressed(const std::string& rule, int line) const;
};

/// Which rules report (empty `only` = all). This is the analyzer's one
/// setting: every other tunable is a constant of the rule pack that owns it.
struct RuleFilter {
  std::vector<std::string> only;

  [[nodiscard]] bool enabled(const std::string& rule) const;
};

/// Lexes `content` as the file `rel_path`. Never fails: bytes that are not
/// valid C++ lex as single-character punctuation and the rules ignore them.
[[nodiscard]] SourceFile lex_string(const std::string& content,
                                    std::string rel_path);

/// Loads and lexes a file from disk. Throws std::runtime_error if the file
/// cannot be read.
[[nodiscard]] SourceFile lex_file(const std::string& abs_path,
                                  std::string rel_path);

}  // namespace pasched::srclint
