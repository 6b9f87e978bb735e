#include "srclint/source.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace pasched::srclint {

namespace {

[[nodiscard]] bool ident_start(char c) noexcept {
  return (std::isalpha(static_cast<unsigned char>(c)) != 0) || c == '_' ||
         c == '$';
}
[[nodiscard]] bool ident_cont(char c) noexcept {
  return ident_start(c) || std::isdigit(static_cast<unsigned char>(c)) != 0;
}

// Longest-match punctuation, 3 chars down to 1. Keeping ">>" one token is
// deliberate: the rules that walk template argument lists count it as two
// closing angles, and PSL404's assignment detector must never split "<<="
// into "<<" "=".
const char* const kPunct3[] = {"<<=", ">>=", "->*", "...", "<=>"};
const char* const kPunct2[] = {"::", "->", "++", "--", "<<", ">>", "<=",
                               ">=", "==", "!=", "&&", "||", "+=", "-=",
                               "*=", "/=", "%=", "&=", "|=", "^=", "##"};

class Lexer {
 public:
  Lexer(const std::string& src, SourceFile& out) : s_(src), out_(out) {}

  void run() {
    while (i_ < s_.size()) {
      if (at_line_start_) detect_pp_line();
      const char c = s_[i_];
      if (c == '\n') {
        newline();
        continue;
      }
      if (std::isspace(static_cast<unsigned char>(c)) != 0) {
        ++i_;
        continue;
      }
      if (c == '\\' && peek(1) == '\n') {  // line splice
        ++i_;
        pp_continues_ = pp_;
        newline();
        continue;
      }
      if (c == '/' && peek(1) == '/') {
        line_comment();
        continue;
      }
      if (c == '/' && peek(1) == '*') {
        block_comment();
        continue;
      }
      if (is_raw_string_start()) {
        raw_string();
        continue;
      }
      if (c == '"') {
        quoted('"', Tok::String);
        continue;
      }
      if (c == '\'' && !digit_separator_context()) {
        quoted('\'', Tok::CharLit);
        continue;
      }
      if (ident_start(c)) {
        identifier();
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c)) != 0 ||
          (c == '.' && std::isdigit(static_cast<unsigned char>(peek(1))) != 0)) {
        number();
        continue;
      }
      punct();
    }
  }

 private:
  [[nodiscard]] char peek(std::size_t off) const noexcept {
    return i_ + off < s_.size() ? s_[i_ + off] : '\0';
  }

  void newline() {
    ++i_;
    ++line_;
    at_line_start_ = true;
    if (pp_continues_) {
      pp_continues_ = false;  // pp_ stays set for the continuation line
    } else {
      pp_ = false;
    }
  }

  void detect_pp_line() {
    at_line_start_ = false;
    if (pp_) return;  // continuation of a directive
    std::size_t j = i_;
    while (j < s_.size() && (s_[j] == ' ' || s_[j] == '\t')) ++j;
    if (j < s_.size() && s_[j] == '#') pp_ = true;
  }

  void emit(Tok kind, std::string text) {
    out_.tokens.push_back(Token{kind, std::move(text), line_, pp_});
  }

  void line_comment() {
    const std::size_t start = i_;
    while (i_ < s_.size() && s_[i_] != '\n') ++i_;
    // A contiguous run of *standalone* //-comment lines acts as one
    // comment: suppressions anywhere in the block ride down to its last
    // line, so a multi-line justification covers the statement below it.
    // A comment trailing code anchors at its own line and never joins a
    // block — its suppression must keep covering the code it sits on.
    const bool trailing =
        !out_.tokens.empty() && out_.tokens.back().line == line_;
    if (trailing || line_ != last_line_comment_ + 1)
      block_start_ = out_.suppressions.size();
    scan_suppression(s_.substr(start, i_ - start), line_);
    if (!trailing) {
      for (std::size_t k = block_start_; k < out_.suppressions.size(); ++k)
        out_.suppressions[k].line = line_;
      last_line_comment_ = line_;
    } else {
      last_line_comment_ = -2;  // a following standalone comment starts fresh
    }
  }

  void block_comment() {
    const std::size_t start = i_;
    const int start_line = line_;
    i_ += 2;
    while (i_ < s_.size() && !(s_[i_] == '*' && peek(1) == '/')) {
      if (s_[i_] == '\n') {
        ++line_;
        // pp state does not cross a newline inside a block comment unless
        // the directive itself continues, which a comment cannot express.
        pp_ = false;
      }
      ++i_;
    }
    i_ = std::min(i_ + 2, s_.size());
    scan_suppression(s_.substr(start, i_ - start), start_line);
  }

  void scan_suppression(const std::string& comment, int comment_line) {
    // srclint-ok(PSL402): ... — possibly several per comment.
    std::size_t pos = 0;
    static const std::string kKey = "srclint-ok(";
    while ((pos = comment.find(kKey, pos)) != std::string::npos) {
      pos += kKey.size();
      const std::size_t close = comment.find(')', pos);
      if (close == std::string::npos) break;
      std::string rule = comment.substr(pos, close - pos);
      if (!rule.empty() && rule.size() <= 16)
        out_.suppressions.push_back(Suppression{std::move(rule), comment_line});
      pos = close;
    }
  }

  [[nodiscard]] bool is_raw_string_start() const {
    // R"...(  possibly with encoding prefix already consumed as identifier;
    // handle the common unprefixed R"..." here. Prefixed raw strings
    // (u8R"") lex the prefix as an identifier first, which is harmless.
    return s_[i_] == 'R' && peek(1) == '"' &&
           (out_.tokens.empty() || out_.tokens.back().text != "\\");
  }

  void raw_string() {
    const int start_line = line_;
    std::size_t j = i_ + 2;  // past R"
    std::string delim;
    while (j < s_.size() && s_[j] != '(' && delim.size() < 16)
      delim.push_back(s_[j++]);
    const std::string close = ")" + delim + "\"";
    const std::size_t end = s_.find(close, j);
    const std::size_t stop =
        end == std::string::npos ? s_.size() : end + close.size();
    for (std::size_t k = i_; k < stop; ++k)
      if (s_[k] == '\n') ++line_;
    out_.tokens.push_back(
        Token{Tok::String, s_.substr(i_, stop - i_), start_line, pp_});
    i_ = stop;
  }

  // A ' that continues a number is a digit separator (1'000'000), not a
  // character literal.
  [[nodiscard]] bool digit_separator_context() const {
    return !out_.tokens.empty() && out_.tokens.back().kind == Tok::Number &&
           i_ > 0 && ident_cont(s_[i_ - 1]);
  }

  void quoted(char q, Tok kind) {
    const std::size_t start = i_;
    ++i_;
    while (i_ < s_.size() && s_[i_] != q && s_[i_] != '\n') {
      if (s_[i_] == '\\') ++i_;
      ++i_;
    }
    if (i_ < s_.size() && s_[i_] == q) ++i_;
    emit(kind, s_.substr(start, i_ - start));
  }

  void identifier() {
    const std::size_t start = i_;
    while (i_ < s_.size() && ident_cont(s_[i_])) ++i_;
    emit(Tok::Identifier, s_.substr(start, i_ - start));
  }

  void number() {
    const std::size_t start = i_;
    while (i_ < s_.size() &&
           (ident_cont(s_[i_]) || s_[i_] == '.' || s_[i_] == '\'' ||
            ((s_[i_] == '+' || s_[i_] == '-') && i_ > start &&
             (s_[i_ - 1] == 'e' || s_[i_ - 1] == 'E' || s_[i_ - 1] == 'p' ||
              s_[i_ - 1] == 'P'))))
      ++i_;
    emit(Tok::Number, s_.substr(start, i_ - start));
  }

  void punct() {
    for (const char* p : kPunct3) {
      if (s_.compare(i_, 3, p) == 0) {
        emit(Tok::Punct, p);
        i_ += 3;
        return;
      }
    }
    for (const char* p : kPunct2) {
      if (s_.compare(i_, 2, p) == 0) {
        emit(Tok::Punct, p);
        i_ += 2;
        return;
      }
    }
    emit(Tok::Punct, std::string(1, s_[i_]));
    ++i_;
  }

  const std::string& s_;
  SourceFile& out_;
  std::size_t i_ = 0;
  int line_ = 1;
  bool at_line_start_ = true;
  bool pp_ = false;
  bool pp_continues_ = false;
  int last_line_comment_ = -2;
  std::size_t block_start_ = 0;
};

}  // namespace

bool SourceFile::suppressed(const std::string& rule, int line) const {
  return std::any_of(suppressions.begin(), suppressions.end(),
                     [&](const Suppression& s) {
                       return s.rule == rule &&
                              (s.line == line || s.line + 1 == line);
                     });
}

bool RuleFilter::enabled(const std::string& rule) const {
  return only.empty() ||
         std::find(only.begin(), only.end(), rule) != only.end();
}

SourceFile lex_string(const std::string& content, std::string rel_path) {
  SourceFile f;
  f.path = std::move(rel_path);
  Lexer(content, f).run();
  return f;
}

SourceFile lex_file(const std::string& abs_path, std::string rel_path) {
  std::ifstream in(abs_path, std::ios::binary);
  if (!in) throw std::runtime_error("srclint: cannot read " + abs_path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return lex_string(ss.str(), std::move(rel_path));
}

}  // namespace pasched::srclint
