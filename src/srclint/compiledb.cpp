#include "srclint/compiledb.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

namespace pasched::srclint {

namespace fs = std::filesystem;

namespace {

const char* const kRoots[] = {"src", "tools", "bench", "examples", "tests"};
const char* const kExts[] = {".cpp", ".cxx", ".cc", ".hpp", ".hh", ".ipp"};

[[nodiscard]] bool wanted_ext(const fs::path& p) {
  const std::string e = p.extension().string();
  return std::any_of(std::begin(kExts), std::end(kExts),
                     [&](const char* x) { return e == x; });
}

[[nodiscard]] bool excluded(const std::string& rel) {
  return rel.find("/fixtures/") != std::string::npos ||
         rel.find("build/") == 0 || rel.find("build-") == 0 ||
         rel.find("_deps/") != std::string::npos ||
         rel.find("third_party/") != std::string::npos;
}

/// Reads one JSON string starting at the opening quote; returns the decoded
/// value and advances `i` past the closing quote.
[[nodiscard]] std::string read_json_string(const std::string& s,
                                           std::size_t& i) {
  std::string out;
  ++i;  // opening quote
  while (i < s.size() && s[i] != '"') {
    if (s[i] == '\\' && i + 1 < s.size()) {
      ++i;
      switch (s[i]) {
        case 'n': out.push_back('\n'); break;
        case 't': out.push_back('\t'); break;
        case 'u': i += 4; break;  // \uXXXX: never in a pathname we keep
        default: out.push_back(s[i]); break;
      }
    } else {
      out.push_back(s[i]);
    }
    ++i;
  }
  if (i < s.size()) ++i;  // closing quote
  return out;
}

}  // namespace

std::vector<std::string> compile_db_files(const std::string& json) {
  std::vector<std::string> out;
  static const std::string kKey = "\"file\"";
  std::size_t pos = 0;
  while ((pos = json.find(kKey, pos)) != std::string::npos) {
    pos += kKey.size();
    while (pos < json.size() &&
           (json[pos] == ' ' || json[pos] == ':' || json[pos] == '\t' ||
            json[pos] == '\n'))
      ++pos;
    if (pos < json.size() && json[pos] == '"')
      out.push_back(read_json_string(json, pos));
  }
  return out;
}

FileSet discover_files(const std::string& root,
                       const std::string& compile_db_path) {
  FileSet fset;
  std::set<std::string> paths;
  const fs::path rootp = fs::absolute(root).lexically_normal();

  bool used_db = false;
  if (!compile_db_path.empty()) {
    std::ifstream in(compile_db_path, std::ios::binary);
    if (in) {
      std::ostringstream ss;
      ss << in.rdbuf();
      for (const std::string& f : compile_db_files(ss.str())) {
        std::error_code ec;
        const fs::path abs = fs::weakly_canonical(fs::path(f), ec);
        if (ec) continue;
        const fs::path rel = abs.lexically_relative(rootp);
        if (rel.empty() || rel.begin()->string() == "..") continue;
        const std::string r = rel.generic_string();
        if (!excluded(r)) {
          paths.insert(r);
          used_db = true;
        }
      }
    }
  }

  // Walk the source roots for everything the database cannot carry
  // (headers) or that plain fixture trees provide (no database at all).
  for (const char* top : kRoots) {
    const fs::path dir = rootp / top;
    std::error_code ec;
    if (!fs::is_directory(dir, ec)) continue;
    for (auto it = fs::recursive_directory_iterator(
             dir, fs::directory_options::skip_permission_denied, ec);
         it != fs::recursive_directory_iterator(); it.increment(ec)) {
      if (ec) break;
      if (!it->is_regular_file(ec)) continue;
      if (!wanted_ext(it->path())) continue;
      const std::string rel =
          it->path().lexically_relative(rootp).generic_string();
      if (!excluded(rel)) paths.insert(rel);
    }
  }
  // A bare fixture root mirrors src/... directly under itself with no
  // recognizable top-level dirs; fall back to walking the root itself.
  if (paths.empty()) {
    std::error_code ec;
    for (auto it = fs::recursive_directory_iterator(
             rootp, fs::directory_options::skip_permission_denied, ec);
         it != fs::recursive_directory_iterator(); it.increment(ec)) {
      if (ec) break;
      if (!it->is_regular_file(ec)) continue;
      if (!wanted_ext(it->path())) continue;
      const std::string rel =
          it->path().lexically_relative(rootp).generic_string();
      if (rel.find("build") != 0) paths.insert(rel);
    }
  }

  fset.rel_paths.assign(paths.begin(), paths.end());
  fset.origin = used_db ? "compile_commands+walk" : "walk";
  return fset;
}

}  // namespace pasched::srclint
