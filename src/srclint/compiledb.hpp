// File discovery for pasched-srclint. Preferred source of truth is the
// build's compile_commands.json (CMAKE_EXPORT_COMPILE_COMMANDS=ON) — the
// same translation units the compiler sees — augmented with headers found
// by walking the source roots. When no database exists (fixture trees,
// fresh checkouts) discovery falls back to the walk alone.
//
// The walk intentionally knows this repo's layout: src/, tools/, bench/,
// examples/, tests/ — and excludes build trees, vendored deps, and any
// planted-violation fixture corpus (tests/srclint/fixtures), which must
// never leak into a clean-tree scan.
#pragma once

#include <string>
#include <vector>

namespace pasched::srclint {

struct FileSet {
  /// Repo-relative paths with forward slashes, sorted, unique.
  std::vector<std::string> rel_paths;
  /// "compile_commands+walk" or "walk" — recorded in the report so a scan
  /// that silently lost its database is visible.
  std::string origin;
};

/// Extracts the "file" entries from a compile_commands.json blob. Tolerant
/// of formatting; understands basic string escapes.
[[nodiscard]] std::vector<std::string> compile_db_files(
    const std::string& json);

/// Discovers the scan set under `root`. `compile_db_path` may be empty or
/// missing; it contributes translation units when readable.
[[nodiscard]] FileSet discover_files(const std::string& root,
                                     const std::string& compile_db_path);

}  // namespace pasched::srclint
