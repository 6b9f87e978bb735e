// The one source analyzer: discovery → lex each file once → the enabled
// rule packs → one ordered report. Three packs share the scan:
//
//   architecture  PSL401–406  srclint/rules      every discovered file
//   contention    PSL501–506  contend/{locks,graph,rules}   src/ only
//   allocation    PSL601–606  alloc/rules                   src/ only
//
// PSL506 and PSL606 are the runtime halves: run_ledgers() runs a scenario
// under the contention and allocation ledgers and refutes the PSL505/PSL605
// claims the static scan made. The tool and the tests share this one code
// path.
//
// Frontend seam: SourceFile is the only contract between discovery and the
// rules. Today it is produced by the built-in portable lexer (lex_file);
// a clang LibTooling frontend can replace that producer without touching a
// rule, which is the plan once the toolchain ships clang dev headers.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "alloc/ledger.hpp"
#include "alloc/rules.hpp"
#include "analysis/diagnostic.hpp"
#include "contend/ledger.hpp"
#include "contend/rules.hpp"
#include "srclint/rules.hpp"

namespace pasched::core {
class Simulation;
}

namespace pasched::srclint {

struct SrclintOptions {
  std::string root = ".";  // tree to scan (repo root or fixture root)
  std::string compile_db;  // optional compile_commands.json
  RuleFilter filter;
};

struct SrclintReport {
  std::vector<analysis::Diagnostic> findings;  // sorted by (subject, rule)
  /// PSL505 sites, verified by the contention ledger (PSL506).
  std::vector<contend::SerializationClaim> serialization_claims;
  /// PSL605 regions, verified by the allocation ledger (PSL606).
  std::vector<alloc::AllocClaim> alloc_claims;
  std::vector<std::string> lock_graph;  // canonical edge lines, sorted
  std::size_t files_scanned = 0;
  std::size_t files_in_scope = 0;  // under src/: what contention and
                                   // allocation see
  std::string origin;              // discovery origin, see compiledb.hpp
  RuleStats architecture;
  contend::Stats contention;
  alloc::Stats allocation;
  /// Filled when a runtime leg ran (run_ledgers / run_plant).
  std::optional<contend::LedgerReport> contention_ledger;
  std::optional<alloc::AllocLedgerReport> allocation_ledger;

  [[nodiscard]] bool clean() const noexcept { return findings.empty(); }
  /// Human-readable report: one line per finding, a per-pack summary, and
  /// the ledger tables when a runtime leg ran.
  [[nodiscard]] std::string str() const;
  /// Machine-readable report for the CI artifact.
  [[nodiscard]] std::string json() const;
  /// One sorted line per finding (`RULE SEVERITY subject`), per claim
  /// (`PSL505|PSL605 CLAIM file:line name`) and per lock-graph edge
  /// (`EDGE from -> to @ file:line`): the stable form a golden file pins.
  [[nodiscard]] std::string digest() const;
};

/// Scans every discovered file under opts.root.
[[nodiscard]] SrclintReport run_tree(const SrclintOptions& opts);

/// Scans an explicit set of root-relative paths (CLI positional args,
/// fixture tests).
[[nodiscard]] SrclintReport run_files(const SrclintOptions& opts,
                                      const std::vector<std::string>& rels);

/// True when the contention and allocation packs scan `rel_path`: harness
/// code in tests/, bench/ and tools/ holds no scheduler seam and no event
/// hot path.
[[nodiscard]] bool in_core_scope(const std::string& rel_path);

/// True when this build instruments the seams and hooks the heap
/// (-DPASCHED_VALIDATE=ON). Without that the runtime legs cannot run.
inline constexpr bool kLedgersAvailable = alloc::Ledger::available();

/// Builds one fresh simulation for a runtime leg. The ledgers observe its
/// run(), not its construction.
using SimulationFactory = std::function<std::unique_ptr<core::Simulation>()>;

/// Runs one simulation under the contention ledger, then one under the
/// allocation ledger, and refutes the report's claims against what each
/// observed (PSL506, PSL606). Returns false, changing nothing, when the
/// ledgers are compiled out.
bool run_ledgers(SrclintReport& rep, const SimulationFactory& make);

/// Scans the planted corpus (<repo_root>/tests/srclint/fixtures) and runs
/// both planted refutation legs: a made-up single-domain claim on
/// ShardedEngine.wrapup_mu_ against `multi_domain`, which must run the
/// partitioned core with two or more workers, and a made-up
/// allocation-free claim against a hot scope that allocates on purpose.
/// The legs are skipped when the ledgers are compiled out.
[[nodiscard]] SrclintReport run_plant(const std::string& repo_root,
                                      const SimulationFactory& multi_domain);

}  // namespace pasched::srclint
