// The contention rule pack (PSL501–PSL505) of the source analyzer. Per
// file: false-sharing layout (PSL503), contended atomic in a hot loop
// (PSL504), and coarse-mutex-over-owned-state serialization claims (PSL505,
// which also feed the runtime ledger's PSL506 check). Over the whole scan:
// the cross-TU LockGraph's cycles (PSL501) and locks held across a blocking
// seam (PSL502).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "analysis/diagnostic.hpp"
#include "contend/ledger.hpp"
#include "contend/locks.hpp"
#include "srclint/source.hpp"

namespace pasched::contend {

/// The pack's counters over one scan.
struct Stats {
  std::size_t functions = 0;
  std::size_t acquisitions = 0;
  std::size_t mutex_members = 0;
  std::size_t graph_nodes = 0;
  std::size_t graph_edges = 0;
  std::size_t cycles = 0;
  int suppressions_honored = 0;
};

/// Runs PSL503/PSL504/PSL505 over one file. Suppressions are honored for
/// findings; PSL505 claims are recorded into `claims` even when the WARN is
/// suppressed — the certify-then-verify contract keeps runtime verification
/// alive for silenced claims.
void run_file_rules(const srclint::SourceFile& f, const FileLocks& locks,
                    const srclint::RuleFilter& filter,
                    std::vector<analysis::Diagnostic>& findings,
                    std::vector<SerializationClaim>& claims, Stats& stats);

/// Runs the whole pack over every file of one scan: lock extraction, the
/// cross-TU graph (its canonical edge lines go to `graph`), the file rules
/// and the graph rules.
void run_pack(const std::vector<const srclint::SourceFile*>& files,
              const srclint::RuleFilter& filter,
              std::vector<analysis::Diagnostic>& findings,
              std::vector<SerializationClaim>& claims,
              std::vector<std::string>& graph, Stats& stats);

}  // namespace pasched::contend
