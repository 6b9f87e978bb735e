// The allocation rule pack (PSL601–PSL605) of the source analyzer: per-file
// allocation & memory-layout rules over the srclint token/structural model.
// The hot scope a rule guards is the union of PASCHED_HOT-annotated function
// bodies and the engine's event-lifecycle functions (matched by their
// qualified FunctionDef names), so the engine's per-event core is covered
// even where a function is not annotated yet. PSL606 is the runtime half
// (alloc/ledger.hpp) and has no static rule here.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "alloc/ledger.hpp"
#include "analysis/diagnostic.hpp"
#include "srclint/model.hpp"
#include "srclint/source.hpp"

namespace pasched::alloc {

/// The pack's counters over one scan.
struct Stats {
  std::size_t functions = 0;
  std::size_t hot_functions = 0;
  std::size_t arena_types = 0;
  int suppressions_honored = 0;
};

/// Runs PSL601–PSL604 on one file, appending findings, and emits one
/// PSL605 AllocClaim per hot-marked function whose body carries no PSL601/
/// PSL602 hit at all — suppressed hits also forfeit the claim: a waiver
/// silences the finding but cannot certify the region allocation-free.
/// Claims ignore `filter`: it narrows what reports, not what is certified.
void run_file_rules(const srclint::SourceFile& f,
                    const srclint::RuleFilter& filter,
                    std::vector<analysis::Diagnostic>& findings,
                    std::vector<AllocClaim>& claims, Stats& stats);

}  // namespace pasched::alloc
