// PSL401–406: repo-specific architecture and hot-path rules over the
// srclint source model. Each rule encodes a source-level invariant the
// runtime stack (pasched-audit/race/scale) can only witness after it is
// violated in an execution — here it is rejected before a run exists.
//
//   PSL401  raw engine access outside the Router/EventContext seam
//   PSL402  shard-resident type without ownership annotation discipline
//   PSL403  allocation / locking / throw / blocking inside PASCHED_HOT
//   PSL404  side effects inside vanishing-check macro arguments
//   PSL405  nondeterminism sources in the deterministic core
//   PSL406  thread creation outside the ShardedEngine worker pool
//
// Findings can be silenced per line with `// srclint-ok(PSLnnn): reason`;
// the runner reports how many suppressions were honored so they stay
// auditable.
#pragma once

#include <string>
#include <vector>

#include "analysis/diagnostic.hpp"
#include "srclint/source.hpp"

namespace pasched::srclint {

struct RuleStats {
  std::size_t hot_functions = 0;
  std::size_t macro_calls = 0;
  std::size_t suppressions_honored = 0;
};

/// Runs every rule `filter` enables over one file. The scopes and
/// allowlists are constants in rules.cpp that encode this repository's
/// layout; the fixture corpus mirrors that layout under its own root.
[[nodiscard]] std::vector<analysis::Diagnostic> run_rules(
    const SourceFile& file, const RuleFilter& filter,
    RuleStats* stats = nullptr);

}  // namespace pasched::srclint
