// One-call scale analysis: run a scenario once under the partitioned
// executor with the RunMonitor certifying every cross-shard delivery
// against the fabric's lookahead matrix and profiling the windows, then run
// the work/span critical-path DP over the traced happens-before graph. The
// result carries everything PSL301–306 judge.
#pragma once

#include <string>

#include "core/simulation.hpp"
#include "mpi/workload.hpp"
#include "scale/report.hpp"

namespace pasched::scale {

/// Analyzes one scenario. `cfg.parallel` must be >= 1 (the window profile
/// and the soundness seam only exist on the partitioned executor; one
/// worker is enough — the windows are worker-count invariant).
///
/// `planted` optionally overrides the claims the RunMonitor checks (and the
/// matrix recorded in the report) — pasched-audit --plant hands in a
/// deliberately inflated copy to prove PSL303 catches unsound claims.
[[nodiscard]] ScaleReport analyze_scenario(
    const core::SimulationConfig& cfg, const mpi::WorkloadFactory& factory,
    std::string scenario_name, const ScaleOptions& opts = {},
    const sim::PairLookahead* planted = nullptr);

}  // namespace pasched::scale
