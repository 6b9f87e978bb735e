// The lookahead certificate: summary statistics and the machine-readable
// JSON form of the per-shard-pair lookahead matrix (net::pair_lookahead).
//
// The conservative executor's causality argument is pairwise: a message
// from shard a to shard b cannot arrive earlier than the minimum latency of
// the (a, b) link. The matrix is built once from the fabric topology and
// feeds both the window planner (core::Simulation) and the runtime
// certifier (scale::RunMonitor, PSL303 on any delivery that undercuts it);
// this module only describes it.
#pragma once

#include <string>

#include "sim/planner.hpp"
#include "sim/time.hpp"

namespace pasched::scale {

/// Min / median / max over the off-diagonal pairs (all zero with no pairs).
struct PairSpread {
  sim::Duration min = sim::Duration::zero();
  sim::Duration median = sim::Duration::zero();
  sim::Duration max = sim::Duration::zero();
};

[[nodiscard]] PairSpread pair_spread(const sim::PairLookahead& la);

/// The certificate (JSON): shard numbering, the global bound, the pair
/// spread, and the full pairwise matrix in nanoseconds.
[[nodiscard]] std::string certificate_json(const sim::PairLookahead& la);

}  // namespace pasched::scale
