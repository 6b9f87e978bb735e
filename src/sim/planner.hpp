// Per-pair conservative window planner for the partitioned core.
//
// The legacy planner synchronized every shard on one global quantity: the
// fabric-wide minimum lookahead L. Each round it computed t0 = min over all
// shards' next event times and ran everyone to t0 + L behind a global
// barrier. That is correct but pessimal twice over: (1) a shard whose
// *incoming* neighbors cannot reach it before t0 + 3L is still cut off at
// t0 + L, and (2) every window costs a full barrier rendezvous.
//
// This planner replaces both with the per-pair guaranteed-lookahead matrix
// (net::pair_lookahead, certified at runtime by scale::RunMonitor): given
// every shard's published next event time, it computes the null-message
// fixpoint
//
//     E_s = min(next_t_s, min_p (E_p + L_ps))
//
// (the earliest instant shard s can possibly execute anything, counting
// transitively-forwarded work), then chains up to `batch` windows per sync
// round:
//
//     W(1)_s = min_{p != s} (E_p + L_ps)
//     W(j)_s = min_{p != s} (W(j-1)_p + L_ps)
//
// The fixpoint is evaluated in one pass as E_s = min_p (next_t_p + D_ps),
// where D is the shortest-path closure of the bound matrix (D_ss = 0). The
// effective (quantum-shrunk) bounds and their closure are built lazily, on
// the first plan() with a given quantum, and cached per quantum in a
// destination-major layout, so every min over sources walks one contiguous
// row and a steady-state plan() allocates nothing and divides nothing. A
// row whose off-diagonal bounds are all equal (every row, on a flat fabric)
// costs O(1) per window instead of O(shards).
//
// Every window end is a pure function of the round's published inputs
// (the engine plans once per round, in the round barrier's completion
// step), so the schedule has no timing dependence, which is what keeps
// --parallel=1 and --parallel=N bit-identical. Safety argument (why a shard can never
// receive an event in its past) is spelled out in DESIGN.md §7.
//
// PlannerMode::Global reproduces the legacy schedule exactly (one window
// per round, ending at t0 + L for every shard) — kept both as the
// equivalence baseline the audit gate compares against and as the
// denominator for the n_windows scalability smoke in CI.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.hpp"

namespace pasched::sim {

/// Per-pair guaranteed lookahead bounds, row-major `shards x shards`,
/// diagonal zero. `global` must be the minimum off-diagonal entry — it
/// gates the final-window condition. Built from the fabric by
/// net::pair_lookahead; scale::RunMonitor certifies every cross-shard
/// delivery against the same matrix.
struct PairLookahead {
  int shards = 0;
  Duration global = Duration::zero();
  std::vector<Duration> bounds;

  /// All pairs at the global bound — what a flat (frameless) fabric yields,
  /// and the fallback when no matrix was installed.
  [[nodiscard]] static PairLookahead uniform(int shards, Duration global);

  [[nodiscard]] Duration at(int src, int dst) const {
    return bounds[index(src, dst)];
  }
  void set(int src, int dst, Duration d) { bounds[index(src, dst)] = d; }

  /// The switch hub's shard: the last one (shard 0 when there is only one).
  [[nodiscard]] int hub_shard() const noexcept { return shards - 1; }
  [[nodiscard]] bool has_pairs() const noexcept { return shards > 1; }

 private:
  [[nodiscard]] std::size_t index(int src, int dst) const {
    return static_cast<std::size_t>(src) * static_cast<std::size_t>(shards) +
           static_cast<std::size_t>(dst);
  }
};

enum class PlannerMode : std::uint8_t {
  Global,   ///< legacy: one window per round at t0 + min-lookahead
  PerPair,  ///< per-pair horizons, `batch` chained windows per round
};

/// Chained windows per sync round in PerPair mode. Each chained window is
/// executed under neighbor-horizon waits only; the global barrier is paid
/// once per round. Raising it trades wrapup/stop latency (checked at round
/// boundaries) for fewer rounds; 8 holds the fig5 sync-round count at
/// >= 4x below the global planner's while the rounds stay short enough
/// that deferred wrapups land within a handful of lookahead intervals.
inline constexpr int kDefaultWindowBatch = 8;

/// Execution counters the engine fills as it runs the plans. `rounds` is
/// the figure the scale report publishes as n_windows — the number of
/// global synchronizations, which is what the window cost model prices.
struct PlannerStats {
  std::uint64_t rounds = 0;          ///< sync rounds (global barriers paid)
  std::uint64_t windows = 0;         ///< chained windows executed
  std::uint64_t coalesced = 0;       ///< windows skipped: shard idle, rings quiet
  std::uint64_t final_rounds = 0;    ///< deadline-inclusive rounds (0 or 1)
  std::uint64_t ring_posts = 0;      ///< cross-shard events via SPSC rings
  std::uint64_t ring_overflows = 0;  ///< posts that spilled to the overflow lane
};

/// One sync round's schedule: either the final deadline-inclusive window or
/// a chain of `length` per-shard window ends. Reused across rounds — the
/// planner only ever grows the buffer.
struct RoundPlan {
  bool final = false;
  int length = 0;
  int shards = 0;
  std::vector<Time> ends;  ///< [(j-1)*shards + s], j in 1..length

  /// End of shard `s`'s j-th chained window (1-based j).
  [[nodiscard]] Time end_of(int j, int s) const {
    return ends[static_cast<std::size_t>(j - 1) *
                    static_cast<std::size_t>(shards) +
                static_cast<std::size_t>(s)];
  }
};

class WindowPlanner {
 public:
  WindowPlanner(PairLookahead la, PlannerMode mode, int batch);

  /// Plans one sync round. `next_t` is every shard's published next event
  /// time (Time::max() when idle; cross-shard rings must already be fully
  /// drained into the engines). Window spans may be shrunk to
  /// `quantum_num/quantum_den` of each lookahead bound (>= 1 ns) — the
  /// race-fuzzer's perturbation seam; shrinking is always conservative.
  /// Identical inputs produce the identical plan; the planner's own state is
  /// only a cache of quantum-derived bounds and scratch rows, so calls must
  /// not overlap (the engine plans in the round barrier's completion step).
  void plan(const std::vector<Time>& next_t, Time deadline,
            std::int64_t quantum_num, std::int64_t quantum_den,
            RoundPlan& out);

  [[nodiscard]] PlannerMode mode() const noexcept { return mode_; }
  [[nodiscard]] int batch() const noexcept { return batch_; }
  [[nodiscard]] const PairLookahead& pairs() const noexcept { return la_; }

 private:
  /// The bounds one window quantum plans with, destination-major: entry
  /// [dst * shards + src], so the min over sources for one destination is a
  /// contiguous row.
  struct Quantum {
    std::int64_t num = 1;
    std::int64_t den = 1;
    std::vector<Duration> eff;    ///< shrunk pair bounds, diagonal zero
    std::vector<Duration> reach;  ///< shortest-path closure of eff, D_ss = 0
    /// Per destination: the value every off-diagonal entry of its eff
    /// (reach) row shares, or a negative marker when they differ. A uniform
    /// row's min over sources needs only the two smallest inputs.
    std::vector<Duration> eff_uniform;
    std::vector<Duration> reach_uniform;
  };

  /// The cached bounds for `num/den`, built on first use.
  [[nodiscard]] const Quantum& quantum(std::int64_t num, std::int64_t den);

  PairLookahead la_;
  PlannerMode mode_;
  int batch_;
  std::vector<Quantum> quanta_;
  std::vector<Time> horizon_;  // scratch: the fixpoint E, i.e. W(0)
};

}  // namespace pasched::sim
