// The runtime half of the lookahead certificate: a sim::ShardMonitor that
// (a) checks every cross-shard post against the per-pair lookahead matrix —
// a delivery earlier than send time + matrix[src][dst] means the claimed
// bound is unsound and becomes a PSL303 ERROR — and (b) profiles the
// conservative windows (per-shard event deltas sampled at the plan barrier,
// where every worker is parked) into the WindowStats the barrier-cost model
// consumes.
//
// Thread-safety follows the seam contract (sim/shard.hpp): on_post runs
// concurrently on source workers, so the soundness ledger is mutex-
// protected (cross-shard posts are orders of magnitude rarer than events);
// on_plan runs in the barrier completion step with every worker parked, so
// reading the per-shard engine counters there needs no synchronization.
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "analysis/diagnostic.hpp"
#include "scale/windows.hpp"
#include "sim/planner.hpp"
#include "sim/shard.hpp"
#include "sim/time.hpp"

namespace pasched::scale {

class RunMonitor final : public sim::ShardMonitor {
 public:
  /// `claims` is copied: the bounds being certified must not change under
  /// the run (pasched-audit --plant hands in a deliberately inflated copy
  /// of net::pair_lookahead). `engine` is the executor being profiled;
  /// install with engine.set_monitor(&monitor) before running.
  RunMonitor(sim::PairLookahead claims, sim::ShardedEngine& engine);

  // sim::ShardMonitor --------------------------------------------------------
  void on_post(int src_shard, int dst_shard, sim::Time t, sim::Time sent_at,
               std::uint64_t src_seq) override;
  void on_admit(int dst_shard, int src_shard, std::uint64_t src_seq,
                sim::Time t, sim::Time dst_now) override;
  void on_window_begin(int shard, sim::Time window_end) override;
  void on_plan(sim::Time window_end, bool final_window) override;

  /// Captures the last executed window's deltas (the Stop round never
  /// reaches on_plan). Call once after ShardedEngine::run_until returns;
  /// idempotent.
  void finalize();

  // Results (valid after finalize) ------------------------------------------
  [[nodiscard]] const WindowStats& windows() const noexcept {
    return stats_;
  }
  /// PSL303 findings, capped at 16 with a summarizing tail entry.
  [[nodiscard]] std::vector<analysis::Diagnostic> soundness_findings() const;
  [[nodiscard]] std::uint64_t posts_checked() const;
  [[nodiscard]] std::uint64_t violations() const;
  /// Smallest observed (delivery - send - claimed bound) margin across all
  /// posts — how close the tightest real delivery came to the certificate.
  /// Duration::max() when no cross-shard post occurred.
  [[nodiscard]] sim::Duration min_observed_slack() const;

 private:
  void sample_window();

  sim::PairLookahead claims_;
  sim::ShardedEngine& engine_;

  // Window profile: touched only at the plan barrier / after the run.
  WindowStats stats_;
  std::vector<std::uint64_t> last_counts_;
  sim::Time pending_end_{};
  bool pending_final_ = false;
  bool have_pending_ = false;
  bool finalized_ = false;

  // Soundness ledger: shared across source workers.
  mutable std::mutex mu_;
  std::uint64_t posts_ = 0;
  std::uint64_t violations_ = 0;
  sim::Duration min_slack_ = sim::Duration::max();
  std::vector<analysis::Diagnostic> findings_;
};

}  // namespace pasched::scale
