// Per-node event shards with conservative-window parallel execution.
//
// Every cluster node owns one Engine (priority queue + clock); one extra
// "hub" shard owns cluster-global hardware (the switch's combine unit).
// Cross-shard events go through post(), which stamps send time and the
// per-pair guaranteed lookahead and pushes them into the (source,
// destination) pair's bounded SPSC ring. Rings materialize on first post
// and are listed in their destination's inbound list, so a drain visits
// only the pairs that actually carry traffic, not every possible source.
//
// Execution advances in conservative windows (Chandy/Misra/Bryant style)
// planned per *sync round* by the WindowPlanner (sim/planner.hpp): each
// round, every shard publishes its next event time, the round barrier's
// completion step computes a deterministic chain of up to `batch` per-shard
// windows from the per-pair lookahead matrix, and workers execute the chain
// with horizon waits only — before window j a shard spins on the published
// atomic horizon clocks of the peers *other* workers own (a worker runs
// window j-1 of all its shards before window j of any, so its own shards
// are never behind; one worker never waits), drains the due prefix of each
// inbound ring, and runs its own window. The global barrier is paid once
// per round (plus once at the end), not once per window; wrapups and stop
// requests are honored at round boundaries, where every worker is parked.
//
// The plan is a pure function of the round's published inputs and the ring
// drains are capped by schedule-derived bounds, so which events fire in
// which order never depends on thread timing: --parallel=1 and
// --parallel=N stay bit-identical, and both match the legacy
// PlannerMode::Global schedule under the audit gate's digest.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "sim/context.hpp"
#include "sim/engine.hpp"
#include "sim/planner.hpp"
#include "sim/time.hpp"
#include "util/aligned.hpp"
#include "util/hotpath.hpp"
#include "util/seam.hpp"
#include "util/spsc_ring.hpp"

namespace pasched::sim {

/// A cross-shard event in flight: the delivery time plus the stamps the
/// conservative executor validates (send time and the pair lookahead
/// promised at post time — `t >= sent_at + lookahead` is the causality
/// contract).
struct CrossNodeEvent {
  Time t;
  Time sent_at;
  Duration lookahead;
  int src_shard = 0;
  std::uint64_t src_seq = 0;
  Engine::Callback fn;
};

/// Observer of the cross-shard seams — the hooks the race/determinism
/// auditor (race::Monitor) hangs its vector-clock checker on. All methods
/// must be thread-safe under the sharded engine's execution model:
/// on_post runs on the source shard's worker, on_admit on the destination
/// shard's worker, on_window_begin / on_horizon_publish / on_horizon_wait
/// on the owning (respectively waiting) shard's worker, and on_plan in the
/// round barrier's completion step (every worker parked). When no monitor
/// is installed the engine pays one pointer test per seam.
class ShardMonitor {
 public:
  virtual ~ShardMonitor() = default;
  /// A cross-shard post left `src_shard` (its clock at `sent_at`) for
  /// delivery at `t` on `dst_shard`; `src_seq` is the per-source sequence
  /// that identifies the message at admission.
  virtual void on_post(int src_shard, int dst_shard, Time t, Time sent_at,
                       std::uint64_t src_seq) = 0;
  /// The destination drained the message into its engine; `dst_now` is the
  /// destination clock at admission.
  virtual void on_admit(int dst_shard, int src_shard, std::uint64_t src_seq,
                        Time t, Time dst_now) = 0;
  /// `shard`'s worker is about to execute a window ending at `window_end`
  /// (the deadline for the final, inclusive window).
  virtual void on_window_begin(int shard, Time window_end) = 0;
  /// The round barrier's completion step planned the next round (ending at
  /// `window_end`): every shard is quiesced, so cross-shard happens-before
  /// is total here. Fires once per *round*, not per chained window — the
  /// scale profiler's n_windows counts these.
  virtual void on_plan(Time window_end, bool final_window) = 0;
  /// `shard` finished a chained window and is about to publish `horizon`
  /// with release ordering — the synchronization point peers acquire
  /// through on_horizon_wait. Called *before* the store so a waiter that
  /// observes the horizon finds the publish already recorded. Default
  /// no-op: the hooks postdate the original interface and most monitors
  /// only need the post/admit edges.
  virtual void on_horizon_publish(int /*shard*/, Time /*horizon*/) {}
  /// `dst_shard`'s worker observed `src_shard`'s horizon clock at or past
  /// the value its next window needs (an acquire load pairing with the
  /// publish above — a real happens-before edge even when no spin was
  /// necessary).
  virtual void on_horizon_wait(int /*dst_shard*/, int /*src_shard*/) {}
};

class ShardedEngine final : public Router {
 public:
  /// One shard per node plus (for multi-node clusters) a hub shard.
  /// `lookahead` must be positive: it is the guaranteed minimum latency of
  /// any cross-shard interaction (net::guaranteed_lookahead derives it from
  /// the fabric config). Until set_pair_lookahead() installs the per-pair
  /// matrix, every pair is assumed to sit at this global floor.
  ShardedEngine(int nodes, Duration lookahead);
  ~ShardedEngine() override;
  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  // Router --------------------------------------------------------------------
  [[nodiscard]] int partitions() const noexcept override {
    return static_cast<int>(engines_.size());
  }
  [[nodiscard]] int shard_of_node(int node) const noexcept override {
    return node;
  }
  [[nodiscard]] int hub_shard() const noexcept override { return hub_; }
  [[nodiscard]] Duration lookahead() const noexcept override {
    return lookahead_;
  }
  [[nodiscard]] Engine& engine_of(int shard) override {
    return *engines_[static_cast<std::size_t>(shard)];
  }
  void post(int src_shard, int dst_shard, Time t,
            Engine::Callback fn) override;
  void request_wrapup(Engine::Callback fn) override;
  void stop_all() override { stop_flag_.store(true, std::memory_order_relaxed); }

  // Planner -------------------------------------------------------------------
  /// Installs the per-pair guaranteed-lookahead matrix (core::Simulation
  /// passes net::pair_lookahead). `la.shards` must equal partitions(),
  /// `la.hub_shard()` this engine's hub_shard() and `la.global` the
  /// constructor lookahead. Set while no workers run.
  void set_pair_lookahead(PairLookahead la);
  /// Selects the window planner. Global reproduces the legacy one-window-
  /// per-round schedule (the audit baseline and the CI scalability smoke's
  /// denominator); PerPair chains up to `batch` windows per round.
  void set_planner(PlannerMode mode, int batch = kDefaultWindowBatch);
  [[nodiscard]] PlannerMode planner_mode() const noexcept {
    return planner_->mode();
  }
  [[nodiscard]] int window_batch() const noexcept { return planner_->batch(); }
  /// The installed pair bound (what post() stamps events with).
  [[nodiscard]] Duration pair_lookahead(int src, int dst) const {
    return planner_->pairs().at(src, dst);
  }
  /// Execution counters of the last (or running) run_until.
  [[nodiscard]] PlannerStats planner_stats() const;

  // Execution -----------------------------------------------------------------
  /// Runs every shard to `deadline` with `workers` threads (clamped to
  /// [1, partitions()]). Returns false if stopped early via stop_all().
  bool run_until(Time deadline, int workers);

  /// Pin worker w to core w when the host has at least `workers` cores
  /// (default on; a no-op on oversubscribed boxes, where pinning everyone
  /// to the same cores would only hurt).
  void set_pin_workers(bool pin) noexcept { pin_workers_ = pin; }
  /// Test hook: per-pair SPSC ring capacity (rounded up to a power of two).
  /// Call before the first post — live rings are not resized.
  void set_ring_capacity(std::size_t cap) noexcept { ring_capacity_ = cap; }
  /// Test hooks (call while no workers run): whether the (src, dst) ring has
  /// materialized, and the sources in `dst`'s inbound list, in install order.
  [[nodiscard]] bool has_ring(int src, int dst) const {
    return rings_[static_cast<std::size_t>(src) * engines_.size() +
                  static_cast<std::size_t>(dst)] != nullptr;
  }
  [[nodiscard]] std::vector<int> inbound_sources(int dst) const;

  [[nodiscard]] std::uint64_t events_processed() const;
  /// Events fired with timestamp strictly below `t`. Valid after run_until()
  /// returned with `t` inside or after the round that first requested a
  /// wrapup (the completion-time case): fire logs are cleared per round
  /// until a wrapup request freezes them, so every fire at or past `t`
  /// still sits in them even when the wrapup — and the stop it triggers —
  /// is deferred for a few rounds while lagging shard clocks catch up.
  /// This is the counter that matches the classic engine's
  /// events_processed_before_now() — partitioned runs drain the rest of
  /// their final round past the completion event, so raw counts
  /// legitimately differ across modes while this one must not.
  [[nodiscard]] std::uint64_t events_processed_before(Time t) const;
  [[nodiscard]] std::size_t events_pending() const;

  /// Cancels all pending events and discards undelivered cross-shard posts.
  /// Under PASCHED_VALIDATE, verifies every shard ends empty and
  /// structurally consistent. Called by the destructor; callable earlier.
  void drain();

  // Auditing ------------------------------------------------------------------
  /// Installs a cross-shard seam observer (non-owning; nullptr to clear).
  /// Set while no workers run.
  void set_monitor(ShardMonitor* m) noexcept { monitor_ = m; }
  [[nodiscard]] ShardMonitor* monitor() const noexcept { return monitor_; }

  /// Window-perturbation choice point: when a source is installed, each
  /// round's window spans are drawn from it ("shard.window_quantum",
  /// kWindowQuantumBuckets evenly spaced fractions of each lookahead bound)
  /// instead of always spanning the full bound. Shrinking the window is
  /// always conservative — the lookahead guarantee is unchanged — so every
  /// perturbed run must stay bit-identical to the unperturbed one; the
  /// race auditor's fuzzer drives this seam to flush out orderings that
  /// accidentally depend on window phasing. Non-owning; nullptr restores
  /// full-lookahead windows.
  void set_window_choice(ChoiceSource* cs) noexcept { window_choice_ = cs; }
  [[nodiscard]] ChoiceSource* window_choice() const noexcept {
    return window_choice_;
  }
  static constexpr std::size_t kWindowQuantumBuckets = 8;

 private:
  enum class Round : std::uint8_t { Window, Final, Stop };

  /// One (source, destination) shard-pair channel: the lock-free SPSC ring
  /// plus a mutex-guarded overflow lane for the rare full-ring case.
  /// Blocking on a full ring would deadlock the window protocol (the
  /// consumer only drains after the producer's horizon advances past the
  /// window doing the pushing), so overload spills instead. Every instance
  /// shares the ledger site "Ring.overflow" (per-pair rows would fragment
  /// the ranking).
  struct PairRing {
    util::SpscRing<CrossNodeEvent> ring;
    util::SeamMutex mu;
    std::vector<CrossNodeEvent> overflow;  // guarded by mu; sent_at-sorted
    /// Mirror of overflow.size(), updated under mu: lets the consumer skip
    /// the lock entirely on the (overwhelmingly common) empty case.
    std::atomic<std::size_t> overflow_n{0};

    PairRing(std::size_t cap, int site) : ring(cap), mu(site) {}
  };

  /// Per-shard event arena: the admission scratch buffer every ring drain
  /// merges into. Owned by the worker running the shard; capacity persists
  /// across rounds so steady-state drains allocate nothing.
  struct ShardArena {
    std::vector<CrossNodeEvent> admit;
  };

  /// Ledger site of every InboundList::mu.
  [[nodiscard]] static int inbound_mu_site();

  /// One destination's inbound ring list: (source, ring) for every pair ring
  /// installed toward it. ring_for() appends under `mu` — once per ring, and
  /// several sources' workers may install concurrently — and publishes with
  /// a release store of `n`; drain_rings() acquires `n` and walks only the
  /// live rings. `entries` is sized partitions() up front and never grows.
  struct InboundList {
    struct Entry {
      int src = 0;
      PairRing* ring = nullptr;
    };
    util::SeamMutex mu{inbound_mu_site()};
    std::atomic<int> n{0};
    std::vector<Entry> entries;
  };

  /// Per-shard execution counters and the post sequence. Each is written
  /// only by the worker currently running the shard (post() runs on the
  /// source's worker, window accounting on the owner's; the completion step
  /// and run_until's setup are barrier-ordered against both), so increments
  /// are plain relaxed load + store rather than lock-prefixed RMWs on a
  /// shared line. planner_stats() sums them.
  struct ShardCounters {
    std::uint64_t post_seq = 0;
    std::atomic<std::uint64_t> coalesced{0};
    std::atomic<std::uint64_t> ring_posts{0};
    std::atomic<std::uint64_t> ring_overflows{0};
  };

  [[nodiscard]] PairRing& ring_for(int src, int dst);

  /// Drains every inbound ring of `shard` into its engine. With `plan`
  /// null, drains everything (round boundary: all producers are parked at
  /// the barrier). Otherwise drains each pair's due prefix for chained
  /// window `j`: entries with sent_at < W(j)_dst - L_pair, a cap the
  /// horizon wait has made complete and whose leftovers provably belong to
  /// future windows (DESIGN.md §7).
  void drain_rings(int shard, const RoundPlan* plan, int j);
  /// Hot half of admission: canonical (t, src, seq) ordering plus per-event
  /// delivery into the destination engine. Lock-free by construction.
  PASCHED_HOT void admit_sorted(int shard, std::vector<CrossNodeEvent>& q);
  /// Spins until the horizon clock of every peer owned by a worker other
  /// than `worker` reaches its chained window j-1 end (acquire;
  /// instrumented as the "ShardedEngine.horizon_wait" ledger seam). Peers
  /// `worker` owns already finished window j-1. Returns early when the run
  /// is poisoned.
  void wait_horizons(int shard, int j, int worker, int nworkers);
  void run_chain(int worker, int nworkers, int S);
  void plan_round(Time deadline) noexcept;

  std::vector<std::unique_ptr<Engine>> engines_;
  /// Row-major (src, dst) pair rings, allocated lazily on first post —
  /// S^2 slots but only communicating pairs materialize. Row src is read
  /// and written only by the worker running shard src (the producer);
  /// consumers find their rings through inbound_.
  std::vector<std::unique_ptr<PairRing>> rings_;
  std::vector<util::CacheAligned<InboundList>> inbound_;
  std::vector<util::CacheAligned<ShardArena>> arenas_;
  // Per-shard slots written by distinct domains every window: one cache
  // line each, or the sharded hot path false-shares its own bookkeeping
  // (the PSL503 layout rule guards this).
  std::vector<util::CacheAligned<ShardCounters>> counters_;
  std::vector<util::CacheAligned<Time>> next_t_;  // published pre-barrier
  /// Per-shard horizon clocks (ns since epoch): the owner stores its
  /// chained window end with release after running the window; peers
  /// acquire it before draining the corresponding ring prefix.
  std::vector<util::CacheAligned<std::atomic<std::int64_t>>> horizon_ns_;
  Duration lookahead_;
  int hub_ = 0;
  std::size_t ring_capacity_ = 256;

  std::unique_ptr<WindowPlanner> planner_;

  // Round-plan state: written only in the barrier completion step (all
  // workers parked), read by workers after the barrier — the barrier itself
  // is the synchronization.
  Round round_ = Round::Window;
  RoundPlan plan_;
  // srclint-ok(PSL503): completion-step scratch, only ever touched with
  // every worker parked at the round barrier — no concurrent writers exist.
  std::vector<Time> next_t_plain_;
  bool final_done_ = false;
  int phase_ = 0;
  bool stopped_early_ = false;

  // Execution counters written only in the completion step; the
  // worker-side ones live in counters_.
  std::uint64_t rounds_ = 0;
  std::uint64_t windows_ = 0;
  std::uint64_t final_rounds_ = 0;

  alignas(util::kCacheLineBytes) std::atomic<bool> stop_flag_{false};
  /// Set when a worker dies mid-round: every horizon spin checks it so the
  /// survivors fall through to the round barrier instead of waiting forever
  /// on a horizon that will never advance.
  alignas(util::kCacheLineBytes) std::atomic<bool> poisoned_{false};
  util::SeamMutex wrapup_mu_;
  /// A deferred wrapup: the callback plus the requesting shard's clock at
  /// request time. The completion step only runs it once *every* shard's
  /// clock has passed the stamp — the per-pair replacement for the global
  /// window's "all clocks agree at the barrier" invariant, and what keeps
  /// wrapup side effects (priority flips, daemon shutdown wakes) out of the
  /// digest-visible history below the completion time.
  struct Wrapup {
    Time stamp;
    Engine::Callback fn;
  };
  std::vector<Wrapup> wrapups_;
  /// Set when a wrapup is requested: from the next round on, per-round
  /// fire-log clearing stops, so events_processed_before() still sees every
  /// fire at or past the completion time even when the wrapup's execution
  /// is deferred across rounds.
  alignas(util::kCacheLineBytes) std::atomic<bool> freeze_fire_logs_{false};
  ShardMonitor* monitor_ = nullptr;
  ChoiceSource* window_choice_ = nullptr;
  bool pin_workers_ = true;
};

}  // namespace pasched::sim
