// Microbenchmark of partitioned execution: a fig5-style run (prototype
// kernel + co-scheduler, aggregate_trace workload) on a 64-node cluster,
// executed under the classic single event queue and under --parallel=N for
// N in {1, 2, 4, 8}. Reports wall-clock time and event throughput per mode
// and writes BENCH_shard.json next to the binary's working directory.
//
// The speedup column is only meaningful on a machine with enough cores;
// hardware_concurrency is recorded in the JSON so results are interpreted
// honestly (on a single-core container --parallel=8 *cannot* beat legacy).
//
// The profiled pass runs twice — per-pair planner and legacy global
// planner — so the JSON carries the sync-round reduction (n_windows_ratio)
// the per-pair window chain buys. The speedup prediction is priced with
// *measured* constants: event cost from the legacy row's own wall clock,
// barrier cost from the contention ledger — but only when the 8-worker
// ledger pass was not oversubscribed (an oversubscribed barrier wait
// measures kernel thread churn, not the barrier; barrier_cost_source in
// the JSON records which constant was used).
//
//   ./micro_shard [--nodes=8] [--tasks-per-node=16] [--calls=120] [--seed=1]
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/presets.hpp"
#include "util/flags.hpp"

using namespace pasched;

namespace {

struct ModeResult {
  std::string name;
  int parallel = 0;
  /// Worker threads this mode actually uses (legacy = 1).
  int cores_used = 1;
  /// False when the mode asks for more workers than the machine has
  /// hardware threads — its speedup column is a measurement of
  /// oversubscription, not of the partitioned core.
  bool speedup_valid = true;
  double wall_ms = 0;
  std::uint64_t events = 0;
  std::uint64_t events_at_completion = 0;  // must agree across modes
  bool completed = false;
  double mean_us = 0;  // per-Allreduce mean: must agree across modes
  bool audited = false;
  std::uint64_t audit_violations = 0;
};

ModeResult run_mode(bench::RunSpec spec, const std::string& name,
                    int parallel, bool audit = false) {
  spec.parallel = parallel;
  spec.audit = audit;
  const auto t0 = std::chrono::steady_clock::now();
  const bench::RunResult r = bench::run_aggregate(spec);
  const auto t1 = std::chrono::steady_clock::now();
  ModeResult m;
  m.name = name;
  m.parallel = parallel;
  m.wall_ms =
      std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
          t1 - t0)
          .count();
  m.cores_used = parallel > 0 ? parallel : 1;
  m.events = r.events;
  m.events_at_completion = r.events_at_completion;
  m.completed = r.completed;
  m.mean_us = r.mean_us;
  m.audited = audit;
  m.audit_violations = r.audit_violations;
  const unsigned hw = std::thread::hardware_concurrency();
  m.speedup_valid = hw > 0 && static_cast<unsigned>(m.cores_used) <= hw;
  if (!m.speedup_valid)
    std::cerr << "micro_shard: WARNING: mode " << name << " wants "
              << m.cores_used << " workers but the machine has " << hw
              << " hardware threads; its speedup column measures "
                 "oversubscription, not the partitioned core\n";
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  bench::RunSpec spec;
  // fig5's geometry (8 nodes, 120 calls): the configuration the ROADMAP
  // scalability targets are stated against.
  spec.nodes = static_cast<int>(flags.get_int("nodes", 8));
  spec.tasks_per_node = static_cast<int>(flags.get_int("tasks-per-node", 16));
  spec.calls = static_cast<int>(flags.get_int("calls", 120));
  spec.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  spec.tunables = core::prototype_kernel();
  spec.use_cosched = true;
  spec.cosched = core::paper_cosched();
  spec.warmup = sim::Duration::ms(500);  // keep the sweep snappy

  const unsigned hw = std::thread::hardware_concurrency();
  bench::banner("micro_shard: partitioned-core scaling",
                "engine microbenchmark (no paper figure)");
  std::cout << "nodes=" << spec.nodes << " tasks=" << spec.nodes * spec.tasks_per_node
            << " calls=" << spec.calls << " hardware_concurrency=" << hw
            << "\n\n";

  std::vector<ModeResult> modes;
  modes.push_back(run_mode(spec, "legacy", 0));
  for (const int n : {1, 2, 4, 8})
    modes.push_back(run_mode(spec, "parallel" + std::to_string(n), n));
  // Full race audit (seam monitor + ownership sink) on 4 workers:
  // the delta against the bare parallel4 row prices the *dynamic* checker;
  // the annotation layer's own cost is the cross-build delta of this whole
  // file under -DPASCHED_VALIDATE=ON vs OFF (see "validate_enabled" below).
  modes.push_back(run_mode(spec, "parallel4+audit", 4, /*audit=*/true));

  const double legacy_ms = modes.front().wall_ms;
  const auto speedup = [legacy_ms](const ModeResult& m) {
    return m.wall_ms > 0 ? legacy_ms / m.wall_ms : 0.0;
  };

  std::cout
      << "mode             wall_ms   events     ev/ms    mean_us   speedup\n";
  for (const ModeResult& m : modes) {
    std::cout << m.name << std::string(m.name.size() < 16 ? 16 - m.name.size() : 1, ' ')
              << m.wall_ms << "  " << m.events << "  "
              << (m.wall_ms > 0 ? static_cast<double>(m.events) / m.wall_ms : 0)
              << "  " << m.mean_us << "  " << speedup(m) << "x"
              << (m.completed ? "" : "  [INCOMPLETE]") << "\n";
  }
  const ModeResult& par4 = modes[3];  // legacy, p1, p2, p4, p8, p4+audit
  const ModeResult& par8 = modes[4];
  const ModeResult& audited = modes.back();
  const double speedup8 = speedup(par8);
  const bool speedup8_valid = par8.speedup_valid;
  const double audit_overhead =
      par4.wall_ms > 0 ? audited.wall_ms / par4.wall_ms : 0.0;

  // Separate profiled pass: the scale window profiler predicts the
  // speedup ceiling of this workload's conservative windows. Kept out of
  // the timed modes above so the monitor's bookkeeping never pollutes the
  // wall-clock columns; one worker suffices (windows are worker-invariant).
  bench::RunSpec profile_spec = spec;
  profile_spec.parallel = 1;
  profile_spec.profile_scale = true;
  const bench::RunResult profiled = bench::run_aggregate(profile_spec);

  // Same profile under the legacy global planner: the two sync-round counts
  // are schedule-derived (deterministic), and their ratio is the window
  // reduction the per-pair chain buys — the CI scalability smoke's figure.
  bench::RunSpec global_spec = profile_spec;
  global_spec.planner = sim::PlannerMode::Global;
  const bench::RunResult profiled_global = bench::run_aggregate(global_spec);
  const std::uint64_t n_windows_perpair = profiled.planner_rounds;
  const std::uint64_t n_windows_global = profiled_global.planner_rounds;
  const double n_windows_ratio =
      n_windows_perpair > 0
          ? static_cast<double>(n_windows_global) /
                static_cast<double>(n_windows_perpair)
          : 0.0;

  // Separate contention-ledger pass on 8 workers (pasched-srclint's runtime
  // half): ranks the engine's serialization sites by recorded seam wait.
  // Also kept out of the timed modes — the observer callbacks cost time on
  // exactly the paths being measured. Under -DPASCHED_VALIDATE=OFF the
  // seams never notify and the ranking is empty (ledger_enabled records
  // which, so the JSON stays honest).
  bench::RunSpec ledger_spec = spec;
  ledger_spec.parallel = 8;
  ledger_spec.ledger = true;
  const bench::RunResult ledgered = bench::run_aggregate(ledger_spec);

  // Price the window model with measured constants: event cost from the
  // legacy row's wall clock (what one event of *this* workload costs on
  // *this* box), barrier cost from the ledger's per-round figure. The
  // barrier measurement only transfers when the 8-worker ledger pass had 8
  // hardware threads to run on — oversubscribed, each crossing waits for
  // the kernel to schedule the other workers sequentially, which inflates
  // the figure by the oversubscription factor and would poison the
  // prediction. Falls back to the model defaults otherwise (the JSON
  // records which via barrier_cost_source).
  scale::SpeedupModel measured_model;
  if (modes.front().events > 0 && legacy_ms > 0)
    measured_model.event_cost_ns =
        legacy_ms * 1e6 / static_cast<double>(modes.front().events);
  std::string barrier_cost_source = "default";
  if (ledgered.measured_barrier_cost_ns >= 0) {
    if (hw >= 8) {
      measured_model.barrier_cost_ns = ledgered.measured_barrier_cost_ns;
      barrier_cost_source = "measured";
    } else {
      barrier_cost_source = "default (oversubscribed ledger pass)";
    }
  }
  const double predicted =
      measured_model.predicted_speedup(profiled.windows, 8);
  const double predicted_default_model = profiled.predicted_max_speedup;

  std::cout << "\nspeedup parallel8 vs legacy: " << speedup8 << "x (on " << hw
            << " hardware threads"
            << (speedup8_valid ? "" : "; OVERSUBSCRIBED, not meaningful")
            << ")\n"
            << "predicted ceiling (barrier-cost model, 8 workers): "
            << predicted << "x over " << profiled.events_at_completion
            << " events (" << predicted_default_model
            << "x with default constants; event cost "
            << measured_model.event_cost_ns << " ns, barrier cost "
            << measured_model.barrier_cost_ns << " ns ["
            << barrier_cost_source << "]; "
            << profiled.lookahead_violations << " lookahead violations)\n"
            << "sync rounds: perpair " << n_windows_perpair << " vs global "
            << n_windows_global << " = " << n_windows_ratio
            << "x reduction (batch " << sim::kDefaultWindowBatch << ", "
            << profiled.planner_chained << " chained / "
            << profiled.planner_coalesced << " coalesced windows, ring "
            << profiled.ring_posts << " posts / " << profiled.ring_overflows
            << " overflows)\n"
            << "race-audit overhead vs parallel4: " << audit_overhead
            << "x wall (" << audited.audit_violations << " violations)\n";
  if (ledgered.ledger_enabled) {
    std::cout << "contention ledger (parallel8): barrier wait share "
              << ledgered.barrier_wait_share << ", top sites:";
    for (const bench::LedgerSiteRow& s : ledgered.top_wait_sites)
      std::cout << " " << s.site << "(" << s.wait_share << ")";
    std::cout << "\n";
  } else {
    std::cout << "contention ledger: unavailable (seams uninstrumented "
                 "under -DPASCHED_VALIDATE=OFF)\n";
  }
  std::cout
            << "validate (ownership annotations compiled in): "
#if PASCHED_VALIDATE_ENABLED
            << "on\n";
#else
            << "off\n";
#endif

  std::ofstream js("BENCH_shard.json");
  js << "{\n  \"bench\": \"micro_shard\",\n"
     << "  \"git_commit\": \"" << bench::git_commit() << "\",\n"
     << "  \"nodes\": " << spec.nodes << ",\n"
     << "  \"tasks\": " << spec.nodes * spec.tasks_per_node << ",\n"
     << "  \"calls\": " << spec.calls << ",\n"
     << "  \"hardware_concurrency\": " << hw << ",\n"
     << "  \"speedup_valid_note\": \"speedup columns are only meaningful "
        "when cores <= hardware_concurrency; oversubscribed rows measure "
        "thread churn, not the partitioned core\",\n"
     << "  \"build_type\": \"" << bench::build_type() << "\",\n"
     << "  \"validate_enabled\": "
     << (bench::validate_enabled() ? "true" : "false") << ",\n"
     << "  \"modes\": [\n";
  for (std::size_t i = 0; i < modes.size(); ++i) {
    const ModeResult& m = modes[i];
    js << "    {\"mode\": \"" << m.name << "\", \"parallel\": " << m.parallel
       << ", \"cores\": " << m.cores_used
       << ", \"speedup_valid\": " << (m.speedup_valid ? "true" : "false")
       << ", \"wall_ms\": " << m.wall_ms << ", \"events\": " << m.events
       << ", \"events_at_completion\": " << m.events_at_completion
       << ", \"speedup_vs_legacy\": " << speedup(m)
       << ", \"audited\": " << (m.audited ? "true" : "false")
       << ", \"audit_violations\": " << m.audit_violations
       << ", \"completed\": " << (m.completed ? "true" : "false") << "}"
       << (i + 1 < modes.size() ? "," : "") << "\n";
  }
  js << "  ],\n  \"speedup_parallel8_vs_legacy\": " << speedup8
     << ",\n  \"speedup_valid\": " << (speedup8_valid ? "true" : "false")
     << ",\n  \"predicted_max_speedup\": " << predicted
     << ",\n  \"predicted_max_speedup_default_model\": "
     << predicted_default_model
     << ",\n  \"model_event_cost_ns\": " << measured_model.event_cost_ns
     << ",\n  \"model_barrier_cost_ns\": " << measured_model.barrier_cost_ns
     << ",\n  \"barrier_cost_source\": \"" << barrier_cost_source
     << "\",\n  \"window_batch\": " << sim::kDefaultWindowBatch
     << ",\n  \"n_windows_perpair\": " << n_windows_perpair
     << ",\n  \"n_windows_global\": " << n_windows_global
     << ",\n  \"n_windows_ratio\": " << n_windows_ratio
     << ",\n  \"chained_windows\": " << profiled.planner_chained
     << ",\n  \"coalesced_windows\": " << profiled.planner_coalesced
     << ",\n  \"ring_posts\": " << profiled.ring_posts
     << ",\n  \"ring_overflows\": " << profiled.ring_overflows
     << ",\n  \"lookahead_violations\": " << profiled.lookahead_violations
     << ",\n  \"audit_overhead_vs_parallel4\": " << audit_overhead
     << ",\n  \"ledger_enabled\": "
     << (ledgered.ledger_enabled ? "true" : "false")
     << ",\n  \"barrier_wait_share\": " << ledgered.barrier_wait_share
     << ",\n  \"top_wait_sites\": [\n";
  for (std::size_t i = 0; i < ledgered.top_wait_sites.size(); ++i) {
    const bench::LedgerSiteRow& s = ledgered.top_wait_sites[i];
    js << "    {\"site\": \"" << s.site << "\", \"acquires\": " << s.acquires
       << ", \"wait_ms\": " << s.wait_ms
       << ", \"wait_share\": " << s.wait_share << "}"
       << (i + 1 < ledgered.top_wait_sites.size() ? "," : "") << "\n";
  }
  js << "  ]\n}\n";
  std::cout << "wrote BENCH_shard.json\n";

  // Cross-mode sanity: the simulated physics must not depend on the mode.
  for (const ModeResult& m : modes) {
    if (!m.completed) {
      std::cerr << "micro_shard: mode " << m.name << " did not complete\n";
      return 1;
    }
    if (m.mean_us != modes[1].mean_us) {
      std::cerr << "micro_shard: mode " << m.name
                << " disagrees with parallel1 on mean Allreduce time\n";
      return 1;
    }
    // The raw event counters legitimately differ (the partitioned core
    // drains its final window past the completing event); the normalized
    // below-completion counter must not.
    if (m.events_at_completion != modes[1].events_at_completion) {
      std::cerr << "micro_shard: mode " << m.name << " counted "
                << m.events_at_completion
                << " events below completion but parallel1 counted "
                << modes[1].events_at_completion
                << "; the modes executed different histories\n";
      return 1;
    }
    if (m.audit_violations != 0) {
      std::cerr << "micro_shard: audited mode " << m.name << " reported "
                << m.audit_violations << " ownership violations\n";
      return 1;
    }
  }
  return 0;
}
