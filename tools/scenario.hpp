// The scenario the analysis tools drive: the paper's aggregate-trace
// benchmark on a Frost cluster, in its fig3 shape (vanilla kernel, no
// co-scheduler) or its fig5 shape (prototype kernel + co-scheduler).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "apps/aggregate_trace.hpp"
#include "core/presets.hpp"
#include "core/simulation.hpp"

namespace pasched::tools {

struct TraceScenario {
  const char* name;
  core::SimulationConfig cfg;
  mpi::WorkloadFactory factory;
};

/// One loop of `calls` allreduce calls after a 6 s warmup, on `nodes`
/// nodes × `tasks_per_node` tasks. The classic engine runs it; set
/// cfg.parallel for the partitioned core.
inline TraceScenario trace_scenario(bool prototype, int nodes,
                                    int tasks_per_node, int calls,
                                    std::uint64_t seed) {
  TraceScenario s;
  s.name = prototype ? "fig5-prototype+cosched" : "fig3-vanilla";
  s.cfg.cluster = cluster::presets::frost(nodes);
  s.cfg.cluster.seed = seed;
  s.cfg.cluster.node.tunables =
      prototype ? core::prototype_kernel() : core::vanilla_kernel();
  s.cfg.job.ntasks = nodes * tasks_per_node;
  s.cfg.job.tasks_per_node = tasks_per_node;
  s.cfg.job.seed = seed;
  s.cfg.use_coscheduler = prototype;
  s.cfg.cosched = core::paper_cosched();

  apps::AggregateTraceConfig at;
  at.loops = 1;
  at.calls_per_loop = calls;
  at.warmup = sim::Duration::sec(6);
  s.factory = apps::aggregate_trace(at);
  return s;
}

/// The fig5 scenario on the partitioned core with one worker per node,
/// built fresh on every call: the analyzer's runtime legs run one
/// simulation per ledger.
inline std::function<std::unique_ptr<core::Simulation>()> sharded_fig5(
    int nodes, int calls) {
  return [=] {
    TraceScenario s = trace_scenario(/*prototype=*/true, nodes, 16, calls, 1);
    s.cfg.parallel = nodes;
    return std::make_unique<core::Simulation>(s.cfg, s.factory);
  };
}

}  // namespace pasched::tools
