#include "core/equivalence.hpp"

#include "trace/trace.hpp"

namespace pasched::core {

CanonicalDigest run_canonical(const SimulationConfig& cfg,
                              const mpi::WorkloadFactory& factory) {
  return run_canonical(cfg, factory, {});
}

CanonicalDigest run_canonical(const SimulationConfig& cfg,
                              const mpi::WorkloadFactory& factory,
                              const std::function<void(Simulation&)>& prepare) {
  Simulation sim(cfg, factory);
  trace::Tracer tracer(-1);
  trace::EventLog elog;
  for (int n = 0; n < sim.cluster().size(); ++n)
    tracer.attach(sim.cluster().node(n).kernel());
  tracer.set_event_log(&elog);
  sim.job().set_event_log(&elog);
  tracer.enable(sim.engine().now());
  if (prepare) prepare(sim);

  const SimulationResult res = sim.run();

  CanonicalDigest d;
  d.completed = res.completed;
  d.elapsed = res.elapsed;
  d.events = res.events;
  if (sim.sharded() != nullptr)
    d.sync_rounds = sim.sharded()->planner_stats().rounds;

  const sim::Time tc =
      res.completed ? sim.job().completion_time() : sim::Time::max();

  Hasher h;
  h.mix(res.completed ? 1 : 0);
  h.mix_int(res.elapsed.count());
  for (int r = 0; r < sim.job().ntasks(); ++r)
    h.mix_int(sim.job().task(r).finish_time().since_epoch().count());
  for (const trace::Interval& iv : tracer.intervals()) {
    if (iv.end >= tc) continue;
    h.mix_int(iv.begin.since_epoch().count());
    h.mix_int(iv.end.since_epoch().count());
    h.mix_int(iv.node);
    h.mix_int(iv.cpu);
    h.mix_str(iv.thread->name());
  }
  for (const trace::Event& e : elog.events()) {
    if (e.t >= tc) continue;
    h.mix_int(e.t.since_epoch().count());
    h.mix_int(static_cast<int>(e.kind));
    h.mix_int(e.node);
    h.mix_int(e.cpu);
    h.mix_int(e.tid);
    h.mix_int(static_cast<int>(e.cls));
    h.mix_int(e.priority);
    h.mix_int(e.ready_depth);
    h.mix_int(e.src_rank);
    h.mix_int(e.dst_rank);
    h.mix(e.msg_id);
  }
  d.hash = h.value();
  return d;
}

}  // namespace pasched::core
