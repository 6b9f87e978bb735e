#include "layers.hpp"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <numeric>

#include "apps/ale3d_proxy.hpp"
#include "apps/channels.hpp"
#include "cluster/cluster.hpp"
#include "cluster/node.hpp"
#include "daemons/daemon.hpp"
#include "daemons/io_service.hpp"
#include "daemons/registry.hpp"
#include "kern/kernel.hpp"
#include "kern/types.hpp"
#include "net/fabric.hpp"
#include "sim/engine.hpp"
#include "sim/random.hpp"
#include "sim/shard.hpp"
#include "timing.hpp"

namespace perfbench {

using namespace pasched;

namespace {

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double count(std::uint64_t v) { return static_cast<double>(v); }

/// Each isolation run repeats its timed batch until this much host time
/// has passed (and at least kMinRounds times), then reports the median
/// batch's per-call cost.
constexpr double kIsolationBudgetS = 0.25;
constexpr int kMinRounds = 5;

Clock::time_point budget_end(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

template <typename Batch>
double median_per_call_ns(std::size_t calls_per_batch, Batch&& batch) {
  std::vector<double> per_call;
  const auto until = budget_end(kIsolationBudgetS);
  while (static_cast<int>(per_call.size()) < kMinRounds ||
         Clock::now() < until) {
    per_call.push_back(batch() * 1e9 / static_cast<double>(calls_per_batch));
  }
  return median(std::move(per_call));
}

/// Scheduler counts taken through the kernel's observer hook. One slot per
/// node: in a partitioned run each node's hooks fire only on the shard that
/// owns it, so no two threads write one slot.
class KernCounter final : public kern::SchedObserver {
 public:
  struct alignas(64) Slot {
    std::uint64_t dispatches = 0;
    std::uint64_t preemptions = 0;
    std::uint64_t ticks = 0;
    std::uint64_t ipis = 0;
  };

  explicit KernCounter(int nodes) : slots_(static_cast<std::size_t>(nodes)) {}

  void on_dispatch(sim::Time, kern::NodeId n, kern::CpuId,
                   const kern::Thread&) override {
    ++slot(n).dispatches;
  }
  void on_preempt(sim::Time, kern::NodeId n, kern::CpuId,
                  const kern::Thread&) override {
    ++slot(n).preemptions;
  }
  void on_tick(sim::Time, kern::NodeId n, kern::CpuId) override {
    ++slot(n).ticks;
  }
  void on_ipi(sim::Time, kern::NodeId n, kern::CpuId) override {
    ++slot(n).ipis;
  }

  [[nodiscard]] Slot total() const {
    Slot t;
    for (const Slot& s : slots_) {
      t.dispatches += s.dispatches;
      t.preemptions += s.preemptions;
      t.ticks += s.ticks;
      t.ipis += s.ipis;
    }
    return t;
  }

 private:
  Slot& slot(kern::NodeId n) { return slots_[static_cast<std::size_t>(n)]; }
  std::vector<Slot> slots_;
};

/// Everything the traced pass reads off the layers, summed over points.
struct Counts {
  std::uint64_t events = 0;
  KernCounter::Slot kern;
  std::uint64_t activations = 0;
  std::uint64_t io_requests = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t allreduce_calls = 0;
  double aux_cpu_s = 0;
  std::uint64_t cosched_windows = 0;
  std::uint64_t cosched_flips = 0;
  sim::PlannerStats planner;
  double sharded_run_s = 0;
};

void read_layer_counters(core::Simulation& s, const KernCounter& kc,
                         Counts& c) {
  const KernCounter::Slot k = kc.total();
  c.kern.dispatches += k.dispatches;
  c.kern.preemptions += k.preemptions;
  c.kern.ticks += k.ticks;
  c.kern.ipis += k.ipis;
  cluster::Cluster& cl = s.cluster();
  for (int n = 0; n < cl.size(); ++n) {
    daemons::NodeDaemons* d = cl.node(n).daemons();
    if (d == nullptr) continue;
    for (const auto& dm : d->daemons())
      c.activations += dm->stats().activations;
    if (daemons::IoService* io = d->io_service())
      c.io_requests += io->stats().requests;
  }
  const net::FabricStats fs = cl.fabric().stats();
  c.messages += fs.messages;
  c.bytes += fs.bytes;
  c.allreduce_calls +=
      s.job().channel(apps::kChanAllreduce).recorded_us.size();
  c.aux_cpu_s += s.job().aux_cpu_total().to_seconds();
  if (core::CoschedManager* cm = s.cosched()) {
    const core::CoschedStats cs = cm->total_stats();
    c.cosched_windows += cs.windows;
    c.cosched_flips += cs.flips;
  }
  if (s.sharded() != nullptr) c.planner = s.sharded()->planner_stats();
}

/// Queue depth as events_pending() while stepping: a sample every 64th step
/// for the median, every step for the maximum.
struct DepthSampler {
  std::vector<double> samples;
  std::size_t max = 0;
};

/// Drives a classic-engine point the way Simulation::run() does, one
/// engine().step() at a time, and rebuilds its result.
core::SimulationResult step_classic(core::Simulation& s,
                                    DepthSampler& depth) {
  sim::Engine& eng = s.engine();
  s.cluster().start();
  s.job().launch();
  const sim::Time deadline = eng.now() + s.config().horizon;
  std::uint64_t n = 0;
  while (!s.job().complete() && eng.next_event_time() <= deadline) {
    const std::size_t pending = eng.events_pending();
    depth.max = std::max(depth.max, pending);
    if ((n++ & 63U) == 0) depth.samples.push_back(static_cast<double>(pending));
    eng.step();
  }
  core::SimulationResult r;
  r.completed = s.job().complete();
  r.elapsed = r.completed ? s.job().elapsed() : s.config().horizon;
  r.events = eng.events_processed();
  r.events_at_completion =
      r.completed ? eng.events_processed_before_now() : r.events;
  r.any_node_evicted = s.cluster().any_node_evicted();
  return r;
}

/// One point of the traced pass, with spans setup / run / collect.
Outcome traced_point(const Point& p, Counts& c, DepthSampler& depth,
                     Spans& spans) {
  const auto t0 = Clock::now();
  KernCounter kc(p.cfg.cluster.nodes);
  core::Simulation s(p.cfg, p.factory);
  for (int n = 0; n < s.cluster().size(); ++n)
    s.cluster().node(n).kernel().set_observer(&kc);
  const auto t1 = Clock::now();
  spans.add("setup", p.name, t0, t1);
  const core::SimulationResult res =
      s.sharded() != nullptr ? s.run() : step_classic(s, depth);
  const auto t2 = Clock::now();
  spans.add("run", p.name, t1, t2);
  const Outcome o = collect(s, res, p.outputs);
  c.events += res.events;
  read_layer_counters(s, kc, c);
  if (s.sharded() != nullptr) c.sharded_run_s += seconds_between(t1, t2);
  spans.add("collect", p.name, t2, Clock::now());
  return o;
}

struct EngineCosts {
  double schedule_ns = 0;
  double fire_ns = 0;
  double cancel_ns = 0;
};

/// sim::Engine schedule_at / step / cancel, timed in batches on a standalone
/// engine held at `depth` pending events with trivial callbacks. Each batch
/// moves the depth by at most a quarter, and the untimed half of the round
/// moves it back.
EngineCosts engine_costs(std::size_t depth, std::uint64_t seed) {
  sim::Engine eng;
  sim::Rng rng(seed);
  std::uint64_t fired = 0;
  const auto cb = [&fired] { ++fired; };
  const std::size_t batch = std::clamp<std::size_t>(depth / 4, 64, 4096);
  std::vector<sim::Duration> delta(batch);
  for (auto& d : delta)
    d = sim::Duration::ns(rng.uniform_int(1'000, 2'000'000));
  std::vector<std::size_t> order(batch);
  std::iota(order.begin(), order.end(), std::size_t{0});
  for (std::size_t i = order.size(); i > 1; --i) {
    const auto j = rng.uniform_int(0, static_cast<std::int64_t>(i) - 1);
    std::swap(order[i - 1], order[static_cast<std::size_t>(j)]);
  }
  std::vector<sim::EventId> ids(batch);
  for (std::size_t i = 0; i < depth; ++i)
    eng.schedule_at(eng.now() + delta[i % batch], cb);
  const auto schedule_batch = [&] {
    for (std::size_t i = 0; i < batch; ++i)
      ids[i] = eng.schedule_at(eng.now() + delta[i], cb);
  };
  const auto step_batch = [&] {
    for (std::size_t i = 0; i < batch; ++i) eng.step();
  };

  EngineCosts out;
  out.schedule_ns = median_per_call_ns(batch, [&] {
    const auto t0 = Clock::now();
    schedule_batch();
    const double s = seconds_between(t0, Clock::now());
    step_batch();
    return s;
  });
  out.fire_ns = median_per_call_ns(batch, [&] {
    schedule_batch();
    const auto t0 = Clock::now();
    step_batch();
    return seconds_between(t0, Clock::now());
  });
  out.cancel_ns = median_per_call_ns(batch, [&] {
    schedule_batch();
    const auto t0 = Clock::now();
    for (const std::size_t i : order) eng.cancel(ids[i]);
    return seconds_between(t0, Clock::now());
  });
  return out;
}

/// net::Fabric::send plus the delivery it schedules, on a standalone engine
/// with the frost fabric at `nodes` nodes; sources and destinations rotate
/// over every node pair.
double fabric_send_ns(int nodes, std::size_t bytes, std::uint64_t seed) {
  sim::Engine eng;
  net::Fabric fab(eng, cluster::presets::frost(nodes).fabric, sim::Rng(seed));
  std::uint64_t delivered = 0;
  const auto cb = [&delivered] { ++delivered; };
  constexpr int kBatch = 4096;
  const int peers = std::max(nodes - 1, 1);
  int k = 0;
  return median_per_call_ns(kBatch, [&] {
    const auto t0 = Clock::now();
    for (int i = 0; i < kBatch; ++i, k = (k + 1) % (nodes * peers)) {
      const int src = k % nodes;
      const int hop = 1 + (k / nodes) % peers;
      fab.send(src, (src + hop) % nodes, bytes, cb);
    }
    eng.run();
    return seconds_between(t0, Clock::now());
  });
}

cluster::ClusterConfig idle_cluster(int nodes, const kern::Tunables& tun,
                                    bool daemons, std::uint64_t seed) {
  cluster::ClusterConfig cc = cluster::presets::frost(nodes);
  cc.seed = seed;
  cc.node.tunables = tun;
  cc.node.install_daemons = daemons;
  return cc;
}

/// Host ns per kernel tick: an idle cluster of `nodes` nodes, daemons off,
/// no job, advanced with run_until in one-second steps.
double idle_tick_ns(int nodes, const kern::Tunables& tun,
                    std::uint64_t seed) {
  sim::Engine eng;
  cluster::Cluster cl(eng, idle_cluster(nodes, tun, false, seed));
  cl.start();
  const auto t0 = Clock::now();
  const auto until = budget_end(kIsolationBudgetS);
  do {
    eng.run_until(eng.now() + sim::Duration::sec(1));
  } while (Clock::now() < until);
  const double host_s = seconds_between(t0, Clock::now());
  std::uint64_t ticks = 0;
  for (int n = 0; n < cl.size(); ++n)
    ticks += cl.node(n).kernel().accounting().ticks_taken;
  return ratio(host_s * 1e9, count(ticks));
}

/// Host us per simulated second that one node's daemons add: an idle
/// cluster of `nodes` nodes with daemons on, minus the same cluster with
/// daemons off, per node. The two advance in alternating one-second steps
/// so both see the same host conditions.
double daemon_us_per_sim_s(int nodes, const kern::Tunables& tun,
                           std::uint64_t seed) {
  sim::Engine on_eng;
  sim::Engine off_eng;
  cluster::Cluster on(on_eng, idle_cluster(nodes, tun, true, seed));
  cluster::Cluster off(off_eng, idle_cluster(nodes, tun, false, seed));
  on.start();
  off.start();
  double on_s = 0;
  double off_s = 0;
  int sim_s = 0;
  const auto until = budget_end(2 * kIsolationBudgetS);
  while (sim_s < kMinRounds || Clock::now() < until) {
    const auto t0 = Clock::now();
    on_eng.run_until(on_eng.now() + sim::Duration::sec(1));
    const auto t1 = Clock::now();
    off_eng.run_until(off_eng.now() + sim::Duration::sec(1));
    on_s += seconds_between(t0, t1);
    off_s += seconds_between(t1, Clock::now());
    ++sim_s;
  }
  return (on_s - off_s) * 1e6 / (sim_s * nodes);
}

/// Host seconds to construct and run one point untraced.
template <typename F>
auto spanned(Spans& spans, const std::string& name, F&& f) {
  const auto t0 = Clock::now();
  auto r = f();
  spans.add(name, "", t0, Clock::now());
  return r;
}

}  // namespace

void Spans::add(const std::string& name, const std::string& detail,
                Clock::time_point t0, Clock::time_point t1) {
  using us = std::chrono::duration<double, std::micro>;
  spans_.push_back(
      Span{name, detail, us(t0 - origin_).count(), us(t1 - t0).count()});
}

bool Spans::write_chrome_json(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << std::setprecision(15)
    << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    f << (i ? ",\n" : "\n") << "{\"name\": \"" << s.name
      << "\", \"cat\": \"perfbench\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1"
      << ", \"ts\": " << s.ts_us << ", \"dur\": " << s.dur_us
      << ", \"args\": {\"point\": \"" << s.detail << "\"}}";
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

Traced traced_run(Workload w, std::uint64_t seed, const Untraced& untraced,
                  Spans& spans) {
  Traced out;
  Counts c;
  DepthSampler depth;
  const auto t0 = Clock::now();
  for (const Point& p : make_points(w, seed))
    out.outcomes.push_back(traced_point(p, c, depth, spans));
  const double traced_wall_s = seconds_between(t0, Clock::now());

  const bool sharded = w == Workload::Fig5Sharded;
  // The classic and multi-worker runs of the sharded point are timed by
  // run_rep(), as the untraced one-worker repetitions are, so both sides of
  // each ratio cover construction, run, collect and teardown.
  Rep classic;
  Rep multi;
  if (sharded) {
    // The sharded workload never steps a classic engine: take its queue
    // depth from the classic twin, which fires the same events.
    Counts twin;
    const std::vector<Point> classic_pt = {classic_twin_of_sharded(seed)};
    (void)traced_point(classic_pt.front(), twin, depth, spans);
    classic =
        spanned(spans, "shard.classic", [&] { return run_rep(classic_pt); });
    const std::vector<Point> multi_pt = {multi_worker_of_sharded(seed)};
    multi = spanned(spans, "shard.multi_worker",
                    [&] { return run_rep(multi_pt); });
    out.multi_worker = multi.outcomes;
  }

  const int nodes = nodes_of(w);
  const kern::Tunables tun = kernel_of(w);
  const auto depth_p50 = static_cast<std::size_t>(median(depth.samples));
  const EngineCosts ec = spanned(
      spans, "iso.engine", [&] { return engine_costs(depth_p50, seed); });
  const double send_small = spanned(
      spans, "iso.net_small", [&] { return fabric_send_ns(nodes, 8, seed); });
  const double send_halo = spanned(spans, "iso.net_halo", [&] {
    return fabric_send_ns(nodes, apps::Ale3dConfig{}.halo_bytes, seed);
  });
  const double tick_ns = spanned(
      spans, "iso.kern_tick", [&] { return idle_tick_ns(nodes, tun, seed); });
  const double daemon_us = spanned(spans, "iso.daemons", [&] {
    return daemon_us_per_sim_s(nodes, tun, seed);
  });

  // Count x isolated unit cost for the layers that have one; the rest of the
  // run is model callbacks (mpi, core, apps). An estimate: the unit costs
  // overlap (a tick's or a send's cost includes its own schedule and fire).
  // They are single-threaded, so the sharded workload is set against its
  // classic twin's time.
  const double send_ns = w == Workload::Ale3dIo ? send_halo : send_small;
  const double covered_ns =
      count(c.events) * (ec.schedule_ns + ec.fire_ns) +
      count(c.kern.ticks) * tick_ns + count(c.messages) * send_ns;
  const double run_ns = (sharded ? classic.run_s : untraced.run_s) * 1e9;

  const sim::PlannerStats& ps = c.planner;
  const double rounds = count(ps.rounds);
  out.metrics = {
      {"sim.events", count(c.events), "count"},
      {"sim.queue_depth_p50", count(depth_p50), "events"},
      {"sim.queue_depth_max", count(depth.max), "events"},
      {"sim.schedule_ns", ec.schedule_ns, "ns"},
      {"sim.fire_ns", ec.fire_ns, "ns"},
      {"sim.cancel_ns", ec.cancel_ns, "ns"},
      {"shard.rounds", rounds, "count"},
      {"shard.windows", count(ps.windows), "count"},
      {"shard.coalesced", count(ps.coalesced), "count"},
      {"shard.ring_posts", count(ps.ring_posts), "count"},
      {"shard.ring_overflows", count(ps.ring_overflows), "posts"},
      {"shard.events_per_round",
       sharded ? ratio(count(c.events), rounds) : 0.0, "events"},
      {"shard.us_per_round", ratio(c.sharded_run_s * 1e6, rounds), "us"},
      {"shard.speedup_vs_classic", ratio(classic.wall_s, multi.wall_s), "x"},
      {"shard.par1_over_classic", ratio(untraced.wall_s, classic.wall_s), "x"},
      {"shard.classic_wall_s", classic.wall_s, "s"},
      {"kern.dispatches", count(c.kern.dispatches), "count"},
      {"kern.preemptions", count(c.kern.preemptions), "count"},
      {"kern.ticks", count(c.kern.ticks), "count"},
      {"kern.ipis", count(c.kern.ipis), "count"},
      {"kern.tick_ns", tick_ns, "ns"},
      {"daemons.activations", count(c.activations), "count"},
      {"daemons.io_requests", count(c.io_requests), "count"},
      {"daemons.node_us_per_sim_s", daemon_us, "us/s"},
      {"net.messages", count(c.messages), "count"},
      {"net.bytes", count(c.bytes), "bytes"},
      {"net.send_ns_small", send_small, "ns"},
      {"net.send_ns_halo", send_halo, "ns"},
      {"mpi.allreduce_calls", count(c.allreduce_calls), "count"},
      {"mpi.msgs_per_allreduce",
       ratio(count(c.messages), count(c.allreduce_calls)), "msgs"},
      {"mpi.aux_cpu_s", c.aux_cpu_s, "sim_s"},
      {"core.windows", count(c.cosched_windows), "count"},
      {"core.flips", count(c.cosched_flips), "count"},
      {"model.residual_share", run_ns > 0 ? 1.0 - covered_ns / run_ns : 0.0,
       "share"},
      {"trace.overhead", ratio(traced_wall_s, untraced.wall_s) - 1.0, "share"},
  };
  return out;
}

}  // namespace perfbench
