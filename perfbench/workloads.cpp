#include "workloads.hpp"

#include <bit>

#include "apps/aggregate_trace.hpp"
#include "apps/ale3d_proxy.hpp"
#include "apps/channels.hpp"
#include "cluster/cluster.hpp"
#include "core/presets.hpp"
#include "timing.hpp"

namespace perfbench {

using namespace pasched;

namespace {

/// splitmix64: per-point seeds are a pure function of (benchmark seed, point
/// label), so a point's inputs do not depend on which other points run.
std::uint64_t mix(std::uint64_t seed, std::uint64_t label) {
  std::uint64_t z =
      seed * 0x9E3779B97F4A7C15ULL + label + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// The default processor sweep of bench/fig5_proto16 (16 tasks/node).
constexpr int kFig5Procs[] = {32, 64, 128, 256, 512, 944};
constexpr int kFig5Calls = 1000;
// fig5_sharded's timed repetitions run the partitioned core on one worker.
// The shards' horizon waits spin with yield, so a multi-worker run stalls
// whenever the host takes a core away: on the shared 4-vCPU host the
// benchmark was sized on, 2 of 10 consecutive 3-worker runs took 16-19 s
// per repetition against 1.6-2.2 s for the rest, with nothing else running
// in the machine. Only the traced run times the multi-worker point, with
// one worker fewer than that host's hardware threads (at 4, one busy loop
// beside the run made a 2 s repetition take 14 s). Workers are not pinned
// to cores: a pinned worker cannot leave a core another process is using,
// and there two busy loops beside the run made one repetition take 16 s
// against 5 s unpinned.
constexpr int kShardedWorkers = 3;
constexpr int kAle3dNodes = 59;
constexpr int kAle3dSteps = 40;

/// One fig5_proto16 point: prototype kernel, paper_cosched(), polling
/// interval 400 s, 16 tasks/node, 1000 timed Allreduce calls after a 6 s
/// untimed lead-in (the settings bench/common.cpp applies to that bench).
Point fig5_point(int procs, std::uint64_t seed, int parallel) {
  const int nodes = (procs + 15) / 16;
  const std::uint64_t s = mix(seed, static_cast<std::uint64_t>(procs));
  Point p;
  p.name = "procs=" + std::to_string(procs);
  core::SimulationConfig& cfg = p.cfg;
  cfg.cluster = cluster::presets::frost(nodes);
  cfg.cluster.seed = s;
  cfg.cluster.node.tunables = core::prototype_kernel();
  cfg.job.ntasks = procs;
  cfg.job.tasks_per_node = 16;
  cfg.job.mpi.polling_interval = sim::Duration::sec(400);
  cfg.job.seed = s * 7919 + 13;
  cfg.use_coscheduler = true;
  cfg.cosched = core::paper_cosched();
  cfg.parallel = parallel;
  cfg.planner = sim::PlannerMode::PerPair;
  cfg.pin_workers = false;

  apps::AggregateTraceConfig at;
  at.loops = 1;
  at.calls_per_loop = kFig5Calls;
  at.inter_call_compute = sim::Duration::us(100);
  at.alg = cfg.job.mpi.allreduce_alg;
  at.warmup = sim::Duration::sec(6);
  p.factory = apps::aggregate_trace(at);
  p.outputs = Outputs::Allreduce;
  return p;
}

/// One bench/tab_ale3d configuration at 59 nodes x 16: mode 0 vanilla
/// kernel, 1 naive co-scheduling (favored 30 below mmfsd 40, no escape
/// API), 2 tuned co-scheduling (favored 41 plus detach/attach around I/O).
Point ale3d_point(int mode, std::uint64_t seed) {
  static const char* const kNames[] = {"vanilla", "naive_cosched",
                                       "tuned_cosched"};
  const std::uint64_t s = mix(seed, 100 + static_cast<std::uint64_t>(mode));
  Point p;
  p.name = kNames[mode];
  core::SimulationConfig& cfg = p.cfg;
  cfg.cluster = cluster::presets::frost(kAle3dNodes);
  cfg.cluster.seed = s;
  cfg.job.ntasks = kAle3dNodes * 16;
  cfg.job.tasks_per_node = 16;
  cfg.job.seed = s * 17 + 3;
  cfg.horizon = sim::Duration::sec(1800);

  apps::Ale3dConfig app;
  app.timesteps = kAle3dSteps;
  app.checkpoint_every = kAle3dSteps / 4;
  if (mode == 0) {
    cfg.cluster.node.tunables = core::vanilla_kernel();
    app.detach_for_io = false;
  } else if (mode == 1) {
    cfg.cluster.node.tunables = core::prototype_kernel();
    cfg.use_coscheduler = true;
    cfg.cosched = core::paper_cosched();
    app.detach_for_io = false;
  } else {
    cfg.cluster.node.tunables = core::prototype_kernel();
    cfg.use_coscheduler = true;
    cfg.cosched = core::io_aware_cosched(/*io_priority=*/40);
    app.detach_for_io = true;
  }
  p.factory = apps::ale3d_proxy(app);
  p.outputs = Outputs::Ale3d;
  return p;
}

/// FNV-1a over raw bytes; doubles enter by bit pattern so the digest is
/// bit-exact.
class Fnv {
 public:
  void add_u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFFU;
      h_ *= 0x100000001B3ULL;
    }
  }
  void add_double(double d) { add_u64(std::bit_cast<std::uint64_t>(d)); }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

}  // namespace

std::optional<Workload> parse_workload(const std::string& name) {
  if (name == "fig5_cosched") return Workload::Fig5Cosched;
  if (name == "ale3d_io") return Workload::Ale3dIo;
  if (name == "fig5_sharded") return Workload::Fig5Sharded;
  return std::nullopt;
}

std::vector<Point> make_points(Workload w, std::uint64_t seed) {
  std::vector<Point> pts;
  switch (w) {
    case Workload::Fig5Cosched:
      for (const int procs : kFig5Procs)
        pts.push_back(fig5_point(procs, seed, 0));
      break;
    case Workload::Ale3dIo:
      for (int mode = 0; mode < 3; ++mode)
        pts.push_back(ale3d_point(mode, seed));
      break;
    case Workload::Fig5Sharded:
      pts.push_back(fig5_point(944, seed, 1));
      break;
  }
  return pts;
}

Point classic_twin_of_sharded(std::uint64_t seed) {
  Point p = fig5_point(944, seed, 0);
  p.name = "classic_twin procs=944";
  return p;
}

Point multi_worker_of_sharded(std::uint64_t seed) {
  Point p = fig5_point(944, seed, kShardedWorkers);
  p.name = "procs=944 workers=" + std::to_string(kShardedWorkers);
  return p;
}

int workers_of(Workload w, bool traced) {
  return w == Workload::Fig5Sharded && traced ? kShardedWorkers : 1;
}

int nodes_of(Workload w) {
  return w == Workload::Ale3dIo ? kAle3dNodes : (944 + 15) / 16;
}

kern::Tunables kernel_of(Workload w) {
  // ale3d_io's vanilla leg carries nearly all of its kernel work.
  return w == Workload::Ale3dIo ? core::vanilla_kernel()
                                : core::prototype_kernel();
}

Outcome collect(core::Simulation& sim, const core::SimulationResult& res,
                Outputs outputs) {
  Outcome o;
  o.completed = res.completed;
  o.events_at_completion = res.events_at_completion;
  Fnv h;
  h.add_u64(res.completed ? 1 : 0);
  h.add_u64(res.events_at_completion);
  h.add_u64(static_cast<std::uint64_t>(res.elapsed.count()));
  const mpi::Job& job = sim.job();
  if (outputs == Outputs::Allreduce) {
    const mpi::ChannelStats& ch = job.channel(apps::kChanAllreduce);
    h.add_u64(ch.all_us.count());
    h.add_u64(ch.recorded_us.size());
    for (const double us : ch.recorded_us) h.add_double(us);
  } else {
    for (const std::uint32_t c : {apps::kChanIo, apps::kChanStep}) {
      const mpi::ChannelStats& ch = job.channel(c);
      h.add_u64(ch.all_us.count());
      h.add_double(ch.all_us.mean());
    }
  }
  o.digest = h.value();
  return o;
}

Rep run_rep(const std::vector<Point>& points) {
  Rep r;
  const auto t0 = Clock::now();
  for (const Point& p : points) {
    const auto a = Clock::now();
    core::Simulation s(p.cfg, p.factory);
    const auto b = Clock::now();
    const core::SimulationResult res = s.run();
    const auto c = Clock::now();
    r.setup_s += seconds_between(a, b);
    r.run_s += seconds_between(b, c);
    r.outcomes.push_back(collect(s, res, p.outputs));
    r.events += res.events;
  }
  r.wall_s = seconds_between(t0, Clock::now());
  return r;
}

}  // namespace perfbench
