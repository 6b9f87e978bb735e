// pasched-audit: the one runtime auditor. Four legs drive the same two
// scenario shapes (fig3 = vanilla kernel, fig5 = prototype kernel +
// co-scheduler; tools/scenario.hpp) with one parameter set:
//
//  repro        each scenario twice on the classic engine with the same
//               seed; the full CPU occupancy trace, scheduler counts,
//               per-node accounting and job timing fold into one hash that
//               must match bit for bit, and every node must pass the
//               conservation / run-queue audits.
//  equivalence  classic vs --parallel=1 vs --parallel=<workers> (per-pair
//               planner) vs <workers> under the global planner: the four
//               canonical history digests must be identical, and on fig5
//               the per-pair planner must pay >= 3x fewer sync rounds.
//  race         the partitioned run with the ownership layer armed and a
//               vector-clock monitor on every cross-shard seam (PSL201-204).
//               --fuzz-windows=N adds N window perturbations that must each
//               reproduce the unperturbed digest; a divergence writes
//               pasched-audit.<scenario>.failing-schedule for --replay.
//  scale        every cross-shard delivery certified against the fabric's
//               per-pair lookahead matrix (PSL303), plus the work/span and
//               window barrier-cost speedup models (PSL301/302/304-306).
//
//   ./pasched-audit [--only=repro,equivalence,race,scale]
//       [--scenario=fig3|fig5|both] [--nodes=4] [--tasks-per-node=16]
//       [--calls=120] [--seed=1] [--workers=4] [--fuzz-windows=N]
//       [--replay=SCHEDULE_FILE] [--plant] [--verbose] [--report=FILE]
//       [--json=FILE]
//
// --plant runs both planted faults and must exit 1: the race leg's
// cross-shard write (an event on shard 0 mutates node 1's kernel; one
// worker, so the logical violation is caught without a physical data race)
// must be flagged PSL201 on kern.Kernel[1], and the scale leg's claims,
// every pair inflated 4x, must be refuted PSL303. Without --only it runs
// just those two legs.
//
// Exit status: 0 = clean (warnings allowed), 1 = findings or divergence,
// 2 = a model invariant is violated, 64 = bad usage (including a --report or
// --json path that cannot be written).
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/diagnostic.hpp"
#include "apps/channels.hpp"
#include "check/audit.hpp"
#include "check/check.hpp"
#include "core/equivalence.hpp"
#include "core/simulation.hpp"
#include "mc/schedule.hpp"
#include "net/fabric.hpp"
#include "race/fuzz.hpp"
#include "scale/runner.hpp"
#include "scenario.hpp"
#include "trace/trace.hpp"
#include "util/flags.hpp"

using namespace pasched;

namespace {

/// The fig5 sync-round cut the per-pair planner must deliver over the
/// global planner (schedule-derived, so identical on every machine).
constexpr double kMinRoundCut = 3.0;

const char* const kUsage =
    "usage: pasched-audit [--only=repro,equivalence,race,scale]"
    " [--scenario=fig3|fig5|both] [--nodes=N] [--tasks-per-node=N]"
    " [--calls=N] [--seed=N] [--workers=N] [--fuzz-windows=N]"
    " [--replay=SCHEDULE_FILE] [--plant] [--verbose] [--report=FILE]"
    " [--json=FILE]\n";

struct Params {
  bool repro = false;
  bool equivalence = false;
  bool race = false;
  bool scale = false;
  std::vector<bool> prototypes;  // false = fig3, true = fig5
  int nodes = 4;
  int tasks_per_node = 16;
  int calls = 120;
  std::uint64_t seed = 1;
  int workers = 4;
  int fuzz = 0;
  std::string replay;
  bool plant = false;
  bool verbose = false;
};

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << v;
  return os.str();
}

/// One digest row of the report: a repro, equivalence or race scenario.
struct Row {
  std::string leg;
  std::string scenario;
  std::uint64_t hash = 0;
  std::uint64_t events = 0;
  std::uint64_t rounds_perpair = 0;  // equivalence only
  std::uint64_t rounds_global = 0;   // equivalence only
  bool ok = false;
};

/// What every leg writes into: the text that goes to stdout and --report,
/// the digest rows and findings that go to --json, and the exit status.
class Audit {
 public:
  template <typename T>
  Audit& operator<<(const T& v) {
    std::cout << v;
    text_ << v;
    return *this;
  }
  void flush() { std::cout.flush(); }
  void fail(int rc) { rc_ = std::max(rc_, rc); }
  void add(Row row) {
    if (!row.ok) fail(1);
    rows_.push_back(std::move(row));
  }
  /// Records findings; prints them unless the caller already has.
  void add(const std::vector<analysis::Diagnostic>& findings,
           bool print = true) {
    if (print)
      for (const analysis::Diagnostic& d : findings)
        *this << "  " << d.str() << "\n";
    if (analysis::any_errors(findings)) fail(1);
    findings_.insert(findings_.end(), findings.begin(), findings.end());
  }
  void add_scale(std::string json) { scale_.push_back(std::move(json)); }

  [[nodiscard]] int rc() const noexcept { return rc_; }
  [[nodiscard]] std::string text() const { return text_.str(); }
  [[nodiscard]] std::string json(const Params& p) const;

 private:
  std::ostringstream text_;
  std::vector<Row> rows_;
  std::vector<analysis::Diagnostic> findings_;
  std::vector<std::string> scale_;
  int rc_ = 0;
};

std::string Audit::json(const Params& p) const {
  std::ostringstream os;
  os << "{\n  " << analysis::json_report_header("pasched-audit") << "\n"
     << "  \"legs\": [";
  const char* sep = "";
  for (const auto& [on, name] :
       {std::pair{p.repro, "repro"}, std::pair{p.equivalence, "equivalence"},
        std::pair{p.race, "race"}, std::pair{p.scale, "scale"}}) {
    if (!on) continue;
    os << sep << "\"" << name << "\"";
    sep = ", ";
  }
  os << "],\n  \"plant\": " << (p.plant ? "true" : "false")
     << ",\n  \"pass\": " << (rc_ == 0 ? "true" : "false")
     << ",\n  \"exit\": " << rc_ << ",\n  \"scenarios\": [";
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    const Row& r = rows_[i];
    os << (i == 0 ? "\n" : ",\n") << "    {\"leg\": \"" << r.leg
       << "\", \"scenario\": \"" << r.scenario << "\", \"hash\": \"0x"
       << hex(r.hash) << "\", \"events\": " << r.events;
    if (r.leg == "equivalence")
      os << ", \"sync_rounds_perpair\": " << r.rounds_perpair
         << ", \"sync_rounds_global\": " << r.rounds_global;
    os << ", \"ok\": " << (r.ok ? "true" : "false") << "}";
  }
  os << (rows_.empty() ? "]" : "\n  ]") << ",\n  \"findings\": "
     << analysis::diagnostics_json(findings_, 2) << ",\n  \"scale\": [";
  for (std::size_t i = 0; i < scale_.size(); ++i)
    os << (i == 0 ? "\n" : ",\n") << scale_[i];
  os << (scale_.empty() ? "]" : "\n  ]") << "\n}\n";
  return os.str();
}

tools::TraceScenario scenario(const Params& p, bool prototype) {
  return tools::trace_scenario(prototype, p.nodes, p.tasks_per_node, p.calls,
                               p.seed);
}

// -- repro ------------------------------------------------------------------

struct ReproDigest {
  std::uint64_t hash = 0;
  std::uint64_t events = 0;
  bool completed = false;
  std::string invariant_error;  // empty = every audit passed
};

ReproDigest repro_run(const Params& p, bool prototype, Audit& out) {
  const tools::TraceScenario s = scenario(p, prototype);
  core::Simulation sim(s.cfg, s.factory);

  // One tracer observes every node; recording from t=0 captures the full
  // occupancy history, which is the strongest determinism witness we have.
  trace::Tracer tracer(/*node_filter=*/-1);
  for (int n = 0; n < sim.cluster().size(); ++n)
    tracer.attach(sim.cluster().node(n).kernel());
  tracer.enable(sim.engine().now());

  const core::SimulationResult result = sim.run();

  core::Hasher h;
  h.mix_int(result.elapsed.count());
  h.mix(result.events);
  h.mix(result.completed ? 1 : 0);
  for (const trace::Interval& iv : tracer.intervals()) {
    h.mix_int(iv.begin.count());
    h.mix_int(iv.end.count());
    h.mix_int(iv.node);
    h.mix_int(iv.cpu);
    h.mix_int(iv.thread->tid());
    h.mix_str(iv.thread->name());
  }
  h.mix(tracer.counts().dispatches);
  h.mix(tracer.counts().preemptions);
  h.mix(tracer.counts().ticks);
  h.mix(tracer.counts().ipis);
  for (int n = 0; n < sim.cluster().size(); ++n) {
    const kern::Accounting& a = sim.cluster().node(n).kernel().accounting();
    for (const sim::Duration dur : a.class_cpu) h.mix_int(dur.count());
    h.mix_int(a.tick_cpu.count());
    h.mix_int(a.busy_cpu.count());
    h.mix_int(a.idle_cpu.count());
    h.mix(a.ticks_taken);
    h.mix(a.ipis_sent);
    h.mix(a.preemptions);
    h.mix(a.dispatches);
  }
  const mpi::ChannelStats& ch = sim.job().channel(apps::kChanAllreduce);
  h.mix(ch.all_us.count());
  h.mix_double(ch.all_us.mean());
  h.mix_double(ch.all_us.max());
  for (const double us : ch.recorded_us) h.mix_double(us);

  ReproDigest d;
  d.hash = h.value();
  d.events = result.events;
  d.completed = result.completed;
  // Self-consistency: engine structure plus every node's conservation and
  // run-queue invariants at the quiescent end-of-run point.
  try {
    sim.engine().check_consistent();
    for (int n = 0; n < sim.cluster().size(); ++n) {
      const kern::Kernel& k = sim.cluster().node(n).kernel();
      check::Auditor::verify_conservation(k);
      check::Auditor::verify_runqueues(k);
      if (p.verbose)
        out << "  node " << n << ": "
            << check::Auditor::conservation(k).str() << "\n";
    }
  } catch (const check::CheckError& e) {
    d.invariant_error = e.what();
  }
  return d;
}

void leg_repro(const Params& p, Audit& out) {
  for (const bool prototype : p.prototypes) {
    const char* name = scenario(p, prototype).name;
    out << "repro " << name << ": run 1...";
    out.flush();
    const ReproDigest a = repro_run(p, prototype, out);
    out << " run 2...";
    out.flush();
    const ReproDigest b = repro_run(p, prototype, out);
    out << "\n  events=" << a.events << " completed=" << a.completed
        << " hash=" << hex(a.hash) << "\n";

    Row row{"repro", name, a.hash, a.events, 0, 0, false};
    if (a.hash != b.hash || a.events != b.events) {
      out << "  FAIL: runs diverged (second hash=" << hex(b.hash)
          << ", events=" << b.events << ")\n";
    } else if (!a.invariant_error.empty() || !b.invariant_error.empty()) {
      out << "  FAIL: invariant violated: "
          << (a.invariant_error.empty() ? b.invariant_error
                                        : a.invariant_error)
          << "\n";
      out.fail(2);
    } else {
      row.ok = true;
      out << "  OK: bit-identical and self-consistent\n";
    }
    out.add(std::move(row));
  }
}

// -- equivalence ------------------------------------------------------------

void leg_equivalence(const Params& p, Audit& out) {
  for (const bool prototype : p.prototypes) {
    tools::TraceScenario s = scenario(p, prototype);
    core::SimulationConfig& cfg = s.cfg;
    const std::string par = "parallel=" + std::to_string(p.workers);

    struct Mode {
      std::string label;
      int parallel;
      sim::PlannerMode planner;
      core::CanonicalDigest digest;
    };
    std::vector<Mode> modes = {
        {"legacy", 0, sim::PlannerMode::PerPair, {}},
        {"parallel=1", 1, sim::PlannerMode::PerPair, {}},
        {par, p.workers, sim::PlannerMode::PerPair, {}},
        {par + "/global", p.workers, sim::PlannerMode::Global, {}}};
    out << "equivalence " << s.name << ":";
    for (Mode& m : modes) {
      out << " " << m.label << "...";
      out.flush();
      cfg.parallel = m.parallel;
      cfg.planner = m.planner;
      m.digest = core::run_canonical(cfg, s.factory);
    }
    out << "\n";

    bool same = true;
    for (const Mode& m : modes) {
      out << "  " << m.label << " hash=" << hex(m.digest.hash)
          << " completed=" << m.digest.completed
          << " events=" << m.digest.events << "\n";
      same = same && m.digest.completed &&
             m.digest.hash == modes.front().digest.hash &&
             m.digest.elapsed == modes.front().digest.elapsed;
    }
    const std::uint64_t perpair = modes[2].digest.sync_rounds;
    const std::uint64_t global = modes[3].digest.sync_rounds;
    const double cut = perpair == 0 ? 0.0
                                    : static_cast<double>(global) /
                                          static_cast<double>(perpair);
    out << "  sync rounds: per-pair " << perpair << " vs global " << global
        << " (" << cut << "x)\n";

    Row row{"equivalence", s.name, modes.front().digest.hash,
            modes.front().digest.events, perpair, global, false};
    if (!same) {
      out << "  FAIL: the execution modes diverged or did not complete\n";
    } else if (prototype && cut < kMinRoundCut) {
      out << "  FAIL: the per-pair planner cut fig5 sync rounds only " << cut
          << "x (< " << kMinRoundCut << "x)\n";
    } else {
      row.ok = true;
      out << "  OK: all four execution modes are bit-identical\n";
    }
    out.add(std::move(row));
  }
}

// -- race -------------------------------------------------------------------

void leg_race(const Params& p, Audit& out) {
  for (const bool prototype : p.prototypes) {
    const tools::TraceScenario s = scenario(p, prototype);
    Row row{"race", s.name, 0, 0, 0, 0, false};
    std::vector<analysis::Diagnostic> findings;
    if (!p.replay.empty()) {
      std::ifstream in(p.replay);
      std::stringstream buf;
      buf << in.rdbuf();
      const mc::Schedule sched = mc::Schedule::parse(buf.str());
      out << "race " << s.name << ": replaying " << sched.size()
          << " window choices from " << p.replay << "...";
      out.flush();
      const race::AuditRun run =
          race::replay_schedule(s.cfg, s.factory, sched, p.workers);
      out << " hash=" << hex(run.digest.hash) << "\n";
      row.hash = run.digest.hash;
      row.events = run.digest.events;
      findings = run.findings;
    } else if (p.fuzz > 0) {
      out << "race " << s.name << ": fuzz (workers=" << p.workers << ")...";
      out.flush();
      const race::FuzzResult fz =
          race::fuzz_windows(s.cfg, s.factory, p.fuzz, p.seed, p.workers);
      out << " " << fz.runs << " runs (baseline + " << p.fuzz
          << " perturbations), base hash=" << hex(fz.base_hash) << "\n";
      row.hash = fz.base_hash;
      findings = fz.findings;
      if (fz.diverged) {
        const std::string file =
            std::string("pasched-audit.") + s.name + ".failing-schedule";
        std::ofstream(file) << fz.failing.serialize();
        out << "  failing window schedule written to " << file << "\n";
      }
    } else {
      race::AuditOptions opt;
      opt.workers = p.plant ? 1 : p.workers;
      opt.plant_cross_shard_write = p.plant;
      out << "race " << s.name << ": audit (workers=" << opt.workers
          << (p.plant ? ", planted cross-shard write" : "") << ")...";
      out.flush();
      const race::AuditRun run = race::run_audited(s.cfg, s.factory, opt);
      out << " hash=" << hex(run.digest.hash) << " posts=" << run.stats.posts
          << " admits=" << run.stats.admits
          << " windows=" << run.stats.windows
          << " horizon_publishes=" << run.stats.horizon_publishes
          << " horizon_waits=" << run.stats.horizon_waits << "\n";
      row.hash = run.digest.hash;
      row.events = run.digest.events;
      findings = run.findings;
    }
    row.ok = !analysis::any_errors(findings);
    out << (findings.empty() ? "  OK: no PSL2xx findings\n" : "");
    out.add(findings);
    out.add(std::move(row));
  }
}

// -- scale ------------------------------------------------------------------

void leg_scale(const Params& p, Audit& out) {
  for (const bool prototype : p.prototypes) {
    tools::TraceScenario s = scenario(p, prototype);
    s.cfg.parallel = p.workers;
    out << "scale " << s.name << ": analyze (workers=" << p.workers
        << (p.plant ? ", planted unsound bound" : "") << ")...";
    out.flush();

    scale::ScaleReport rep;
    if (p.plant) {
      // Inflate EVERY pairwise claim: allreduce traffic flows through the
      // hub, so inflating a single node-node pair might never be exercised.
      sim::PairLookahead planted =
          net::pair_lookahead(s.cfg.cluster.fabric, s.cfg.cluster.nodes);
      for (int a = 0; a < planted.shards; ++a)
        for (int b = 0; b < planted.shards; ++b)
          if (a != b) planted.set(a, b, planted.at(a, b) * 4);
      rep = scale::analyze_scenario(s.cfg, s.factory, s.name, {}, &planted);
    } else {
      rep = scale::analyze_scenario(s.cfg, s.factory, s.name);
    }
    out << " rounds=" << rep.rounds
        << " posts=" << rep.posts_checked
        << " ceiling=" << rep.predicted_max_speedup() << "x\n";
    if (p.verbose) out << rep.str();  // carries the findings itself
    const std::vector<analysis::Diagnostic> findings = rep.diagnostics();
    out << (findings.empty() ? "  OK: no PSL3xx findings\n" : "");
    out.add(findings, /*print=*/!p.verbose);
    out.add_scale(rep.json());
  }
}

int usage_error(const std::string& why) {
  std::cerr << "pasched-audit: " << why << "\n" << kUsage;
  return 64;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  // An audit gate must not silently ignore a typo'd flag — a misspelled
  // --seed would "pass" the wrong scenario.
  const std::vector<std::string> typos = flags.unknown(
      {"only", "scenario", "nodes", "tasks-per-node", "calls", "seed",
       "workers", "fuzz-windows", "replay", "plant", "verbose", "report",
       "json"});
  if (!typos.empty()) {
    std::string list;
    for (const std::string& t : typos) list += " --" + t;
    return usage_error("unknown flag(s):" + list);
  }

  Params p;
  p.plant = flags.get_bool("plant", false);
  std::istringstream only(flags.get(
      "only", p.plant ? "race,scale" : "repro,equivalence,race,scale"));
  for (std::string leg; std::getline(only, leg, ',');) {
    bool* on = leg == "repro"         ? &p.repro
               : leg == "equivalence" ? &p.equivalence
               : leg == "race"        ? &p.race
               : leg == "scale"       ? &p.scale
                                      : nullptr;
    if (on == nullptr)
      return usage_error("unknown leg '" + leg + "' in --only");
    *on = true;
  }
  const std::string which = flags.get("scenario", "both");
  if (which != "fig3" && which != "fig5" && which != "both")
    return usage_error("--scenario must be fig3, fig5 or both");
  if (which != "fig5") p.prototypes.push_back(false);
  if (which != "fig3") p.prototypes.push_back(true);
  p.nodes = static_cast<int>(flags.get_int("nodes", p.nodes));
  p.tasks_per_node =
      static_cast<int>(flags.get_int("tasks-per-node", p.tasks_per_node));
  p.calls = static_cast<int>(flags.get_int("calls", p.calls));
  p.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  p.workers = static_cast<int>(flags.get_int("workers", p.workers));
  p.fuzz = static_cast<int>(flags.get_int("fuzz-windows", 0));
  p.replay = flags.get("replay", "");
  p.verbose = flags.get_bool("verbose", false);

  if (!p.repro && !p.equivalence && !p.race && !p.scale)
    return usage_error("--only selects no leg");
  if (p.nodes < 1 || p.tasks_per_node < 1 || p.calls < 1 || p.workers < 1 ||
      p.fuzz < 0)
    return usage_error(
        "--nodes, --tasks-per-node, --calls and --workers must be positive");
  if ((p.race || p.scale) && p.nodes < 2)
    return usage_error(
        "the race and scale legs need --nodes >= 2 (the partitioned core "
        "needs shards to cross)");
  if ((p.fuzz > 0 || !p.replay.empty()) && !p.race)
    return usage_error("--fuzz-windows and --replay need the race leg");
  if (p.plant && !p.race && !p.scale)
    return usage_error("--plant needs the race or scale leg");
  if (!p.replay.empty()) {
    if (p.prototypes.size() != 1)
      return usage_error("--replay needs a single --scenario");
    if (!std::ifstream(p.replay))
      return usage_error("cannot read " + p.replay);
  }

  // Open the outputs before any run so an unwritable path fails fast.
  const std::string report_file = flags.get("report", "");
  const std::string json_file = flags.get("json", "");
  std::ofstream report_out;
  std::ofstream json_out;
  if (!report_file.empty()) {
    report_out.open(report_file);
    if (!report_out) return usage_error("cannot write " + report_file);
  }
  if (!json_file.empty()) {
    json_out.open(json_file);
    if (!json_out) return usage_error("cannot write " + json_file);
  }

  Audit out;
  for (const auto& [on, leg] :
       {std::pair{p.repro, &leg_repro},
        std::pair{p.equivalence, &leg_equivalence},
        std::pair{p.race, &leg_race}, std::pair{p.scale, &leg_scale}}) {
    if (!on) continue;
    try {
      leg(p, out);
    } catch (const check::CheckError& e) {
      out << "\n  FAIL: model invariant violated: " << e.what() << "\n";
      out.fail(2);
    }
  }
  out << (out.rc() == 0 ? "pasched-audit: PASS\n" : "pasched-audit: FAIL\n");

  if (report_out.is_open()) {
    report_out << out.text();
    std::cerr << "report written to " << report_file << "\n";
  }
  if (json_out.is_open()) {
    json_out << out.json(p);
    std::cerr << "json written to " << json_file << "\n";
  }
  return out.rc();
}
