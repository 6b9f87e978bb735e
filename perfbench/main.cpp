// pasched_perfbench: runs one benchmark workload for a host-time budget and
// prints what it measured as one JSON line. perfbench/run.py builds this
// binary, checks its digests and turns the line into the benchmark result.
//
//   pasched_perfbench --workload fig5_cosched --seed 1 --seconds 30
//                     [--trace 1 --trace-out spans.json] [--min-reps N]
//
// Exit codes: 0 ok, 1 span file not written, 2 bad usage, 3 refused (the
// build is not Release with validation off, or the workload needs more
// worker threads than the host has).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "layers.hpp"
#include "timing.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out = "perfbench-spans.json";
  /// Fewest timed repetitions, whatever the budget: the reported times are
  /// medians over repetitions.
  int min_reps = 3;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "pasched_perfbench: " << why
            << "\nusage: pasched_perfbench"
               " --workload fig5_cosched|ale3d_io|fig5_sharded --seed N"
               " --seconds S\n         [--trace 0|1] [--trace-out FILE]"
               " [--min-reps N]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage("missing value for " + k);
    const std::string v = argv[++i];
    try {
      if (k == "--workload") a.workload = v;
      else if (k == "--seed") a.seed = std::stoull(v);
      else if (k == "--seconds") a.seconds = std::stod(v);
      else if (k == "--trace") a.trace = std::stoi(v) != 0;
      else if (k == "--trace-out") a.trace_out = v;
      else if (k == "--min-reps") a.min_reps = std::max(1, std::stoi(v));
      else usage("unknown flag " + k);
    } catch (const std::exception&) {
      usage("bad value for " + k + ": " + v);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

std::string hex(std::uint64_t v) {
  std::ostringstream o;
  o << std::hex << std::setw(16) << std::setfill('0') << v;
  return o.str();
}

void print_outcomes(std::ostream& o, const std::vector<Point>& points,
                    const std::vector<Outcome>& outs) {
  o << "[";
  for (std::size_t i = 0; i < outs.size(); ++i) {
    o << (i ? ", " : "") << "{\"point\": \"" << points[i].name
      << "\", \"digest\": \"" << hex(outs[i].digest)
      << "\", \"completed\": " << (outs[i].completed ? "true" : "false")
      << ", \"events_at_completion\": " << outs[i].events_at_completion << "}";
  }
  o << "]";
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const auto workload = parse_workload(args.workload);
  if (!workload) usage("unknown workload " + args.workload);

  // Build and host honesty: end-to-end numbers only come from an optimized,
  // validation-off build, and no workload runs more workers than the host
  // has hardware threads.
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  const bool validate = PERFBENCH_VALIDATE != 0;
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  const unsigned hw = std::thread::hardware_concurrency();
  const int workers = workers_of(*workload, args.trace);
  if (build_type != "Release" || validate || !ndebug) {
    std::cerr << "pasched_perfbench: refusing to measure a " << build_type
              << (validate ? ", PASCHED_VALIDATE=ON" : "")
              << " build; configure with -DCMAKE_BUILD_TYPE=Release "
                 "-DPASCHED_VALIDATE=OFF\n";
    return 3;
  }
  // An unknown hardware thread count (0) admits single-threaded workloads.
  if (static_cast<unsigned>(workers) > std::max(hw, 1U)) {
    std::cerr << "pasched_perfbench: refusing " << args.workload << ": it runs "
              << workers << " worker threads but the host reports "
              << hw << " hardware threads\n";
    return 3;
  }

  const std::vector<Point> points = make_points(*workload, args.seed);
  std::vector<Rep> reps;
  const auto start = Clock::now();
  for (;;) {
    reps.push_back(run_rep(points));
    std::vector<double> walls;
    for (const Rep& r : reps) walls.push_back(r.wall_s);
    const double elapsed = seconds_between(start, Clock::now());
    if (static_cast<int>(reps.size()) >= args.min_reps &&
        elapsed + median(walls) > args.seconds)
      break;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;

  std::ostringstream o;
  o << std::setprecision(17);
  o << "{\"workload\": \"" << args.workload << "\", \"seed\": " << args.seed
    << ", \"build\": {\"build_type\": \"" << build_type
    << "\", \"validate_enabled\": " << (validate ? "true" : "false")
    << ", \"hardware_concurrency\": " << hw << ", \"workers\": " << workers
    << ", \"compiler\": \"" << __VERSION__ << "\"}"
    << ", \"peak_rss_mb\": " << peak_rss_mb << ", \"reps\": [";
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const Rep& r = reps[i];
    o << (i ? ", " : "") << "{\"wall_s\": " << r.wall_s
      << ", \"setup_s\": " << r.setup_s << ", \"run_s\": " << r.run_s
      << ", \"events\": " << r.events << ", \"outcomes\": ";
    print_outcomes(o, points, r.outcomes);
    o << "}";
  }
  o << "]";

  if (*workload == Workload::Fig5Sharded) {
    // The classic twin, run after peak RSS was read so it does not count.
    const std::vector<Point> twin = {classic_twin_of_sharded(args.seed)};
    o << ", \"classic_twin\": ";
    print_outcomes(o, twin, run_rep(twin).outcomes);
  }

  if (args.trace) {
    std::vector<double> walls, runs;
    for (const Rep& r : reps) {
      walls.push_back(r.wall_s);
      runs.push_back(r.run_s);
    }
    Spans spans;
    const Traced t = traced_run(*workload, args.seed,
                                Untraced{median(walls), median(runs)}, spans);
    if (!spans.write_chrome_json(args.trace_out)) {
      std::cerr << "pasched_perfbench: cannot write " << args.trace_out << "\n";
      return 1;
    }
    o << ", \"traced\": ";
    print_outcomes(o, points, t.outcomes);
    if (!t.multi_worker.empty()) {
      o << ", \"multi_worker\": ";
      print_outcomes(o, {multi_worker_of_sharded(args.seed)}, t.multi_worker);
    }
    o << ", \"trace_file\": \"" << args.trace_out << "\", \"layers\": {";
    for (std::size_t i = 0; i < t.metrics.size(); ++i) {
      const Metric& m = t.metrics[i];
      o << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": " << m.value
        << ", \"unit\": \"" << m.unit << "\"}";
    }
    o << "}";
  }
  o << "}";
  std::cout << o.str() << std::endl;
  return 0;
}
