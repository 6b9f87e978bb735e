// pasched-srclint: the source analyzer for this repository. One scan runs
// three rule packs over the repo's own C++:
//
//   architecture  PSL401  raw sim::Engine access outside the Router seam
//                 PSL402  shard-resident type without ownership discipline
//                 PSL403  alloc, lock, throw, blocking, or I/O in PASCHED_HOT
//                 PSL404  side effects inside vanishing check-macro arguments
//                 PSL405  nondeterminism sources in the deterministic core
//                 PSL406  thread creation outside the ShardedEngine pool
//   contention    PSL501  lock-order cycle in the cross-TU lock-order graph
//                 PSL502  lock held across a blocking seam (barrier/wait)
//                 PSL503  false-sharing layout in a shard-shared class
//                 PSL504  shared atomic read-modify-written in a hot loop
//                 PSL505  coarse mutex over race::Owned single-domain state
//                 PSL506  runtime-refuted PSL505 serialization claim
//   allocation    PSL601  heap allocation in a hot/lifecycle engine function
//                 PSL602  undisciplined container growth on the hot path
//                 PSL603  cache-layout hazard in an event/shard-resident type
//                 PSL604  PASCHED_ARENA contract violation
//                 PSL605  allocation-free region statically certified
//                 PSL606  runtime-refuted allocation-free claim
//
//   ./pasched-srclint [--root=DIR] [--compile-db=FILE] [--only=PSLnnn[,..]]
//       [--report=FILE] [--json=FILE] [--list-rules] [files...]
//   ./pasched-srclint --ledger [--max-barrier-wait-share=F]
//       [--max-hot-window-allocs=N] [--report=FILE] [--json=FILE]
//   ./pasched-srclint --plant [--report=FILE] [--json=FILE]
//
// Scans the tree under --root (default: the current directory), preferring
// the translation units listed in --compile-db (compile_commands.json,
// auto-detected at <root>/build/compile_commands.json) augmented with
// headers. Positional arguments restrict the scan to those root-relative
// files.
//
// --ledger then runs the fig5 scenario (8 nodes, 8 workers, 120 calls) on
// the partitioned core, once under the contention ledger and once under the
// allocation ledger, and refutes every PSL505/PSL605 claim the scan made
// against what the run observed (PSL506/PSL606). The two gates fail the run
// when the round barrier's share of seam wait, or the hot-window heap
// allocations on engine sites, exceed their bound. The ledgers need
// -DPASCHED_VALIDATE=ON.
//
// --plant scans the planted corpus (<root>/tests/srclint/fixtures) and runs
// both planted refutation legs, printing one sorted line per finding, claim
// and lock-graph edge (tests/srclint/plant_golden.txt pins it). It exits 1:
// CI asserts both directions of the gate.
//
// Findings are silenced per line with `// srclint-ok(PSLnnn): reason`;
// honored suppressions are counted in the report so they stay auditable.
//
// Exit status: 0 = no ERROR findings, 1 = ERROR findings or a failed gate,
// 2 = internal model violation, 64 = bad usage.
#include <cstdint>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/diagnostic.hpp"
#include "check/check.hpp"
#include "scenario.hpp"
#include "srclint/runner.hpp"
#include "util/flags.hpp"

using namespace pasched;

namespace {

std::vector<std::string> split_commas(const std::string& s) {
  std::vector<std::string> out;
  std::istringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ','))
    if (!item.empty()) out.push_back(item);
  return out;
}

bool is_analyzer_rule(const std::string& id) {
  return id.size() == 6 && id.compare(0, 3, "PSL") == 0 &&
         (id[3] == '4' || id[3] == '5' || id[3] == '6');
}

int usage_error(const std::string& why) {
  std::cerr << "pasched-srclint: " << why << "\n";
  return 64;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const std::vector<std::string> typos = flags.unknown(
      {"root", "compile-db", "only", "report", "json", "list-rules", "plant",
       "ledger", "max-barrier-wait-share", "max-hot-window-allocs"});
  if (!typos.empty()) {
    std::cerr << "pasched-srclint: unknown flag(s):";
    for (const std::string& t : typos) std::cerr << " --" << t;
    std::cerr << "\nusage: pasched-srclint [--root=DIR] [--compile-db=FILE]"
                 " [--only=PSLnnn[,...]] [--report=FILE] [--json=FILE]"
                 " [--list-rules] [files...]\n"
                 "       pasched-srclint --ledger"
                 " [--max-barrier-wait-share=F] [--max-hot-window-allocs=N]\n"
                 "       pasched-srclint --plant\n";
    return 64;
  }
  if (flags.get_bool("list-rules", false)) {
    for (const analysis::RuleInfo& r : analysis::all_rules()) {
      if (is_analyzer_rule(r.id))
        std::cout << r.id << "  " << analysis::to_string(r.severity)
                  << "\n    invariant: " << r.invariant
                  << "\n    paper:     " << r.paper_ref << "\n";
    }
    return 0;
  }

  const bool plant = flags.get_bool("plant", false);
  const bool ledger = flags.get_bool("ledger", false);
  const bool gated = flags.has("max-barrier-wait-share") ||
                     flags.has("max-hot-window-allocs");
  const double max_share = flags.get_double("max-barrier-wait-share", -1.0);
  const long long max_hot = flags.get_int("max-hot-window-allocs", -1);
  if (plant && ledger)
    return usage_error("--plant and --ledger are separate runs");
  if (gated && !ledger)
    return usage_error("the ledger gates need --ledger");
  if (ledger && !srclint::kLedgersAvailable)
    return usage_error(
        "--ledger needs -DPASCHED_VALIDATE=ON (the seams and the heap hook "
        "are compiled out)");

  srclint::SrclintOptions opts;
  opts.root = flags.get("root", ".");
  opts.compile_db = flags.get("compile-db", "");
  if (opts.compile_db.empty()) {
    const std::filesystem::path guess =
        std::filesystem::path(opts.root) / "build/compile_commands.json";
    if (std::filesystem::exists(guess)) opts.compile_db = guess.string();
  }
  opts.filter.only = split_commas(flags.get("only", ""));
  for (const std::string& id : opts.filter.only) {
    if (analysis::find_rule(id) == nullptr)
      return usage_error("unknown rule " + id);
  }
  if (plant &&
      !std::filesystem::is_directory(std::filesystem::path(opts.root) /
                                     "tests/srclint/fixtures"))
    return usage_error("planted corpus not found under " + opts.root +
                       "/tests/srclint/fixtures");

  // Open the outputs before the scan so an unwritable path fails fast.
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

  srclint::SrclintReport rep;
  try {
    if (plant) {
      rep = srclint::run_plant(opts.root, tools::sharded_fig5(2, 8));
    } else {
      rep = flags.positional().empty()
                ? srclint::run_tree(opts)
                : srclint::run_files(opts, flags.positional());
      if (ledger) srclint::run_ledgers(rep, tools::sharded_fig5(8, 120));
    }
  } catch (const check::CheckError& e) {
    std::cerr << "pasched-srclint: model invariant violated: " << e.what()
              << "\n";
    return 2;
  } catch (const std::exception& e) {
    return usage_error(e.what());
  }

  if (plant) {
    std::cout << rep.digest();
    if (!srclint::kLedgersAvailable)
      std::cerr << "pasched-srclint: PSL506/PSL606 legs skipped (the ledgers "
                   "are compiled out under -DPASCHED_VALIDATE=OFF)\n";
  } else {
    std::cout << rep.str();
  }
  if (report_out.is_open()) {
    report_out << rep.str();
    std::cerr << "report written to " << report_file << "\n";
  }
  if (json_out.is_open()) {
    json_out << rep.json();
    std::cerr << "json written to " << json_file << "\n";
  }

  // The nightly gates. barrier_wait_share is the fraction of measured seam
  // wait the global round barrier still carries: the per-pair planner
  // exists to keep it low. hot_window_allocs counts hot-phase heap traffic
  // on Core (engine/kernel bookkeeping) sites: the event slab and scratch
  // reuse exist to hold it at zero.
  int rc = analysis::any_errors(rep.findings) ? 1 : 0;
  if (max_share >= 0.0 && rep.contention_ledger &&
      rep.contention_ledger->barrier_wait_share > max_share) {
    std::cout << "pasched-srclint: FAIL (barrier_wait_share "
              << rep.contention_ledger->barrier_wait_share << " > "
              << max_share << ")\n";
    rc = 1;
  }
  if (max_hot >= 0 && rep.allocation_ledger &&
      rep.allocation_ledger->hot_window_allocs >
          static_cast<std::uint64_t>(max_hot)) {
    std::cout << "pasched-srclint: FAIL (hot_window_allocs "
              << rep.allocation_ledger->hot_window_allocs << " > " << max_hot
              << ")\n";
    rc = 1;
  }
  if (rc == 0 && !plant) std::cout << "pasched-srclint: PASS\n";
  return rc;
}
