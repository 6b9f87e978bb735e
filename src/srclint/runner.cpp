#include "srclint/runner.hpp"

#include <algorithm>
#include <filesystem>
#include <iterator>
#include <sstream>

#include "core/simulation.hpp"
#include "srclint/compiledb.hpp"
#include "util/allocgate.hpp"
#include "util/seam.hpp"

namespace pasched::srclint {

namespace {

using analysis::json_escape;

/// Where the made-up claims the planted legs refute say they come from.
/// They name no file: these are the labels the planted legs have always
/// reported, kept so the golden digest stays comparable across versions.
const char* const kPlantedSerializationClaim =
    "tests/contend/fixtures/planted-claim";
const char* const kPlantedAllocClaim = "tests/alloc/fixtures/planted-claim";

/// A pack runs when the filter enables any of its rules ("PSL5" covers
/// PSL501–506, including the runtime half that needs the pack's claims).
[[nodiscard]] bool pack_enabled(const RuleFilter& filter,
                                const std::string& prefix) {
  return filter.only.empty() ||
         std::any_of(filter.only.begin(), filter.only.end(),
                     [&](const std::string& id) {
                       return id.compare(0, prefix.size(), prefix) == 0;
                     });
}

void sort_findings(std::vector<analysis::Diagnostic>& ds) {
  std::stable_sort(ds.begin(), ds.end(),
                   [](const analysis::Diagnostic& a,
                      const analysis::Diagnostic& b) {
                     return a.subject != b.subject ? a.subject < b.subject
                                                   : a.rule < b.rule;
                   });
}

/// Merges runtime-leg findings into the sorted report.
void add_findings(SrclintReport& rep, std::vector<analysis::Diagnostic> ds) {
  rep.findings.insert(rep.findings.end(), std::make_move_iterator(ds.begin()),
                      std::make_move_iterator(ds.end()));
  sort_findings(rep.findings);
}

const char* plural(std::size_t n) { return n == 1 ? "" : "s"; }

/// Runs `sim` with the contention ledger on the seam observer hooks and
/// refutes `claims` against the domains it saw (PSL506).
void contention_leg(SrclintReport& rep, core::Simulation& sim,
                    const std::vector<contend::SerializationClaim>& claims) {
  contend::Ledger ledger;
  util::install_seam_observer(&ledger);
  sim.run();
  util::install_seam_observer(nullptr);
  rep.contention_ledger = ledger.report();
  add_findings(rep, ledger.check_claims(claims));
}

/// Runs `body` under the allocation ledger and refutes `claims` against
/// the hot allocations it charged (PSL606).
void allocation_leg(SrclintReport& rep, const std::function<void()>& body,
                    const std::vector<alloc::AllocClaim>& claims) {
  alloc::Ledger ledger;
  ledger.reset();
  ledger.install();
  body();
  ledger.remove();
  rep.allocation_ledger = ledger.report();
  add_findings(rep, ledger.check_claims(claims));
}

}  // namespace

bool in_core_scope(const std::string& rel_path) {
  return rel_path.compare(0, 4, "src/") == 0;
}

SrclintReport run_files(const SrclintOptions& opts,
                        const std::vector<std::string>& rels) {
  SrclintReport rep;
  const std::filesystem::path root(opts.root);
  const RuleFilter& filter = opts.filter;

  std::vector<SourceFile> files;
  files.reserve(rels.size());
  for (const std::string& rel : rels)
    files.push_back(lex_file((root / rel).string(), rel));
  rep.files_scanned = files.size();

  std::vector<const SourceFile*> core;
  for (const SourceFile& f : files)
    if (in_core_scope(f.path)) core.push_back(&f);
  rep.files_in_scope = core.size();

  if (pack_enabled(filter, "PSL4")) {
    for (const SourceFile& f : files) {
      std::vector<analysis::Diagnostic> ds =
          run_rules(f, filter, &rep.architecture);
      rep.findings.insert(rep.findings.end(),
                          std::make_move_iterator(ds.begin()),
                          std::make_move_iterator(ds.end()));
    }
  }
  if (pack_enabled(filter, "PSL5")) {
    contend::run_pack(core, filter, rep.findings, rep.serialization_claims,
                      rep.lock_graph, rep.contention);
  }
  if (pack_enabled(filter, "PSL6")) {
    for (const SourceFile* f : core)
      alloc::run_file_rules(*f, filter, rep.findings, rep.alloc_claims,
                            rep.allocation);
  }

  sort_findings(rep.findings);
  std::stable_sort(rep.serialization_claims.begin(),
                   rep.serialization_claims.end(),
                   [](const contend::SerializationClaim& a,
                      const contend::SerializationClaim& b) {
                     return a.site != b.site ? a.site < b.site
                                             : a.file < b.file;
                   });
  std::stable_sort(rep.alloc_claims.begin(), rep.alloc_claims.end(),
                   [](const alloc::AllocClaim& a, const alloc::AllocClaim& b) {
                     return a.function != b.function
                                ? a.function < b.function
                                : a.file < b.file;
                   });
  return rep;
}

SrclintReport run_tree(const SrclintOptions& opts) {
  const FileSet fset = discover_files(opts.root, opts.compile_db);
  SrclintReport rep = run_files(opts, fset.rel_paths);
  rep.origin = fset.origin;
  return rep;
}

bool run_ledgers(SrclintReport& rep, const SimulationFactory& make) {
  if (!kLedgersAvailable) return false;
  const std::unique_ptr<core::Simulation> seams = make();
  contention_leg(rep, *seams, rep.serialization_claims);
  const std::unique_ptr<core::Simulation> heap = make();
  allocation_leg(rep, [&] { heap->run(); }, rep.alloc_claims);
  return true;
}

SrclintReport run_plant(const std::string& repo_root,
                        const SimulationFactory& multi_domain) {
  SrclintOptions opts;
  opts.root =
      (std::filesystem::path(repo_root) / "tests/srclint/fixtures").string();
  SrclintReport rep = run_tree(opts);
  if (!kLedgersAvailable) return rep;

  // PSL506: every shard worker takes the wrap-up lock under its own
  // race::Domain, so a single-domain claim on it must be refuted.
  std::vector<contend::SerializationClaim> seams = rep.serialization_claims;
  seams.push_back(contend::SerializationClaim{"ShardedEngine.wrapup_mu_",
                                              kPlantedSerializationClaim, 1});
  const std::unique_ptr<core::Simulation> sim = multi_domain();
  contention_leg(rep, *sim, seams);

  // PSL606: a hot scope that allocates on purpose, under a made-up
  // allocation-free claim on the same Core site.
  std::vector<alloc::AllocClaim> heap = rep.alloc_claims;
  heap.push_back(alloc::AllocClaim{"PlantedHotPath", kPlantedAllocClaim, 1});
  allocation_leg(
      rep,
      [] {
        PASCHED_ALLOC_HOT_SCOPE("PlantedHotPath");
        std::vector<int> spill;
        for (int i = 0; i < 64; ++i) spill.push_back(i);
        static volatile const void* sink;  // keep the allocation observable
        sink = spill.data();
        static_cast<void>(sink);
      },
      heap);
  return rep;
}

std::string SrclintReport::str() const {
  std::ostringstream os;
  for (const analysis::Diagnostic& d : findings) os << d.str() << "\n";
  os << "pasched-srclint: " << files_scanned << " files (" << origin << "), "
     << files_in_scope << " in src/ scope, " << findings.size() << " finding"
     << plural(findings.size()) << "\n"
     << "  architecture: " << architecture.hot_functions
     << " hot functions, " << architecture.macro_calls
     << " vanishing-check calls, " << architecture.suppressions_honored
     << " suppressions honored\n"
     << "  contention:   " << contention.functions << " functions, "
     << contention.acquisitions << " acquisitions, "
     << contention.mutex_members << " mutex members, graph "
     << contention.graph_nodes << " nodes / " << contention.graph_edges
     << " edges / " << contention.cycles << " cycles, "
     << serialization_claims.size() << " serialization claim"
     << plural(serialization_claims.size()) << ", "
     << contention.suppressions_honored << " suppressions honored\n"
     << "  allocation:   " << allocation.functions << " functions, "
     << allocation.hot_functions << " hot-marked, "
     << allocation.arena_types << " arena type"
     << plural(allocation.arena_types) << ", " << alloc_claims.size()
     << " allocation-free claim" << plural(alloc_claims.size()) << ", "
     << allocation.suppressions_honored << " suppressions honored\n";
  if (contention_ledger) os << contention_ledger->str();
  if (allocation_ledger) os << allocation_ledger->str();
  return os.str();
}

std::string SrclintReport::json() const {
  std::ostringstream os;
  os << "{\n  " << analysis::json_report_header("pasched-srclint") << "\n"
     << "  \"files_scanned\": " << files_scanned << ",\n"
     << "  \"files_in_scope\": " << files_in_scope << ",\n"
     << "  \"origin\": \"" << json_escape(origin) << "\",\n"
     << "  \"architecture\": {\"hot_functions\": "
     << architecture.hot_functions
     << ", \"vanishing_check_calls\": " << architecture.macro_calls
     << ", \"suppressions_honored\": " << architecture.suppressions_honored
     << "},\n"
     << "  \"contention\": {\"functions\": " << contention.functions
     << ", \"acquisitions\": " << contention.acquisitions
     << ", \"mutex_members\": " << contention.mutex_members
     << ", \"graph_nodes\": " << contention.graph_nodes
     << ", \"graph_edges\": " << contention.graph_edges
     << ", \"cycles\": " << contention.cycles
     << ", \"suppressions_honored\": " << contention.suppressions_honored
     << ",\n    \"graph\": [";
  for (std::size_t i = 0; i < lock_graph.size(); ++i)
    os << (i == 0 ? "\n" : ",\n") << "      \"" << json_escape(lock_graph[i])
       << "\"";
  os << (lock_graph.empty() ? "]" : "\n    ]") << ",\n    \"claims\": [";
  for (std::size_t i = 0; i < serialization_claims.size(); ++i) {
    const contend::SerializationClaim& c = serialization_claims[i];
    os << (i == 0 ? "\n" : ",\n") << "      {\"site\": \""
       << json_escape(c.site) << "\", \"file\": \"" << json_escape(c.file)
       << "\", \"line\": " << c.line << "}";
  }
  os << (serialization_claims.empty() ? "]" : "\n    ]") << "},\n"
     << "  \"allocation\": {\"functions\": " << allocation.functions
     << ", \"hot_functions\": " << allocation.hot_functions
     << ", \"arena_types\": " << allocation.arena_types
     << ", \"suppressions_honored\": " << allocation.suppressions_honored
     << ",\n    \"claims\": [";
  for (std::size_t i = 0; i < alloc_claims.size(); ++i) {
    const alloc::AllocClaim& c = alloc_claims[i];
    os << (i == 0 ? "\n" : ",\n") << "      {\"function\": \""
       << json_escape(c.function) << "\", \"file\": \""
       << json_escape(c.file) << "\", \"line\": " << c.line << "}";
  }
  os << (alloc_claims.empty() ? "]" : "\n    ]") << "},\n";
  if (contention_ledger)
    os << "  \"contention_ledger\": " << contention_ledger->json(2) << ",\n";
  if (allocation_ledger)
    os << "  \"allocation_ledger\": " << allocation_ledger->json(2) << ",\n";
  os << "  \"findings\": " << analysis::diagnostics_json(findings, 2)
     << "\n}\n";
  return os.str();
}

std::string SrclintReport::digest() const {
  std::vector<std::string> lines;
  for (const analysis::Diagnostic& d : findings)
    lines.push_back(d.rule + " " + analysis::to_string(d.severity) + " " +
                    d.subject);
  for (const contend::SerializationClaim& c : serialization_claims)
    lines.push_back("PSL505 CLAIM " + c.file + ":" + std::to_string(c.line) +
                    " " + c.site);
  for (const alloc::AllocClaim& c : alloc_claims)
    lines.push_back("PSL605 CLAIM " + c.file + ":" + std::to_string(c.line) +
                    " " + c.function);
  for (const std::string& e : lock_graph) lines.push_back("EDGE " + e);
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& l : lines) out += l + "\n";
  return out;
}

}  // namespace pasched::srclint
