// Whole-tree gates for pasched-srclint, the same pair of directions CI
// asserts through the binary. The repository itself must scan clean under
// all three rule packs (architecture PSL401-406, contention PSL501-506,
// allocation PSL601-606), and the planted corpus must trip every rule and
// reproduce its golden digest, runtime legs included. The repository is
// scanned once per test process and shared by every test below.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "scenario.hpp"
#include "srclint/compiledb.hpp"
#include "srclint/runner.hpp"

using namespace pasched;

namespace {

const std::string kRepoRoot = PASCHED_REPO_ROOT;

srclint::SrclintReport scan_tree(const std::string& root) {
  srclint::SrclintOptions opts;
  opts.root = root;
  return srclint::run_tree(opts);
}

const srclint::SrclintReport& repo_scan() {
  static const srclint::SrclintReport rep = scan_tree(kRepoRoot);
  return rep;
}

/// The static scan of the planted corpus (no runtime legs).
const srclint::SrclintReport& corpus_scan() {
  static const srclint::SrclintReport rep =
      scan_tree(kRepoRoot + "/tests/srclint/fixtures");
  return rep;
}

/// What `pasched-srclint --plant` runs: the corpus scan plus both planted
/// refutation legs on a 2-node, 2-worker fig5 run.
const srclint::SrclintReport& plant_run() {
  static const srclint::SrclintReport rep =
      srclint::run_plant(kRepoRoot, tools::sharded_fig5(2, 8));
  return rep;
}

std::set<std::string> rules_of(const srclint::SrclintReport& rep) {
  std::set<std::string> rules;
  for (const analysis::Diagnostic& d : rep.findings) rules.insert(d.rule);
  return rules;
}

bool has_alloc_claim(const srclint::SrclintReport& rep,
                     const std::string& fn) {
  return std::any_of(rep.alloc_claims.begin(), rep.alloc_claims.end(),
                     [&](const alloc::AllocClaim& c) {
                       return c.function == fn;
                     });
}

}  // namespace

TEST(SrclintTree, RepositoryScansClean) {
  const srclint::SrclintReport& rep = repo_scan();
  EXPECT_TRUE(rep.findings.empty()) << rep.str();
  // Sanity: the scan actually covered the tree (a discovery regression that
  // found nothing would also "pass" the emptiness check).
  EXPECT_GT(rep.files_scanned, 100u);
  // The hot-path contract is load-bearing: the engine/shard/kernel
  // annotations must be visible to PSL403.
  EXPECT_GE(rep.architecture.hot_functions, 20u);
  EXPECT_GT(rep.architecture.macro_calls, 0u);
}

TEST(ContendTree, RepositoryScansClean) {
  const srclint::SrclintReport& rep = repo_scan();
  EXPECT_TRUE(rep.findings.empty()) << rep.str();
  EXPECT_GT(rep.files_in_scope, 100u);
  EXPECT_GT(rep.contention.functions, 500u);
  // The partitioned core's seams must be visible to extraction: the engine
  // declares SeamMutex members and takes locks in drain/post paths.
  EXPECT_GE(rep.contention.mutex_members, 5u);
  EXPECT_GE(rep.contention.acquisitions, 20u);
  // No live PSL505 claims in the tree today; the corpus covers the path.
  EXPECT_TRUE(rep.serialization_claims.empty());
}

TEST(AllocTree, RepositoryScansClean) {
  const srclint::SrclintReport& rep = repo_scan();
  EXPECT_TRUE(rep.findings.empty()) << rep.str();
  EXPECT_GT(rep.allocation.functions, 500u);
  EXPECT_GE(rep.allocation.hot_functions, 20u);
  // HeapItem and TieCandidate carry the arena annotation.
  EXPECT_GE(rep.allocation.arena_types, 2u);
}

TEST(AllocTree, EngineLifecycleIsCertifiedAllocationFree) {
  // The claims the fig5 ledger run verifies at runtime: the per-event core.
  for (const char* fn :
       {"Engine::schedule_at", "Engine::cancel", "Engine::fire_next",
        "Engine::fire_tied", "Engine::fire_item", "Engine::acquire_slot",
        "Engine::release_slot", "Kernel::on_tick",
        "ShardedEngine::admit_sorted"})
    EXPECT_TRUE(has_alloc_claim(repo_scan(), fn))
        << "no allocation-free claim for " << fn;
}

TEST(SrclintTree, FixtureCorpusNeverLeaksIntoCleanScans) {
  const srclint::FileSet fset = srclint::discover_files(kRepoRoot, "");
  for (const std::string& p : fset.rel_paths)
    EXPECT_EQ(p.find("fixtures/"), std::string::npos) << p;
  for (const analysis::Diagnostic& d : repo_scan().findings)
    EXPECT_EQ(d.subject.find("fixtures/"), std::string::npos) << d.subject;
}

TEST(ContendTree, FixtureCorpusNeverLeaksIntoCleanScans) {
  for (const std::string& edge : repo_scan().lock_graph)
    EXPECT_EQ(edge.find("fixtures/"), std::string::npos) << edge;
  for (const contend::SerializationClaim& c :
       repo_scan().serialization_claims)
    EXPECT_EQ(c.file.find("fixtures/"), std::string::npos) << c.file;
}

TEST(AllocTree, FixtureCorpusNeverLeaksIntoCleanScans) {
  for (const alloc::AllocClaim& c : repo_scan().alloc_claims)
    EXPECT_EQ(c.file.find("fixtures/"), std::string::npos) << c.file;
}

TEST(SrclintTree, CompileDbExtractionReadsFileEntries) {
  const std::string db = R"([
    {"directory": "/b", "command": "c++ -c x.cpp", "file": "/r/src/a.cpp"},
    {"file": "/r/src/b \"q\".cpp", "output": "b.o"}
  ])";
  const auto files = srclint::compile_db_files(db);
  ASSERT_EQ(files.size(), 2u);
  EXPECT_EQ(files[0], "/r/src/a.cpp");
  EXPECT_EQ(files[1], "/r/src/b \"q\".cpp");
}

TEST(SrclintTree, PlantedCorpusTripsEveryRule) {
  const srclint::SrclintReport& rep = corpus_scan();
  EXPECT_TRUE(analysis::any_errors(rep.findings));
  const std::set<std::string> rules = rules_of(rep);
  for (const char* r :
       {"PSL401", "PSL402", "PSL403", "PSL404", "PSL405", "PSL406"})
    EXPECT_EQ(rules.count(r), 1u) << "corpus never trips " << r;
}

TEST(ContendTree, PlantedCorpusTripsEveryStaticRule) {
  const srclint::SrclintReport& rep = corpus_scan();
  EXPECT_TRUE(analysis::any_errors(rep.findings));
  const std::set<std::string> rules = rules_of(rep);
  // PSL506 is runtime-only (the ledger refutation); the static sweep must
  // trip everything else.
  for (const char* r : {"PSL501", "PSL502", "PSL503", "PSL504", "PSL505"})
    EXPECT_EQ(rules.count(r), 1u) << "corpus never trips " << r;
  EXPECT_EQ(rules.count("PSL506"), 0u);
  EXPECT_EQ(rep.contention.cycles, 2u);  // one in-file ABBA, one cross-TU
  ASSERT_EQ(rep.serialization_claims.size(), 1u);
  EXPECT_EQ(rep.serialization_claims[0].site, "Queue.qmu_");
}

TEST(AllocTree, PlantedCorpusTripsEveryStaticRule) {
  const srclint::SrclintReport& rep = corpus_scan();
  EXPECT_TRUE(analysis::any_errors(rep.findings));
  const std::set<std::string> rules = rules_of(rep);
  // PSL606 is runtime-only (the ledger refutation); the static sweep must
  // trip everything else.
  for (const char* r : {"PSL601", "PSL602", "PSL603", "PSL604"})
    EXPECT_EQ(rules.count(r), 1u) << "corpus never trips " << r;
  EXPECT_EQ(rules.count("PSL606"), 0u);
  // The silent twins and the waiver fixture pin the claim contract; the
  // PSL403 silent twin's clean hot function earns the fourth claim.
  EXPECT_EQ(rep.alloc_claims.size(), 4u);
  EXPECT_TRUE(has_alloc_claim(rep, "fire_path"));
  EXPECT_EQ(rep.allocation.suppressions_honored, 1);
}

TEST(ContendTree, GoldenLockOrderGraph) {
  const std::vector<std::string> expected = {
      "CrossPair.x_ -> CrossPair.y_ @ src/psl501_cross_b.cxx:12",
      "CrossPair.y_ -> CrossPair.x_ @ src/psl501_cross_a.cxx:13",
      "Pair.a_ -> Pair.b_ @ src/psl501_abba_fire.cxx:12",
      "Pair.b_ -> Pair.a_ @ src/psl501_abba_fire.cxx:17",
      "PairOk.c_ -> PairOk.d_ @ src/psl501_silent.cxx:12",
  };
  EXPECT_EQ(corpus_scan().lock_graph, expected);
}

TEST(ContendTree, ReportCarriesTheSharedJsonHeader) {
  const std::string js = corpus_scan().json();
  EXPECT_EQ(js.find("{\n  \"schema\": 1,\n  \"tool\": \"pasched-srclint\","),
            0u);
  EXPECT_NE(js.find("\"contention\": {"), std::string::npos);
  EXPECT_NE(js.find("\"graph\""), std::string::npos);
  EXPECT_NE(js.find("\"site\": \"Queue.qmu_\""), std::string::npos);
}

TEST(AllocTree, ReportCarriesTheSharedJsonHeader) {
  const std::string js = corpus_scan().json();
  EXPECT_EQ(js.find("{\n  \"schema\": 1,\n  \"tool\": \"pasched-srclint\","),
            0u);
  EXPECT_NE(js.find("\"allocation\": {"), std::string::npos);
  EXPECT_NE(js.find("\"function\": \"next_due\""), std::string::npos);
  EXPECT_NE(js.find("\"findings\""), std::string::npos);
}

TEST(SrclintTree, EveryRegisteredPsl4RuleFiresSomewhereInTheCorpus) {
  // Registry/implementation coherence: a rule registered in the diagnostic
  // vocabulary but implemented nowhere (or vice versa) is a silent gap.
  const std::set<std::string> rules = rules_of(corpus_scan());
  for (const analysis::RuleInfo& r : analysis::all_rules()) {
    const std::string id(r.id);
    if (id.compare(0, 4, "PSL4") != 0) continue;
    EXPECT_EQ(rules.count(id), 1u)
        << id << " is registered but the corpus cannot make it fire";
  }
}

TEST(SrclintTree, PlantedClaimOnTheWrapupMutexIsRefuted) {
  if (!srclint::kLedgersAvailable)
    GTEST_SKIP() << "the ledgers need -DPASCHED_VALIDATE=ON";
  // Both shard workers take ShardedEngine.wrapup_mu_, each under its own
  // race::Domain, so the made-up single-domain claim must fall.
  const std::set<std::string> rules = rules_of(plant_run());
  EXPECT_EQ(rules.count("PSL506"), 1u) << plant_run().str();
  EXPECT_EQ(rules.count("PSL606"), 1u) << plant_run().str();
}

TEST(SrclintTree, PlantedRunMatchesTheGoldenDigest) {
  std::ifstream in(kRepoRoot + "/tests/srclint/plant_golden.txt");
  ASSERT_TRUE(in) << "tests/srclint/plant_golden.txt is missing";
  std::string expected;
  for (std::string line; std::getline(in, line);) {
    // Without the ledgers the runtime legs cannot run.
    if (!srclint::kLedgersAvailable &&
        (line.rfind("PSL506 ", 0) == 0 || line.rfind("PSL606 ", 0) == 0))
      continue;
    expected += line + "\n";
  }
  EXPECT_EQ(plant_run().digest(), expected);
}
