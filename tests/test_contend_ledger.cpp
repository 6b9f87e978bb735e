// Runtime contention-ledger coverage: per-site accounting (acquires,
// contention, wait/hold, domain sets), barrier crossing and wait-share
// arithmetic, the PSL506 certify-then-verify join against PSL505 claims,
// and (under PASCHED_VALIDATE=ON) the SeamMutex/SeamBarrier observer hooks
// end to end.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "contend/ledger.hpp"
#include "race/domain.hpp"
#include "util/seam.hpp"

using namespace pasched;

namespace {

const contend::SiteSummary* find_site(const contend::LedgerReport& rep,
                                      const std::string& name) {
  for (const contend::SiteSummary& s : rep.sites)
    if (s.name == name) return &s;
  return nullptr;
}

}  // namespace

TEST(ContendLedger, AccountsAcquiresWaitsAndDomains) {
  const int site =
      util::register_seam_site("LedgerTest.mu", util::SeamKind::Mutex);
  contend::Ledger led;
  {
    race::ScopedDomain d(0);
    led.on_acquire(site, 100, /*contended=*/false);
    led.on_release(site, 50);
  }
  {
    race::ScopedDomain d(1);
    led.on_acquire(site, 300, /*contended=*/true);
    led.on_release(site, 70);
  }
  const contend::LedgerReport rep = led.report();
  const contend::SiteSummary* s = find_site(rep, "LedgerTest.mu");
  ASSERT_NE(s, nullptr) << rep.str();
  EXPECT_EQ(s->acquires, 2u);
  EXPECT_EQ(s->contended, 1u);
  EXPECT_EQ(s->wait_ns, 400u);
  EXPECT_EQ(s->hold_ns, 120u);
  EXPECT_EQ(s->max_wait_ns, 300u);
  EXPECT_EQ(s->domains_observed, 2);
}

TEST(ContendLedger, BarrierCrossingsAndWaitShare) {
  const int mu =
      util::register_seam_site("LedgerTest.share_mu", util::SeamKind::Mutex);
  const int bar = util::register_seam_site("LedgerTest.share_bar",
                                           util::SeamKind::Barrier);
  contend::Ledger led;
  led.on_acquire(mu, 250, true);
  led.on_barrier_wait(bar, 500);
  led.on_barrier_wait(bar, 250);
  led.on_barrier_wait(bar, 0);
  const contend::LedgerReport rep = led.report();
  EXPECT_EQ(rep.barrier_crossings, 3u);
  EXPECT_EQ(rep.total_wait_ns, 1000u);
  EXPECT_NEAR(rep.barrier_wait_share, 0.75, 1e-9);
  // Sites sort by wait, descending: the barrier outwaited the mutex.
  ASSERT_GE(rep.sites.size(), 2u);
  EXPECT_GE(rep.sites[0].wait_ns, rep.sites[1].wait_ns);
  const contend::SiteSummary* b = find_site(rep, "LedgerTest.share_bar");
  ASSERT_NE(b, nullptr);
  EXPECT_NEAR(b->wait_share, 0.75, 1e-9);
}

TEST(ContendLedger, RoundBarrierCostIsTwoCrossingsOfTheMeanWait) {
  const int bar = util::register_seam_site("LedgerTest.round_bar",
                                           util::SeamKind::Barrier);
  contend::Ledger led;
  EXPECT_LT(led.report().round_barrier_cost_ns(), 0.0);  // nothing crossed
  led.on_barrier_wait(bar, 500);
  led.on_barrier_wait(bar, 250);
  led.on_barrier_wait(bar, 0);
  // Mean wait 250 ns per crossing, two crossings per sync round.
  EXPECT_DOUBLE_EQ(led.report().round_barrier_cost_ns(), 500.0);
}

TEST(ContendLedger, ResetZeroesTheSlots) {
  const int site =
      util::register_seam_site("LedgerTest.reset_mu", util::SeamKind::Mutex);
  contend::Ledger led;
  led.on_acquire(site, 10, false);
  led.reset();
  EXPECT_EQ(find_site(led.report(), "LedgerTest.reset_mu"), nullptr);
}

TEST(ContendLedger, CheckClaimsRefutesMultiDomainSites) {
  const int site =
      util::register_seam_site("LedgerTest.claim_mu", util::SeamKind::Mutex);
  contend::Ledger led;
  {
    race::ScopedDomain d(3);
    led.on_acquire(site, 0, false);
  }
  {
    race::ScopedDomain d(4);
    led.on_acquire(site, 0, false);
  }
  const std::vector<contend::SerializationClaim> claims = {
      {"LedgerTest.claim_mu", "src/sim/hub.cpp", 42}};
  const std::vector<analysis::Diagnostic> diags = led.check_claims(claims);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "PSL506");
  EXPECT_EQ(diags[0].severity, analysis::Severity::Error);
  EXPECT_NE(diags[0].subject.find("src/sim/hub.cpp:42"), std::string::npos);
}

TEST(ContendLedger, CheckClaimsUpholdsSingleDomainAndSkipsUnobserved) {
  const int site =
      util::register_seam_site("LedgerTest.solo_mu", util::SeamKind::Mutex);
  util::register_seam_site("LedgerTest.registered_never_touched",
                           util::SeamKind::Mutex);
  contend::Ledger led;
  {
    race::ScopedDomain d(5);
    led.on_acquire(site, 0, false);
    led.on_acquire(site, 0, false);
  }
  const std::vector<contend::SerializationClaim> claims = {
      {"LedgerTest.solo_mu", "src/sim/a.cpp", 1},
      {"LedgerTest.registered_never_touched", "src/sim/b.cpp", 2}};
  EXPECT_TRUE(led.check_claims(claims).empty());
}

TEST(ContendLedger, CheckClaimsRejectsAClaimOnAnUnknownSite) {
  // A claim naming a site no seam ever registered cannot be checked; it
  // must fail loudly instead of passing unverified.
  contend::Ledger led;
  const std::vector<contend::SerializationClaim> claims = {
      {"LedgerTest.made_up_site_mu", "src/sim/c.cpp", 3}};
  const std::vector<analysis::Diagnostic> diags = led.check_claims(claims);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "PSL506");
  EXPECT_EQ(diags[0].severity, analysis::Severity::Error);
  EXPECT_EQ(diags[0].subject, "src/sim/c.cpp:3");
  EXPECT_NE(diags[0].message.find("LedgerTest.made_up_site_mu"),
            std::string::npos);
}

#if PASCHED_VALIDATE_ENABLED

TEST(ContendLedger, SeamMutexFeedsTheInstalledObserver) {
  const int site =
      util::register_seam_site("LedgerTest.seam_mu", util::SeamKind::Mutex);
  contend::Ledger led;
  util::install_seam_observer(&led);
  {
    util::SeamMutex mu(site);
    mu.lock();
    mu.unlock();
    ASSERT_TRUE(mu.try_lock());
    mu.unlock();
  }
  util::install_seam_observer(nullptr);
  const contend::LedgerReport rep = led.report();
  const contend::SiteSummary* s = find_site(rep, "LedgerTest.seam_mu");
  ASSERT_NE(s, nullptr) << rep.str();
  EXPECT_EQ(s->acquires, 2u);
  EXPECT_EQ(s->contended, 0u);
}

TEST(ContendLedger, SeamBarrierFeedsTheInstalledObserver) {
  const int site =
      util::register_seam_site("LedgerTest.seam_bar", util::SeamKind::Barrier);
  contend::Ledger led;
  util::install_seam_observer(&led);
  {
    auto noop = []() noexcept {};
    util::SeamBarrier<decltype(noop)> bar(site, 1, noop);
    bar.arrive_and_wait();
    bar.arrive_and_wait();
  }
  util::install_seam_observer(nullptr);
  const contend::LedgerReport rep = led.report();
  const contend::SiteSummary* s = find_site(rep, "LedgerTest.seam_bar");
  ASSERT_NE(s, nullptr) << rep.str();
  EXPECT_EQ(s->acquires, 2u);
  EXPECT_EQ(rep.barrier_crossings, 2u);
}

#endif  // PASCHED_VALIDATE_ENABLED

TEST(ContendLedger, JsonCarriesTheReportFields) {
  const int site =
      util::register_seam_site("LedgerTest.json_mu", util::SeamKind::Mutex);
  contend::Ledger led;
  led.on_acquire(site, 7, false);
  const std::string js = led.report().json(0);
  EXPECT_NE(js.find("\"barrier_crossings\""), std::string::npos);
  EXPECT_NE(js.find("\"barrier_wait_share\""), std::string::npos);
  EXPECT_NE(js.find("\"LedgerTest.json_mu\""), std::string::npos);
}
