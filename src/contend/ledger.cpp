#include "contend/ledger.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "race/domain.hpp"
#include "util/table.hpp"

namespace pasched::contend {

namespace {

[[nodiscard]] std::uint64_t domain_bit(race::Domain d) noexcept {
  // kUnbound (-2) -> bit 0, kFreeContext (-1) -> bit 1, shard d -> d + 2.
  const int idx = static_cast<int>(d) + 2;
  return std::uint64_t{1} << (idx < 0 ? 0 : (idx > 63 ? 63 : idx));
}

[[nodiscard]] int popcount64(std::uint64_t x) noexcept {
  int n = 0;
  for (; x != 0; x &= x - 1) ++n;
  return n;
}

[[nodiscard]] double ms(std::uint64_t ns) noexcept {
  return static_cast<double>(ns) / 1e6;
}

void bump_max(std::atomic<std::uint64_t>& target,
              std::uint64_t candidate) noexcept {
  std::uint64_t cur = target.load(std::memory_order_relaxed);
  while (candidate > cur &&
         !target.compare_exchange_weak(cur, candidate,
                                       std::memory_order_relaxed)) {
  }
}

}  // namespace

void Ledger::on_acquire(int site, std::uint64_t wait_ns,
                        bool contended) noexcept {
  Slot& s = slot(site);
  s.acquires.fetch_add(1, std::memory_order_relaxed);
  if (contended) s.contended.fetch_add(1, std::memory_order_relaxed);
  if (wait_ns != 0) {
    s.wait_ns.fetch_add(wait_ns, std::memory_order_relaxed);
    bump_max(s.max_wait_ns, wait_ns);
  }
  s.domain_mask.fetch_or(domain_bit(race::current_domain()),
                         std::memory_order_relaxed);
}

void Ledger::on_release(int site, std::uint64_t hold_ns) noexcept {
  slot(site).hold_ns.fetch_add(hold_ns, std::memory_order_relaxed);
}

void Ledger::on_barrier_wait(int site, std::uint64_t wait_ns) noexcept {
  Slot& s = slot(site);
  s.acquires.fetch_add(1, std::memory_order_relaxed);
  s.wait_ns.fetch_add(wait_ns, std::memory_order_relaxed);
  bump_max(s.max_wait_ns, wait_ns);
  s.domain_mask.fetch_or(domain_bit(race::current_domain()),
                         std::memory_order_relaxed);
}

void Ledger::on_wait(int site, std::uint64_t wait_ns) noexcept {
  Slot& s = slot(site);
  s.acquires.fetch_add(1, std::memory_order_relaxed);
  s.contended.fetch_add(1, std::memory_order_relaxed);  // a spin happened
  s.wait_ns.fetch_add(wait_ns, std::memory_order_relaxed);
  bump_max(s.max_wait_ns, wait_ns);
  s.domain_mask.fetch_or(domain_bit(race::current_domain()),
                         std::memory_order_relaxed);
}

void Ledger::reset() noexcept {
  for (auto& wrapped : slots_) {
    Slot& s = wrapped.v;
    s.acquires.store(0, std::memory_order_relaxed);
    s.contended.store(0, std::memory_order_relaxed);
    s.wait_ns.store(0, std::memory_order_relaxed);
    s.hold_ns.store(0, std::memory_order_relaxed);
    s.max_wait_ns.store(0, std::memory_order_relaxed);
    s.domain_mask.store(0, std::memory_order_relaxed);
  }
}

LedgerReport Ledger::report() const {
  LedgerReport rep;
  std::uint64_t barrier_wait = 0;
  const int n = util::seam_site_count();
  for (int i = 0; i < n && i < util::kMaxSeamSites; ++i) {
    const Slot& s = slot(i);
    SiteSummary row;
    row.name = util::seam_site_name(i);
    row.kind = util::seam_site_kind(i);
    row.acquires = s.acquires.load(std::memory_order_relaxed);
    row.contended = s.contended.load(std::memory_order_relaxed);
    row.wait_ns = s.wait_ns.load(std::memory_order_relaxed);
    row.hold_ns = s.hold_ns.load(std::memory_order_relaxed);
    row.max_wait_ns = s.max_wait_ns.load(std::memory_order_relaxed);
    row.domains_observed =
        popcount64(s.domain_mask.load(std::memory_order_relaxed));
    if (row.acquires == 0) continue;  // registered but never crossed
    rep.total_wait_ns += row.wait_ns;
    if (row.kind == util::SeamKind::Barrier) {
      barrier_wait += row.wait_ns;
      rep.barrier_crossings = std::max(rep.barrier_crossings, row.acquires);
    }
    rep.sites.push_back(std::move(row));
  }
  if (rep.total_wait_ns > 0) {
    for (SiteSummary& row : rep.sites)
      row.wait_share = static_cast<double>(row.wait_ns) /
                       static_cast<double>(rep.total_wait_ns);
    rep.barrier_wait_share = static_cast<double>(barrier_wait) /
                             static_cast<double>(rep.total_wait_ns);
  }
  std::sort(rep.sites.begin(), rep.sites.end(),
            [](const SiteSummary& a, const SiteSummary& b) {
              if (a.wait_ns != b.wait_ns) return a.wait_ns > b.wait_ns;
              return a.name < b.name;
            });
  return rep;
}

std::vector<analysis::Diagnostic> Ledger::check_claims(
    const std::vector<SerializationClaim>& claims) const {
  std::vector<analysis::Diagnostic> out;
  const int n = std::min(util::seam_site_count(), util::kMaxSeamSites);
  for (const SerializationClaim& c : claims) {
    int site = 0;
    while (site < n && c.site != util::seam_site_name(site)) ++site;
    analysis::Diagnostic d;
    d.rule = "PSL506";
    d.severity = analysis::Severity::Error;
    d.subject = c.file + ":" + std::to_string(c.line);
    if (site == n) {
      d.message = "serialization claim names site `" + c.site +
                  "`, which no seam ever registered; the ledger cannot "
                  "check it";
      d.fix_hint =
          "name the claim after a registered seam site (\"Class.member\", "
          "as passed to util::register_seam_site), or drop the stale "
          "srclint-ok(PSL505) narrowing";
      out.push_back(std::move(d));
      continue;
    }
    const Slot& s = slot(site);
    if (s.acquires.load(std::memory_order_relaxed) == 0) continue;
    const int domains =
        popcount64(s.domain_mask.load(std::memory_order_relaxed));
    if (domains < 2) continue;
    d.message = "serialization claim refuted: site `" + c.site +
                "` was statically claimed single-domain (PSL505) but "
                "the contention ledger observed " +
                std::to_string(domains) +
                " distinct race::Domains acquiring it at runtime";
    d.fix_hint =
        "the mutex really is a cross-domain serialization point: keep "
        "it, drop the srclint-ok(PSL505) narrowing, and rank it via the "
        "ledger instead; or narrow the guarded state so only its owner "
        "domain touches it";
    out.push_back(std::move(d));
  }
  return out;
}

double LedgerReport::round_barrier_cost_ns() const {
  std::uint64_t wait_ns = 0;
  std::uint64_t crossings = 0;
  for (const SiteSummary& s : sites) {
    if (s.kind != util::SeamKind::Barrier) continue;
    wait_ns += s.wait_ns;
    crossings += s.acquires;
  }
  if (crossings == 0) return -1.0;
  return 2.0 * static_cast<double>(wait_ns) / static_cast<double>(crossings);
}

std::string LedgerReport::str() const {
  std::ostringstream os;
  os << "contention ledger: " << sites.size() << " active site(s), "
     << barrier_crossings << " barrier crossing(s), total wait "
     << ms(total_wait_ns) << " ms, barrier share ";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f%%", barrier_wait_share * 100.0);
  os << buf << "\n";
  util::Table t({"site", "kind", "acquires", "contended", "wait_ms",
                 "hold_ms", "max_wait_us", "domains", "share"});
  for (const SiteSummary& s : sites) {
    std::snprintf(buf, sizeof buf, "%.1f%%", s.wait_share * 100.0);
    t.add_row({s.name,
               s.kind == util::SeamKind::Barrier
                   ? "barrier"
                   : (s.kind == util::SeamKind::Wait ? "wait" : "mutex"),
               util::Table::cell(
                   static_cast<unsigned long long>(s.acquires)),
               util::Table::cell(
                   static_cast<unsigned long long>(s.contended)),
               util::Table::cell(ms(s.wait_ns), 3),
               util::Table::cell(ms(s.hold_ns), 3),
               util::Table::cell(static_cast<double>(s.max_wait_ns) / 1e3, 1),
               util::Table::cell(s.domains_observed), buf});
  }
  os << t.render();
  return os.str();
}

std::string LedgerReport::json(int indent) const {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  const std::string pad2(static_cast<std::size_t>(indent) + 2, ' ');
  const std::string pad4(static_cast<std::size_t>(indent) + 4, ' ');
  std::ostringstream os;
  char buf[32];
  os << "{\n";
  os << pad2 << "\"barrier_crossings\": " << barrier_crossings << ",\n";
  os << pad2 << "\"total_wait_ns\": " << total_wait_ns << ",\n";
  std::snprintf(buf, sizeof buf, "%.6f", barrier_wait_share);
  os << pad2 << "\"barrier_wait_share\": " << buf << ",\n";
  os << pad2 << "\"sites\": [";
  for (std::size_t i = 0; i < sites.size(); ++i) {
    const SiteSummary& s = sites[i];
    os << (i == 0 ? "\n" : ",\n") << pad4 << "{\"site\": \""
       << analysis::json_escape(s.name) << "\", \"kind\": \""
       << (s.kind == util::SeamKind::Barrier
               ? "barrier"
               : (s.kind == util::SeamKind::Wait ? "wait" : "mutex"))
       << "\", \"acquires\": " << s.acquires
       << ", \"contended\": " << s.contended
       << ", \"wait_ns\": " << s.wait_ns << ", \"hold_ns\": " << s.hold_ns
       << ", \"max_wait_ns\": " << s.max_wait_ns
       << ", \"domains_observed\": " << s.domains_observed;
    std::snprintf(buf, sizeof buf, "%.6f", s.wait_share);
    os << ", \"wait_share\": " << buf << "}";
  }
  os << (sites.empty() ? "]" : "\n" + pad2 + "]") << "\n" << pad << "}";
  return os.str();
}

}  // namespace pasched::contend
