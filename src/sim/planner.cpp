#include "sim/planner.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>

#include "check/check.hpp"
#include "util/assert.hpp"

namespace pasched::sim {

namespace {

// Idle shards publish Time::max(); adding a lookahead to that must saturate,
// not wrap. `d` is never negative here.
[[nodiscard]] Time sat_add(Time t, Duration d) {
  if (t.count() > Time::max().count() - d.count()) return Time::max();
  return t + d;
}

[[nodiscard]] Duration shrink(Duration full, std::int64_t num,
                              std::int64_t den) {
  Duration q = full * num / den;
  if (q < Duration::ns(1)) q = Duration::ns(1);
  return q;
}

// Distinct quanta a planner keeps bounds for. The race fuzzer draws from
// eight buckets and unperturbed runs use one; a caller cycling through more
// only pays a rebuild.
constexpr std::size_t kMaxCachedQuanta = 16;

// Marks a destination row whose off-diagonal bounds are not all equal.
constexpr Duration kRowVaries = Duration::ns(-1);

// The common off-diagonal value of destination row `dst` of the n x n
// destination-major matrix `m`, or kRowVaries.
[[nodiscard]] Duration uniform_value(const std::vector<Duration>& m,
                                     std::size_t n, std::size_t dst) {
  Duration common = kRowVaries;
  for (std::size_t src = 0; src < n; ++src) {
    if (src == dst) continue;
    const Duration d = m[dst * n + src];
    if (common == kRowVaries) common = d;
    else if (d != common) return kRowVaries;
  }
  return common;
}

// out[s] = min over p != s of (x[p] + m[s][p]), saturating at Time::max().
// Times and bounds are non-negative int64, so their sum never wraps in
// uint64 and saturation is a single clamp at the end. A uniform row (every
// off-diagonal bound c) reduces to c + min over p != s of x[p], which the
// two smallest inputs answer in O(1) — flat fabrics make every row uniform.
void min_plus(const std::vector<Duration>& m,
              const std::vector<Duration>& uniform, const Time* x,
              std::size_t n, Time* out) {
  using U = std::uint64_t;
  const auto u = [](auto v) { return static_cast<U>(v.count()); };
  U lo = std::numeric_limits<U>::max();
  U hi = lo;
  std::size_t at = n;
  for (std::size_t p = 0; p < n; ++p) {
    const U v = u(x[p]);
    if (v < lo) {
      hi = lo;
      lo = v;
      at = p;
    } else if (v < hi) {
      hi = v;
    }
  }
  const U cap = u(Time::max());
  for (std::size_t s = 0; s < n; ++s) {
    U best = std::numeric_limits<U>::max();
    if (uniform[s] != kRowVaries) {
      best = (s == at ? hi : lo) + u(uniform[s]);
    } else {
      const Duration* row = &m[s * n];
      for (std::size_t p = 0; p < s; ++p)
        best = std::min(best, u(x[p]) + u(row[p]));
      for (std::size_t p = s + 1; p < n; ++p)
        best = std::min(best, u(x[p]) + u(row[p]));
    }
    out[s] = Time::from_ns(static_cast<std::int64_t>(std::min(best, cap)));
  }
}

}  // namespace

PairLookahead PairLookahead::uniform(int shards, Duration global) {
  PairLookahead la;
  la.shards = shards;
  la.global = global;
  la.bounds.assign(
      static_cast<std::size_t>(shards) * static_cast<std::size_t>(shards),
      global);
  for (int s = 0; s < shards; ++s)
    la.bounds[static_cast<std::size_t>(s) * static_cast<std::size_t>(shards) +
              static_cast<std::size_t>(s)] = Duration::zero();
  return la;
}

WindowPlanner::WindowPlanner(PairLookahead la, PlannerMode mode, int batch)
    : la_(std::move(la)), mode_(mode), batch_(std::max(batch, 1)) {
  PASCHED_EXPECTS(la_.shards >= 1);
  PASCHED_EXPECTS_MSG(la_.global > Duration::zero(),
                      "conservative planning requires a positive lookahead");
  PASCHED_EXPECTS(la_.bounds.size() ==
                  static_cast<std::size_t>(la_.shards) *
                      static_cast<std::size_t>(la_.shards));
#if PASCHED_VALIDATE_ENABLED
  for (int s = 0; s < la_.shards; ++s)
    for (int d = 0; d < la_.shards; ++d)
      if (s != d)
        PASCHED_CHECK_MSG(la_.at(s, d) >= la_.global,
                          "pair lookahead below the global floor — the "
                          "certificate's matrix-minimum invariant is broken");
#endif
}

const WindowPlanner::Quantum& WindowPlanner::quantum(std::int64_t num,
                                                     std::int64_t den) {
  for (const Quantum& q : quanta_)
    if (q.num == num && q.den == den) return q;
  if (quanta_.size() == kMaxCachedQuanta) quanta_.clear();
  const std::size_t S = static_cast<std::size_t>(la_.shards);
  Quantum q;
  q.num = num;
  q.den = den;
  // Effective (possibly fuzz-shrunk) pair bounds. Shrinking claims *less*
  // lookahead than guaranteed, which is always conservative; the engine's
  // ring-drain caps keep using the full bounds the events were stamped with.
  q.eff.resize(S * S);
  for (std::size_t dst = 0; dst < S; ++dst)
    for (std::size_t src = 0; src < S; ++src) {
      const Duration b = la_.bounds[src * S + dst];
      q.eff[dst * S + src] =
          b > Duration::zero() ? shrink(b, num, den) : Duration::zero();
    }
  // Floyd–Warshall closure: reach[dst][src] is the cheapest chain of bounds
  // from src to dst, i.e. how far ahead of src's next event any work it
  // forwards (directly or through other shards) can first reach dst.
  q.reach = q.eff;
  for (std::size_t k = 0; k < S; ++k) {
    const Duration* via = &q.reach[k * S];  // src -> k
    for (std::size_t dst = 0; dst < S; ++dst) {
      Duration* row = &q.reach[dst * S];  // src -> dst
      const Duration hop = row[k];        // k -> dst
      for (std::size_t src = 0; src < S; ++src)
        if (via[src] <= Duration::max() - hop)
          row[src] = std::min(row[src], via[src] + hop);
    }
  }
  q.eff_uniform.resize(S);
  q.reach_uniform.resize(S);
  for (std::size_t dst = 0; dst < S; ++dst) {
    q.eff_uniform[dst] = uniform_value(q.eff, S, dst);
    q.reach_uniform[dst] = uniform_value(q.reach, S, dst);
  }
  quanta_.push_back(std::move(q));
  return quanta_.back();
}

void WindowPlanner::plan(const std::vector<Time>& next_t, Time deadline,
                         std::int64_t quantum_num, std::int64_t quantum_den,
                         RoundPlan& out) {
  const int S = la_.shards;
  PASCHED_EXPECTS(next_t.size() == static_cast<std::size_t>(S));
  out.shards = S;
  out.final = false;
  out.length = 0;

  Time t0 = Time::max();
  for (const Time t : next_t) t0 = std::min(t0, t);
  // Final-window gate, identical to the legacy planner: once no full global
  // window fits below the deadline, every event left in [t0, deadline] can
  // only generate cross-shard work past the deadline, so one inclusive
  // window finishes the run.
  if (t0 >= deadline || sat_add(t0, la_.global) > deadline) {
    out.final = true;
    return;
  }

  if (mode_ == PlannerMode::Global || S == 1) {
    // Legacy schedule: one window for everyone at t0 + quantum. The final
    // gate above already guaranteed t0 + global <= deadline and the quantum
    // never exceeds the global bound, so no clamping is needed.
    const Duration q = shrink(la_.global, quantum_num, quantum_den);
    out.length = 1;
    out.ends.assign(static_cast<std::size_t>(S), t0 + q);
    return;
  }

  const Quantum& q = quantum(quantum_num, quantum_den);
  const std::size_t n = static_cast<std::size_t>(S);

  // Null-message fixpoint in one pass over the closure: the earliest
  // instant each shard could execute anything, counting work forwarded
  // transitively through other shards (D_ss = 0 keeps its own next event).
  horizon_.resize(n);
  min_plus(q.reach, q.reach_uniform, next_t.data(), n, horizon_.data());
  for (std::size_t s = 0; s < n; ++s)
    horizon_[s] = std::min(horizon_[s], next_t[s]);

  // Chain up to `batch` windows: each next end is the earliest any incoming
  // neighbor could deliver past its previous end. Rows are pointwise
  // nondecreasing, every entry clamps at the deadline, and W(1)_s >= t0 +
  // 1ns guarantees the round makes progress.
  out.ends.resize(static_cast<std::size_t>(batch_) * n);
  const Time* prev = horizon_.data();  // W(0) = E
  for (int j = 1; j <= batch_; ++j) {
    Time* row = &out.ends[static_cast<std::size_t>(j - 1) * n];
    min_plus(q.eff, q.eff_uniform, prev, n, row);
    bool moved = false;
    for (std::size_t s = 0; s < n; ++s) {
      row[s] = std::min(row[s], deadline);
      if (row[s] > prev[s]) moved = true;
    }
    // A row identical to its predecessor means every shard is pinned at the
    // deadline — further windows would be no-ops, so stop the chain.
    if (j > 1 && !moved) break;
    out.length = j;
    prev = row;
  }
}

}  // namespace pasched::sim
