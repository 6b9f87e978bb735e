// Golden-schedule tests for the per-pair window planner. Each case
// hand-derives the null-message fixpoint and the chained-window recurrence
//
//     E_s    = min(next_t_s, min_p (E_p + L_ps))
//     W(1)_s = min_{p != s} (E_p + L_ps)
//     W(j)_s = min_{p != s} (W(j-1)_p + L_ps)
//
// for three fabric shapes — flat (all pairs at the global bound), framed
// (asymmetric pair bounds, the shape a framed interconnect certificate
// yields), and jitter (all six off-diagonal bounds distinct) — and pins the
// planner's output to the exact expected times. A differential test then
// holds the closure-based planner to the dense Bellman–Ford formulation it
// replaced, on seeded random fabrics. The planner is the determinism
// keystone of the partitioned core: any drift here breaks bit-identity
// across worker counts and planner modes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "net/fabric.hpp"
#include "sim/planner.hpp"

namespace {

using pasched::sim::Duration;
using pasched::sim::PairLookahead;
using pasched::sim::PlannerMode;
using pasched::sim::RoundPlan;
using pasched::sim::Time;
using pasched::sim::WindowPlanner;

constexpr Time us(std::int64_t v) { return Time::from_ns(v * 1000); }

/// Builds a matrix from explicit off-diagonal bounds (row-major, us).
PairLookahead matrix(int shards, std::vector<std::int64_t> bounds_us,
                     std::int64_t global_us) {
  PairLookahead la;
  la.shards = shards;
  la.global = Duration::us(global_us);
  for (const std::int64_t b : bounds_us) la.bounds.push_back(Duration::us(b));
  return la;
}

std::vector<Time> plan_ends(WindowPlanner& p,
                            const std::vector<Time>& next_t, Time deadline,
                            RoundPlan& out) {
  p.plan(next_t, deadline, 1, 1, out);
  std::vector<Time> ends;
  for (int j = 1; j <= out.length; ++j)
    for (int s = 0; s < out.shards; ++s) ends.push_back(out.end_of(j, s));
  return ends;
}

TEST(Planner, GlobalModeReproducesTheLegacySingleWindow) {
  WindowPlanner p(PairLookahead::uniform(3, Duration::us(10)),
                  PlannerMode::Global, 8);
  RoundPlan plan;
  const std::vector<Time> ends =
      plan_ends(p, {us(100), us(200), us(300)}, us(1000), plan);
  EXPECT_FALSE(plan.final);
  EXPECT_EQ(plan.length, 1);  // batch is ignored: one window per round
  // Everyone is cut at t0 + L = 110us regardless of their own next event.
  EXPECT_EQ(ends, (std::vector<Time>{us(110), us(110), us(110)}));
}

TEST(Planner, FlatFabricChainsUniformWindows) {
  // All pairs at the global bound: the per-pair schedule degenerates to the
  // legacy window *shape* but still chains `batch` windows per round —
  // that chaining is the whole sync-round reduction on flat fabrics.
  WindowPlanner p(PairLookahead::uniform(3, Duration::us(10)),
                  PlannerMode::PerPair, 2);
  RoundPlan plan;
  const std::vector<Time> ends =
      plan_ends(p, {us(100), us(100), us(100)}, us(1000), plan);
  EXPECT_EQ(plan.length, 2);
  EXPECT_EQ(ends, (std::vector<Time>{us(110), us(110), us(110),  // W(1)
                                     us(120), us(120), us(120)}));  // W(2)
}

TEST(Planner, FramedFabricGoldenSchedule) {
  // Asymmetric pair bounds: L(0->1) = 30us, L(1->0) = 10us. Shard 0 is
  // gated only by shard 1's slow-to-reach-it horizon and vice versa.
  //   next_t = {100, 101}us  =>  E = {100, 101}  (fixpoint = inputs here)
  //   W(1) = {E1+10, E0+30}           = {111, 130}
  //   W(2) = {W(1)_1+10, W(1)_0+30}   = {140, 141}
  //   W(3) = {W(2)_1+10, W(2)_0+30}   = {151, 170}
  // Every entry beats the legacy global window t0 + 10 = 110us — the
  // per-pair chain runs ahead of the global planner within one round.
  WindowPlanner p(matrix(2, {0, 30, 10, 0}, 10), PlannerMode::PerPair, 3);
  RoundPlan plan;
  const std::vector<Time> ends =
      plan_ends(p, {us(100), us(101)}, us(100'000), plan);
  EXPECT_FALSE(plan.final);
  EXPECT_EQ(plan.length, 3);
  EXPECT_EQ(ends, (std::vector<Time>{us(111), us(130),    // W(1)
                                     us(140), us(141),    // W(2)
                                     us(151), us(170)}));  // W(3)
}

TEST(Planner, JitterFabricGoldenSchedule) {
  // All six off-diagonal bounds distinct (us):
  //     L = [ 0 10 20
  //          15  0 25
  //          30 12  0 ]
  // next_t = {50, 60, 70}us. The fixpoint leaves E = next_t (no bound is
  // short enough to undercut a neighbor), then:
  //   W(1)_0 = min(60+15, 70+30) = 75
  //   W(1)_1 = min(50+10, 70+12) = 60
  //   W(1)_2 = min(50+20, 60+25) = 70
  //   W(2)_0 = min(60+15, 70+30) = 75   (shard 0 is already at its bound)
  //   W(2)_1 = min(75+10, 70+12) = 82
  //   W(2)_2 = min(75+20, 60+25) = 85
  WindowPlanner p(
      matrix(3, {0, 10, 20, 15, 0, 25, 30, 12, 0}, 10), PlannerMode::PerPair,
      2);
  RoundPlan plan;
  const std::vector<Time> ends =
      plan_ends(p, {us(50), us(60), us(70)}, us(100'000), plan);
  EXPECT_EQ(plan.length, 2);
  EXPECT_EQ(ends, (std::vector<Time>{us(75), us(60), us(70),    // W(1)
                                     us(75), us(82), us(85)}));  // W(2)
}

TEST(Planner, ChainStopsEarlyOnceEveryShardIsPinnedAtTheDeadline) {
  WindowPlanner p(PairLookahead::uniform(2, Duration::us(10)),
                  PlannerMode::PerPair, 4);
  RoundPlan plan;
  // Deadline 115us: W(1) = 110, W(2) clamps to 115, W(3) would repeat the
  // row exactly — the chain must stop at length 2, not pad no-op windows.
  const std::vector<Time> ends =
      plan_ends(p, {us(100), us(100)}, us(115), plan);
  EXPECT_EQ(plan.length, 2);
  EXPECT_EQ(ends,
            (std::vector<Time>{us(110), us(110), us(115), us(115)}));
}

TEST(Planner, FinalWindowGateMatchesTheLegacyCondition) {
  WindowPlanner p(matrix(2, {0, 30, 10, 0}, 10), PlannerMode::PerPair, 8);
  RoundPlan plan;
  // t0 + global = 110us > deadline 105us: no full window fits, so the round
  // is the deadline-inclusive final window for every shard.
  p.plan({us(100), us(104)}, us(105), 1, 1, plan);
  EXPECT_TRUE(plan.final);
  EXPECT_EQ(plan.length, 0);
}

TEST(Planner, QuantumShrinkIsConservativeAndKeepsProgress) {
  WindowPlanner p(matrix(2, {0, 30, 10, 0}, 10), PlannerMode::PerPair, 2);
  RoundPlan full;
  RoundPlan half;
  const std::vector<Time> next_t = {us(100), us(101)};
  p.plan(next_t, us(100'000), 1, 1, full);
  p.plan(next_t, us(100'000), 1, 2, half);  // fuzzer claims half lookahead
  ASSERT_EQ(half.length, full.length);
  for (int j = 1; j <= full.length; ++j)
    for (int s = 0; s < 2; ++s) {
      // Shrunk windows never reach past the full ones (claiming less
      // lookahead than certified is always safe)...
      EXPECT_LE(half.end_of(j, s).count(), full.end_of(j, s).count());
      // ...and the round still advances past the earliest event.
      EXPECT_GT(half.end_of(j, s).count(), us(100).count());
    }
  // Exact first row under the halved bounds: {E1+5, E0+15} = {106, 115}.
  EXPECT_EQ(half.end_of(1, 0), us(106));
  EXPECT_EQ(half.end_of(1, 1), us(115));
}

TEST(Planner, IdenticalInputsProduceTheIdenticalPlan) {
  // The determinism contract: plan() is a function of its arguments only.
  // The second call is served from the per-quantum bound cache the first
  // one built; any divergence would desync the horizon protocol.
  WindowPlanner p(
      matrix(3, {0, 10, 20, 15, 0, 25, 30, 12, 0}, 10), PlannerMode::PerPair,
      8);
  RoundPlan a;
  RoundPlan b;
  const std::vector<Time> next_t = {us(50), us(60), us(70)};
  p.plan(next_t, us(400), 1, 1, a);
  p.plan(next_t, us(400), 1, 1, b);
  ASSERT_EQ(a.length, b.length);
  ASSERT_EQ(a.final, b.final);
  for (int j = 1; j <= a.length; ++j)
    for (int s = 0; s < 3; ++s) EXPECT_EQ(a.end_of(j, s), b.end_of(j, s));
}

TEST(Planner, IdleShardsSaturateInsteadOfWrapping) {
  // An idle shard publishes Time::max(); adding a lookahead to that must
  // saturate, not wrap to a negative time. The fixpoint then pulls the idle
  // shard's horizon down to its busy neighbor's reach (E_1 = 100 + 10 =
  // 110us), so W(1) = {E_1 + 10, E_0 + 10} = {120, 110}us — finite, sane
  // windows on both sides instead of wraparound garbage.
  WindowPlanner p(PairLookahead::uniform(2, Duration::us(10)),
                  PlannerMode::PerPair, 1);
  RoundPlan plan;
  p.plan({us(100), Time::max()}, us(100'000), 1, 1, plan);
  ASSERT_EQ(plan.length, 1);
  EXPECT_EQ(plan.end_of(1, 0), us(120));
  EXPECT_EQ(plan.end_of(1, 1), us(110));
}

// -- Differential test against the dense reference --------------------------

/// The dense planner the closure-based one replaced: per call, rebuild the
/// row-major shrunk matrix, iterate the null-message fixpoint to
/// convergence (at most S Gauss–Seidel passes), then chain the windows. Kept
/// only as the oracle for the differential test below.
void reference_plan(const PairLookahead& la, PlannerMode mode, int batch,
                    const std::vector<Time>& next_t, Time deadline,
                    std::int64_t num, std::int64_t den, RoundPlan& out) {
  const auto sat_add = [](Time t, Duration d) {
    if (t.count() > std::numeric_limits<std::int64_t>::max() - d.count())
      return Time::max();
    return t + d;
  };
  const auto shrink = [num, den](Duration full) {
    return std::max(full * num / den, Duration::ns(1));
  };
  const int S = la.shards;
  batch = std::max(batch, 1);
  out.shards = S;
  out.final = false;
  out.length = 0;
  Time t0 = Time::max();
  for (const Time t : next_t) t0 = std::min(t0, t);
  if (t0 >= deadline || sat_add(t0, la.global) > deadline) {
    out.final = true;
    return;
  }
  if (mode == PlannerMode::Global || S == 1) {
    out.length = 1;
    out.ends.assign(static_cast<std::size_t>(S), t0 + shrink(la.global));
    return;
  }
  const auto eff = [&](int src, int dst) {
    const Duration b = la.at(src, dst);
    return b > Duration::zero() ? shrink(b) : Duration::zero();
  };
  std::vector<Time> horizon(next_t);
  for (int pass = 0; pass < S; ++pass) {
    bool changed = false;
    for (int s = 0; s < S; ++s) {
      Time e = horizon[static_cast<std::size_t>(s)];
      for (int p = 0; p < S; ++p)
        if (p != s)
          e = std::min(e, sat_add(horizon[static_cast<std::size_t>(p)],
                                  eff(p, s)));
      if (e < horizon[static_cast<std::size_t>(s)]) {
        horizon[static_cast<std::size_t>(s)] = e;
        changed = true;
      }
    }
    if (!changed) break;
  }
  out.ends.assign(static_cast<std::size_t>(batch) *
                      static_cast<std::size_t>(S),
                  Time::zero());
  std::vector<Time> prev = horizon;
  for (int j = 1; j <= batch; ++j) {
    bool moved = false;
    std::vector<Time> row(static_cast<std::size_t>(S));
    for (int s = 0; s < S; ++s) {
      Time w = Time::max();
      for (int p = 0; p < S; ++p)
        if (p != s)
          w = std::min(w, sat_add(prev[static_cast<std::size_t>(p)],
                                  eff(p, s)));
      w = std::min(w, deadline);
      row[static_cast<std::size_t>(s)] = w;
      if (w > prev[static_cast<std::size_t>(s)]) moved = true;
    }
    if (j > 1 && !moved) break;
    std::copy(row.begin(), row.end(),
              out.ends.begin() + static_cast<std::ptrdiff_t>(j - 1) * S);
    out.length = j;
    prev = row;
  }
}

enum class Shape { Uniform, Framed, Jittered };

/// A seeded random fabric of the given shape (2..13 shards).
PairLookahead random_fabric(Shape shape, std::mt19937_64& rng) {
  const auto pick = [&rng](std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
  };
  switch (shape) {
    case Shape::Uniform:
      return PairLookahead::uniform(static_cast<int>(pick(2, 13)),
                                    Duration::ns(pick(1, 50'000)));
    case Shape::Framed: {
      pasched::net::FabricConfig cfg;
      cfg.inter_node_latency = Duration::ns(pick(2'000, 40'000));
      cfg.frame_size = static_cast<int>(pick(1, 4));
      cfg.inter_frame_extra = Duration::ns(pick(1, 60'000));
      return pasched::net::pair_lookahead(cfg, static_cast<int>(pick(2, 12)));
    }
    case Shape::Jittered: {
      const int S = static_cast<int>(pick(2, 13));
      PairLookahead la = PairLookahead::uniform(S, Duration::ns(1));
      Duration floor = Duration::max();
      for (int a = 0; a < S; ++a)
        for (int b = 0; b < S; ++b)
          if (a != b) {
            la.set(a, b, Duration::ns(pick(1'000, 80'000)));
            floor = std::min(floor, la.at(a, b));
          }
      la.global = floor;  // the matrix minimum, as the planner requires
      return la;
    }
  }
  return {};
}

/// Published next-event times around `base`: each shard busy within three
/// global bounds of it, or idle (Time::max()) one time in five.
std::vector<Time> random_next_t(const PairLookahead& la, Time base,
                                std::mt19937_64& rng) {
  std::uniform_int_distribution<std::int64_t> off(0, 3 * la.global.count());
  std::uniform_int_distribution<int> idle(0, 4);
  std::vector<Time> next_t(static_cast<std::size_t>(la.shards));
  for (Time& t : next_t)
    t = idle(rng) == 0 ? Time::max() : base + Duration::ns(off(rng));
  return next_t;
}

void expect_same_plan(const RoundPlan& want, const RoundPlan& got,
                      const std::string& where) {
  ASSERT_EQ(want.final, got.final) << where;
  ASSERT_EQ(want.length, got.length) << where;
  ASSERT_EQ(want.shards, got.shards) << where;
  for (int j = 1; j <= want.length; ++j)
    for (int s = 0; s < want.shards; ++s)
      ASSERT_EQ(want.end_of(j, s), got.end_of(j, s))
          << where << " window " << j << " shard " << s;
}

TEST(Planner, ClosurePlannerMatchesTheDenseReferenceOnRandomFabrics) {
  // Every shape, both modes, several batches, every fuzzer quantum k/8 plus
  // the full bound, and deadlines far away, within a few bounds (the chain
  // clamps) and within one bound of t0 (the final gate). One planner per
  // fabric serves all its calls, so its per-quantum cache is exercised
  // with hits as well as fills.
  std::mt19937_64 rng(20031115);
  int checked = 0;
  for (const Shape shape : {Shape::Uniform, Shape::Framed, Shape::Jittered})
    for (int trial = 0; trial < 60; ++trial) {
      const PairLookahead la = random_fabric(shape, rng);
      for (const PlannerMode mode : {PlannerMode::PerPair, PlannerMode::Global})
        for (const int batch : {1, 3, 8}) {
          WindowPlanner planner(la, mode, batch);
          for (int round = 0; round < 6; ++round) {
            const Time base = Time::from_ns(
                std::uniform_int_distribution<std::int64_t>(
                    0, 1'000'000'000)(rng));
            const std::vector<Time> next_t = random_next_t(la, base, rng);
            const Time t0 = *std::min_element(next_t.begin(), next_t.end());
            const Time anchor = t0 == Time::max() ? base : t0;
            const std::int64_t L = la.global.count();
            std::vector<Time> deadlines = {
                anchor + Duration::sec(1),
                anchor + Duration::ns(std::uniform_int_distribution<
                                      std::int64_t>(L, 4 * L)(rng)),
                anchor + Duration::ns(std::uniform_int_distribution<
                                      std::int64_t>(0, L)(rng))};
            for (const Time deadline : deadlines)
              for (std::int64_t k = 1; k <= 9; ++k) {
                // k == 9 is the unperturbed 1/1 quantum.
                const std::int64_t num = k == 9 ? 1 : k;
                const std::int64_t den = k == 9 ? 1 : 8;
                RoundPlan want;
                RoundPlan got;
                reference_plan(la, mode, batch, next_t, deadline, num, den,
                               want);
                planner.plan(next_t, deadline, num, den, got);
                expect_same_plan(
                    want, got,
                    "shape " + std::to_string(static_cast<int>(shape)) +
                        " trial " + std::to_string(trial) + " quantum " +
                        std::to_string(num) + "/" + std::to_string(den));
                ++checked;
              }
          }
        }
    }
  EXPECT_EQ(checked, 3 * 60 * 2 * 3 * 6 * 3 * 9);
}

TEST(Planner, QuantumCacheEvictionKeepsPlansExact) {
  // More distinct quanta than the planner caches: plans must stay exact
  // when bounds for an evicted quantum are rebuilt.
  std::mt19937_64 rng(7);
  const PairLookahead la = random_fabric(Shape::Jittered, rng);
  WindowPlanner planner(la, PlannerMode::PerPair, 8);
  const std::vector<Time> next_t =
      random_next_t(la, Time::from_ns(5'000'000), rng);
  for (int pass = 0; pass < 2; ++pass)
    for (std::int64_t den = 2; den <= 9; ++den)
      for (std::int64_t num = 1; num <= den; ++num) {
        RoundPlan want;
        RoundPlan got;
        reference_plan(la, PlannerMode::PerPair, 8, next_t,
                       Time::from_ns(9'000'000), num, den, want);
        planner.plan(next_t, Time::from_ns(9'000'000), num, den, got);
        expect_same_plan(want, got,
                         std::to_string(num) + "/" + std::to_string(den));
      }
}

}  // namespace
