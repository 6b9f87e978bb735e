#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/choice.hpp"
#include "sim/engine.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

using namespace pasched::sim;
using namespace pasched::sim::literals;

TEST(Time, ArithmeticAndComparison) {
  const Time t0 = Time::zero();
  const Time t1 = t0 + 5_ms;
  EXPECT_EQ((t1 - t0).count(), 5'000'000);
  EXPECT_LT(t0, t1);
  EXPECT_EQ(Duration::us(2) * 3, 6_us);
  EXPECT_EQ(10_ms / 4_ms, 2);
  EXPECT_EQ((10_ms % 4_ms).count(), Duration::ms(2).count());
  EXPECT_NEAR(Duration::from_seconds(1.5).to_ms(), 1500.0, 1e-9);
}

TEST(Time, AlignUp) {
  const Time t = Time::from_ns(10'500'000);  // 10.5 ms
  EXPECT_EQ(t.align_up(10_ms).count(), 20'000'000);
  EXPECT_EQ(t.align_up(10_ms, 1_ms).count(), 11'000'000);
  // Already on the boundary stays put.
  EXPECT_EQ(Time::from_ns(20'000'000).align_up(10_ms).count(), 20'000'000);
  // Phase larger than period is reduced mod period.
  EXPECT_EQ(t.align_up(10_ms, 21_ms).count(), 11'000'000);
}

TEST(Engine, FiresInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(Time::zero() + 30_us, [&] { order.push_back(3); });
  e.schedule_at(Time::zero() + 10_us, [&] { order.push_back(1); });
  e.schedule_at(Time::zero() + 20_us, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.events_processed(), 3u);
}

TEST(Engine, SameTimestampIsFifo) {
  Engine e;
  std::vector<int> order;
  const Time t = Time::zero() + 5_us;
  for (int i = 0; i < 10; ++i)
    e.schedule_at(t, [&order, i] { order.push_back(i); });
  e.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Engine, CancelPreventsFiring) {
  Engine e;
  int fired = 0;
  const EventId id = e.schedule_at(Time::zero() + 1_ms, [&] { ++fired; });
  EXPECT_TRUE(e.pending(id));
  e.cancel(id);
  EXPECT_FALSE(e.pending(id));
  e.cancel(id);  // double-cancel is a no-op
  e.run();
  EXPECT_EQ(fired, 0);
}

TEST(Engine, CancelFromInsideHandler) {
  Engine e;
  int fired = 0;
  EventId victim = e.schedule_at(Time::zero() + 2_ms, [&] { ++fired; });
  e.schedule_at(Time::zero() + 1_ms, [&] { e.cancel(victim); });
  e.run();
  EXPECT_EQ(fired, 0);
}

TEST(Engine, HandlerMayScheduleMore) {
  Engine e;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) e.schedule_after(1_us, [&] { chain(); });
  };
  e.schedule_after(1_us, [&] { chain(); });
  e.run();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(e.now().count(), 5'000);
}

TEST(Engine, RunUntilAdvancesClockToDeadline) {
  Engine e;
  int fired = 0;
  e.schedule_at(Time::zero() + 10_ms, [&] { ++fired; });
  EXPECT_TRUE(e.run_until(Time::zero() + 5_ms));
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(e.now().count(), Duration::ms(5).count());
  EXPECT_TRUE(e.run_until(Time::zero() + 20_ms));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(e.now().count(), Duration::ms(20).count());
}

TEST(Engine, StopInterruptsRun) {
  Engine e;
  int fired = 0;
  for (int i = 1; i <= 10; ++i)
    e.schedule_at(Time::zero() + Duration::us(i), [&] {
      if (++fired == 3) e.stop();
    });
  e.run();
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(e.events_pending(), 7u);
}

TEST(Engine, SchedulingInPastThrows) {
  Engine e;
  e.schedule_at(Time::zero() + 1_ms, [] {});
  e.run();
  EXPECT_THROW(e.schedule_at(Time::zero(), [] {}), std::logic_error);
}

TEST(Engine, SlotReuseDoesNotConfuseCancellation) {
  Engine e;
  int fired_a = 0, fired_b = 0;
  const EventId a = e.schedule_at(Time::zero() + 1_us, [&] { ++fired_a; });
  e.run();
  // Slot of `a` is free now; b likely reuses it.
  const EventId b = e.schedule_at(Time::zero() + 2_us, [&] { ++fired_b; });
  e.cancel(a);  // stale id must not cancel b
  e.run();
  EXPECT_EQ(fired_a, 1);
  EXPECT_EQ(fired_b, 1);
  (void)b;
}

// -- indexed-heap cancellation & slab growth ----------------------------------
// cancel() is a targeted O(log n) heap removal (Slot::heap_pos backlink),
// not a tombstone: the heap never carries stale entries, so pop cost stays
// O(log live) no matter how many cancellations preceded it.

TEST(Engine, CancelRemovesItsHeapEntryImmediately) {
  Engine e;
  int fired = 0;
  std::vector<EventId> ids;
  for (int i = 0; i < 1024; ++i)
    ids.push_back(e.schedule_at(Time::zero() + Duration::us(i + 1),
                                [&] { ++fired; }));
  // Cancel everything but one: a tombstoning engine would keep 1024 heap
  // entries for the next pop to wade through; the indexed heap keeps 1.
  for (int i = 0; i < 1023; ++i) e.cancel(ids[static_cast<size_t>(i)]);
  EXPECT_EQ(e.events_pending(), 1u);
  EXPECT_EQ(e.queue_footprint(), 1u);
  e.check_consistent();
  e.run();
  EXPECT_EQ(fired, 1);
}

TEST(Engine, FootprintEqualsPendingAfterInterleavedCancels) {
  Engine e;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 500; ++i)
    ids.push_back(e.schedule_at(Time::zero() + Duration::us(i + 1),
                                [&order, i] { order.push_back(i); }));
  for (int i = 0; i < 500; i += 2) e.cancel(ids[static_cast<size_t>(i)]);
  EXPECT_EQ(e.events_pending(), 250u);
  EXPECT_EQ(e.queue_footprint(), e.events_pending());
  e.check_consistent();
  e.run();
  ASSERT_EQ(order.size(), 250u);
  for (std::size_t k = 0; k < order.size(); ++k)
    EXPECT_EQ(order[k], static_cast<int>(2 * k + 1));
}

TEST(Engine, SlabGrowthPreservesFifoAcrossChunks) {
  // 300 same-timestamp events force several slab growths (64, then
  // doubling) mid-scheduling; FIFO order must survive the chunked free
  // list exactly as it did the legacy one-slot-at-a-time growth.
  Engine e;
  std::vector<int> order;
  const Time t = Time::zero() + 5_us;
  for (int i = 0; i < 300; ++i)
    e.schedule_at(t, [&order, i] { order.push_back(i); });
  e.check_consistent();
  e.run();
  ASSERT_EQ(order.size(), 300u);
  for (int i = 0; i < 300; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Engine, DrainReleasesEverySlotAndHeapEntry) {
  Engine e;
  std::vector<EventId> ids;
  for (int i = 0; i < 100; ++i)
    ids.push_back(e.schedule_at(Time::zero() + Duration::us(i + 1), [] {}));
  for (int i = 0; i < 100; i += 3) e.cancel(ids[static_cast<size_t>(i)]);
  e.drain();
  EXPECT_EQ(e.events_pending(), 0u);
  EXPECT_EQ(e.queue_footprint(), 0u);
  e.check_consistent();
  // The slab is intact and reusable after teardown.
  int fired = 0;
  e.schedule_at(Time::zero() + 1_ms, [&] { ++fired; });
  e.run();
  EXPECT_EQ(fired, 1);
}

TEST(Engine, PendingHashUnaffectedByCancelledHistory) {
  // The model checker's visited-set digest must see through cancellation:
  // a schedule+cancel detour converges to the same pending set, so two
  // engines with identical live events hash equal regardless of history.
  Engine a;
  a.schedule_at(Time::zero() + 10_us, [] {});
  a.schedule_at(Time::zero() + 20_us, [] {});

  Engine b;
  const EventId detour = b.schedule_at(Time::zero() + 99_us, [] {});
  b.schedule_at(Time::zero() + 10_us, [] {});
  b.cancel(detour);
  b.schedule_at(Time::zero() + 20_us, [] {});

  EXPECT_EQ(a.pending_hash(), b.pending_hash());
}

// -- differential test against a reference (t, seq) model --------------------
// A seeded random mix of schedule_at / cancel / run_until / run_before drives
// the engine and a std::set<(t, seq)> model side by side. Every handler
// checks that it is the model's minimum before acting, so the fire order is
// compared event by event; handlers schedule 0, 1 or 2 events (sometimes at
// now()), cancel another pending event, or throw. check_consistent() runs
// after every step and, at random, from inside handlers — where the fired
// entry may still sit at the root awaiting its handler's first schedule.

namespace {

class DiffHarness {
 public:
  DiffHarness(std::uint64_t seed, TieBreak* tb) : rng_(seed) {
    engine_.set_tie_break(tb);
  }

  void run(int steps) {
    for (int i = 0; i < steps; ++i) {
      step();
      engine_.check_consistent();
      ASSERT_EQ(engine_.events_pending(), model_.size());
      ASSERT_EQ(engine_.queue_footprint(), model_.size());
      const Time want =
          model_.empty() ? Time::max() : Time::from_ns(model_.begin()->first);
      ASSERT_EQ(engine_.next_event_time(), want);
      if (::testing::Test::HasFatalFailure()) return;
    }
    // Drain: everything left fires in model order.
    while (!model_.empty()) {
      try {
        engine_.run();
      } catch (const std::runtime_error&) {
        ++thrown_;
      }
      engine_.check_consistent();
      if (::testing::Test::HasFatalFailure()) return;
    }
    EXPECT_EQ(engine_.events_pending(), 0u);
  }

  [[nodiscard]] const std::vector<std::uint64_t>& fired() const {
    return fired_;
  }
  // How often each handler behaviour ran: 0, 1, 2 schedules, at-now
  // schedules, cancels of another pending event, throws.
  std::uint64_t counts[6] = {};
  std::uint64_t thrown_ = 0;

 private:
  using Key = std::pair<std::int64_t, std::uint64_t>;  // (t ns, seq)

  void schedule(Duration delta) {
    const Time t = engine_.now() + delta;
    const Key key{t.count(), next_seq_++};
    const EventId id = engine_.schedule_at(t, [this, key] { fire(key); });
    model_.insert(key);
    live_.emplace_back(id, key);
    ever_.push_back(id);
  }

  Duration draw_delta() {
    // A coarse grid so same-timestamp ties are frequent; 1 in 4 at now().
    if (rng_.uniform_int(0, 3) == 0) return Duration::zero();
    return Duration::us(rng_.uniform_int(1, 20));
  }

  void cancel_random_live() {
    prune_live();
    if (live_.empty()) return;
    const auto k = static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(live_.size()) - 1));
    const auto [id, key] = live_[k];
    engine_.cancel(id);
    model_.erase(key);
    live_[k] = live_.back();
    live_.pop_back();
  }

  void prune_live() {
    std::erase_if(live_, [this](const auto& e) { return !model_.contains(e.second); });
  }

  void fire(Key key) {
    ASSERT_FALSE(model_.empty());
    ASSERT_EQ(*model_.begin(), key) << "engine fired out of (t, seq) order";
    ASSERT_EQ(engine_.now().count(), key.first);
    model_.erase(model_.begin());
    fired_.push_back(key.second);
    if (rng_.uniform_int(0, 7) == 0) engine_.check_consistent();
    switch (rng_.uniform_int(0, 5)) {
      case 0:
        ++counts[0];
        break;
      case 1:
        ++counts[1];
        schedule(draw_delta());
        break;
      case 2:
        ++counts[2];
        schedule(draw_delta());
        schedule(draw_delta());
        break;
      case 3:
        ++counts[3];
        schedule(Duration::zero());
        break;
      case 4:
        ++counts[4];
        cancel_random_live();
        if (rng_.uniform_int(0, 1) == 0) schedule(draw_delta());
        break;
      default:
        ++counts[5];
        // Throw with the root still vacant, or after re-arming it.
        if (rng_.uniform_int(0, 1) == 0) schedule(draw_delta());
        if (rng_.uniform_int(0, 7) == 0) engine_.check_consistent();
        throw std::runtime_error("handler failure");
    }
    if (rng_.uniform_int(0, 7) == 0) engine_.check_consistent();
  }

  void step() {
    const auto op = rng_.uniform_int(0, 9);
    try {
      if (op < 4) {
        schedule(draw_delta());
      } else if (op < 6) {
        if (!ever_.empty() && rng_.uniform_int(0, 3) == 0) {
          // A possibly stale id: fired or cancelled ones must be no-ops.
          const auto k = static_cast<std::size_t>(rng_.uniform_int(
              0, static_cast<std::int64_t>(ever_.size()) - 1));
          const EventId id = ever_[k];
          const bool was_pending = engine_.pending(id);
          engine_.cancel(id);
          if (was_pending) {
            for (const auto& [lid, key] : live_)
              if (lid == id) model_.erase(key);
            prune_live();
          }
        } else {
          cancel_random_live();
        }
      } else if (op < 8) {
        const Time deadline = engine_.now() + Duration::us(rng_.uniform_int(0, 30));
        EXPECT_TRUE(engine_.run_until(deadline));
        EXPECT_EQ(engine_.now(), deadline);
        EXPECT_TRUE(model_.empty() || model_.begin()->first > deadline.count());
      } else {
        const Time end = engine_.now() + Duration::us(rng_.uniform_int(0, 30));
        engine_.run_before(end);
        EXPECT_EQ(engine_.now(), end);
        EXPECT_TRUE(model_.empty() || model_.begin()->first >= end.count());
      }
    } catch (const std::runtime_error&) {
      ++thrown_;  // a throwing handler interrupted the run: state is intact
    }
  }

  Engine engine_;
  Rng rng_;
  std::set<Key> model_;
  std::vector<std::pair<EventId, Key>> live_;
  std::vector<EventId> ever_;
  std::vector<std::uint64_t> fired_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace

TEST(EngineDifferential, MatchesReferenceModelUnderRandomMix) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 20031115ULL}) {
    SCOPED_TRACE(seed);
    DiffHarness h(seed, nullptr);
    h.run(4000);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    for (const std::uint64_t c : h.counts) EXPECT_GT(c, 0u);
    EXPECT_GT(h.thrown_, 0u);
    EXPECT_GT(h.fired().size(), 1000u);
  }
}

TEST(EngineDifferential, FifoTieBreakGivesTheSameOrder) {
  for (const std::uint64_t seed : {1ULL, 7ULL}) {
    SCOPED_TRACE(seed);
    DiffHarness plain(seed, nullptr);
    plain.run(3000);
    FifoTieBreak fifo;
    DiffHarness tied(seed, &fifo);
    tied.run(3000);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    EXPECT_EQ(plain.fired(), tied.fired());
  }
}

TEST(Engine, ThrowingHandlerLeavesEngineConsistent) {
  Engine e;
  int fired = 0;
  e.schedule_at(Time::zero() + 1_us, [] { throw std::runtime_error("boom"); });
  e.schedule_at(Time::zero() + 2_us, [&] { ++fired; });
  EXPECT_THROW(e.run(), std::runtime_error);
  e.check_consistent();
  EXPECT_EQ(e.events_pending(), 1u);
  EXPECT_EQ(e.queue_footprint(), 1u);
  EXPECT_EQ(e.next_event_time().count(), 2'000);
  e.run();
  EXPECT_EQ(fired, 1);
}

TEST(Engine, ReArmFromHandlerReusesTheRoot) {
  // A handler that re-arms itself (the kernel's burst pattern) keeps the
  // queue depth constant and fires in (t, seq) order among its peers.
  Engine e;
  std::vector<int> order;
  std::function<void(int, int)> arm = [&](int who, int left) {
    e.schedule_after(Duration::us(who + 1), [&, who, left] {
      order.push_back(who);
      if (left > 0) arm(who, left - 1);
      EXPECT_EQ(e.queue_footprint(), e.events_pending());
    });
  };
  for (int w = 0; w < 3; ++w) arm(w, 3);
  e.run();
  // Fire times: w0 at 1,2,3,4; w1 at 2,4,6,8; w2 at 3,6,9,12 (us). Ties
  // break by scheduling order: at 2 us w1's event (scheduled at setup)
  // precedes the one w0 re-armed at 1 us, and so on.
  EXPECT_EQ(order, (std::vector<int>{0, 1, 0, 2, 0, 1, 0, 2, 1, 1, 2, 2}));
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, ForkIndependentOfParentConsumption) {
  Rng a(7);
  Rng child1 = a.fork(3);
  (void)a.next_u64();
  (void)a.next_u64();
  Rng a2(7);
  Rng child2 = a2.fork(3);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(child1.next_u64(), child2.next_u64());
}

TEST(Rng, UniformBounds) {
  Rng r(1);
  for (int i = 0; i < 1000; ++i) {
    const double x = r.uniform(2.0, 3.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 3.0);
    const auto k = r.uniform_int(-5, 5);
    EXPECT_GE(k, -5);
    EXPECT_LE(k, 5);
  }
}

TEST(Rng, ExponentialMean) {
  Rng r(9);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += r.exponential(3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.05);
}

TEST(Rng, NormalMoments) {
  Rng r(11);
  double sum = 0, sq = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = r.normal(10.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  EXPECT_NEAR(mean, 10.0, 0.03);
  EXPECT_NEAR(sq / n - mean * mean, 4.0, 0.1);
}

TEST(Rng, LognormalMedian) {
  Rng r(13);
  std::vector<double> xs;
  for (int i = 0; i < 20001; ++i) xs.push_back(r.lognormal_med(5.0, 0.5));
  std::sort(xs.begin(), xs.end());
  EXPECT_NEAR(xs[10000], 5.0, 0.15);
}

TEST(Rng, JitteredStaysWithinBand) {
  Rng r(17);
  for (int i = 0; i < 1000; ++i) {
    const Duration d = r.jittered(Duration::ms(10), 0.2);
    EXPECT_GE(d.count(), 8'000'000);
    EXPECT_LE(d.count(), 12'000'000);
  }
}
