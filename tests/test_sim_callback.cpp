// InlineCallback: the no-allocation callable used for every event.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/callback.hpp"
#include "sim/engine.hpp"

using pasched::sim::Duration;
using pasched::sim::Engine;
using pasched::sim::EventId;
using pasched::sim::InlineCallback;
using pasched::sim::Time;
using namespace pasched::sim::literals;

TEST(InlineCallback, EmptyByDefault) {
  InlineCallback<48> cb;
  EXPECT_FALSE(static_cast<bool>(cb));
  EXPECT_THROW(cb(), std::logic_error);
}

TEST(InlineCallback, InvokesLambda) {
  int hits = 0;
  InlineCallback<48> cb = [&hits] { ++hits; };
  ASSERT_TRUE(static_cast<bool>(cb));
  cb();
  cb();
  EXPECT_EQ(hits, 2);
}

TEST(InlineCallback, MoveTransfersOwnership) {
  int hits = 0;
  InlineCallback<48> a = [&hits] { ++hits; };
  InlineCallback<48> b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(hits, 1);
}

TEST(InlineCallback, MoveAssignReplacesAndDestroysOld) {
  auto counter = std::make_shared<int>(0);
  EXPECT_EQ(counter.use_count(), 1);
  {
    InlineCallback<48> a = [counter] { ++*counter; };
    EXPECT_EQ(counter.use_count(), 2);
    InlineCallback<48> b = [counter] { *counter += 10; };
    EXPECT_EQ(counter.use_count(), 3);
    a = std::move(b);
    EXPECT_EQ(counter.use_count(), 2) << "old capture must be destroyed";
    a();
    EXPECT_EQ(*counter, 10);
  }
  EXPECT_EQ(counter.use_count(), 1) << "all captures destroyed with wrappers";
}

TEST(InlineCallback, DestructorReleasesCapture) {
  auto token = std::make_shared<int>(7);
  {
    InlineCallback<48> cb = [token] { (void)*token; };
    EXPECT_EQ(token.use_count(), 2);
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(InlineCallback, ResetClears) {
  auto token = std::make_shared<int>(7);
  InlineCallback<48> cb = [token] {};
  cb.reset();
  EXPECT_FALSE(static_cast<bool>(cb));
  EXPECT_EQ(token.use_count(), 1);
}

TEST(InlineCallback, SelfMoveAssignIsSafe) {
  int hits = 0;
  InlineCallback<48> a = [&hits] { ++hits; };
  auto& ref = a;
  a = std::move(ref);
  ASSERT_TRUE(static_cast<bool>(a));
  a();
  EXPECT_EQ(hits, 1);
}

TEST(InlineCallback, CapturesUpToCapacity) {
  struct Big {
    std::int64_t a[5];  // 40 bytes — fits in 48
  };
  Big big{{1, 2, 3, 4, 5}};
  std::int64_t sum = 0;
  // sum pointer (8) + Big (40) = 48 bytes: exactly at capacity.
  std::int64_t* sp = &sum;
  InlineCallback<48> cb = [sp, big] {
    for (auto v : big.a) *sp += v;
  };
  cb();
  EXPECT_EQ(sum, 15);
}

// -- relocation through the engine --------------------------------------------
// Trivially copyable captures relocate by memcpy; everything else keeps a
// move-and-destroy relocation. Both must survive the engine moving
// callbacks into slots, across slab growth, and out again to fire.

TEST(InlineCallback, TriviallyCopyableCapturesSurviveEngineMoves) {
  Engine e;
  std::vector<std::int64_t> seen;
  // 300 events force several slab growths while every callback is parked.
  for (std::int64_t i = 0; i < 300; ++i) {
    const std::int64_t a[4] = {i, i * 3, i * 7, -i};
    std::vector<std::int64_t>* out = &seen;
    e.schedule_at(Time::zero() + Duration::us(300 - i), [out, a] {
      out->push_back(a[0]);
      EXPECT_EQ(a[1], a[0] * 3);
      EXPECT_EQ(a[2], a[0] * 7);
      EXPECT_EQ(a[3], -a[0]);
    });
  }
  e.run();
  ASSERT_EQ(seen.size(), 300u);
  for (std::size_t k = 0; k < seen.size(); ++k)
    EXPECT_EQ(seen[k], static_cast<std::int64_t>(299 - k));
}

namespace {
// Counts destructions of live (not moved-from) instances.
struct DestroyCounter {
  int* destroyed;
  int* calls;
  bool live = true;
  DestroyCounter(int* d, int* c) : destroyed(d), calls(c) {}
  DestroyCounter(DestroyCounter&& o) noexcept
      : destroyed(o.destroyed), calls(o.calls), live(o.live) {
    o.live = false;
  }
  DestroyCounter(const DestroyCounter&) = delete;
  DestroyCounter& operator=(const DestroyCounter&) = delete;
  DestroyCounter& operator=(DestroyCounter&&) = delete;
  ~DestroyCounter() {
    if (live) ++*destroyed;
  }
  void operator()() const { ++*calls; }
};
static_assert(!std::is_trivially_copyable_v<DestroyCounter>);
}  // namespace

TEST(InlineCallback, NonTrivialCapturesAreDestroyedExactlyOnce) {
  int destroyed = 0;
  int calls = 0;
  {
    Engine e;
    std::vector<EventId> ids;
    for (int i = 0; i < 200; ++i)
      ids.push_back(e.schedule_at(Time::zero() + Duration::us(i + 1),
                                  DestroyCounter(&destroyed, &calls)));
    for (int i = 0; i < 200; i += 4) e.cancel(ids[static_cast<size_t>(i)]);
    EXPECT_EQ(destroyed, 50);  // cancelled callbacks die at cancel()
    e.run_until(Time::zero() + Duration::us(100));
    EXPECT_EQ(calls, 75);
    EXPECT_EQ(destroyed, 50 + 75);
    e.drain();
    EXPECT_EQ(destroyed, 200);
    e.schedule_at(e.now() + 1_us, DestroyCounter(&destroyed, &calls));
  }  // the engine's destructor releases the one still pending
  EXPECT_EQ(destroyed, 201);
  EXPECT_EQ(calls, 75);
}
