#include "sim/engine.hpp"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "check/check.hpp"
#include "sim/random.hpp"
#include "util/allocgate.hpp"
#include "util/assert.hpp"
#include "util/hotpath.hpp"

namespace pasched::sim {

void Engine::grow_slab() {
  // Sanctioned amortized growth: every buffer the hot path pushes into is
  // (re)sized here, inside a cold allocation region, so the per-event code
  // never reallocates. free_/heap_/scratch capacities track the slot count
  // — one heap entry and one free-list entry per slot is the worst case
  // (a vacant root only exists while its slot is back on the free list).
  PASCHED_ALLOC_COLD_REGION();
  const std::size_t old = slots_.size();
  const std::size_t add = old == 0 ? 64 : old;  // one chunk, then doubling
  slots_.resize(old + add);
  heap_pos_.resize(slots_.size(), kNoHeapPos);
  free_.reserve(slots_.size());
  heap_.reserve(slots_.size());
  tied_scratch_.reserve(slots_.size());
  cands_scratch_.reserve(slots_.size());
  // New indices go on the free list high-to-low so back() hands out the
  // lowest index first — the same slot-assignment order the old
  // emplace_back-per-event scheme produced.
  for (std::size_t i = slots_.size(); i-- > old;)
    free_.push_back(static_cast<std::uint32_t>(i));
}

void Engine::grow_fire_log() {
  PASCHED_ALLOC_COLD_REGION();
  fire_log_.reserve(fire_log_.capacity() == 0 ? 1024
                                              : fire_log_.capacity() * 2);
}

PASCHED_HOT void Engine::sift_up(std::size_t hole,
                                 const HeapItem& item) noexcept {
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / kArity;
    if (!heap_before(item, heap_[parent])) break;
    heap_place(hole, heap_[parent]);
    hole = parent;
  }
  heap_place(hole, item);
}

PASCHED_HOT void Engine::sift_down(std::size_t hole,
                                   const HeapItem& item) noexcept {
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = kArity * hole + 1;
    if (first >= n) break;
    const std::size_t end = std::min(first + kArity, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < end; ++c)
      if (heap_before(heap_[c], heap_[best])) best = c;
    if (!heap_before(heap_[best], item)) break;
    heap_place(hole, heap_[best]);
    hole = best;
  }
  heap_place(hole, item);
}

PASCHED_HOT void Engine::heap_push(const HeapItem& item) noexcept {
  heap_.push_back(item);  // never reallocates: capacity from grow_slab()
  sift_up(heap_.size() - 1, item);
}

PASCHED_HOT void Engine::heap_remove_at(std::size_t pos) noexcept {
  PASCHED_ASSERT(pos < heap_.size());
  heap_pos_[heap_[pos].slot] = kNoHeapPos;
  const HeapItem last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;
  // The last entry refills the hole; it can violate the heap property in
  // at most one direction. A vacant root never moves: its key is below
  // every entry, so sift_up stops beneath it.
  if (pos > 0 && heap_before(last, heap_[(pos - 1) / kArity]))
    sift_up(pos, last);
  else
    sift_down(pos, last);
}

PASCHED_HOT void Engine::remove_vacant_root() noexcept {
  root_vacant_ = false;
  const HeapItem last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0, last);
}

PASCHED_HOT const Engine::HeapItem* Engine::peek() noexcept {
  if (root_vacant_) remove_vacant_root();
  if (heap_.empty()) return nullptr;
  const HeapItem& top = heap_.front();
  // Indexed removal leaves no stale entries; a dead root means the heap
  // and the slot table disagree.
  PASCHED_CHECK_MSG(slots_[top.slot].gen == top.gen && slots_[top.slot].armed,
                    "stale heap entry at the root");
  return &top;
}

PASCHED_HOT std::uint32_t Engine::acquire_slot() {
  if (free_.empty()) grow_slab();
  const std::uint32_t idx = free_.back();
  free_.pop_back();
  PASCHED_CHECK_MSG(!slots_[idx].armed && !slots_[idx].fn,
                    "free-list slot still armed or holding a callback");
  return idx;
}

PASCHED_HOT void Engine::release_slot(std::uint32_t idx) noexcept {
  Slot& s = slots_[idx];
  s.fn.reset();
  ++s.gen;  // invalidate any outstanding EventIds
  s.armed = false;
  s.held = false;
  heap_pos_[idx] = kNoHeapPos;
  free_.push_back(idx);  // never reallocates: capacity from grow_slab()
}

PASCHED_HOT EventId Engine::schedule_at(Time t, Callback fn) {
  PASCHED_ALLOC_HOT_SCOPE("Engine::schedule_at");
  PASCHED_EXPECTS_MSG(t >= now_, "cannot schedule an event in the past");
  const std::uint32_t idx = acquire_slot();
  Slot& s = slots_[idx];
  s.fn = std::move(fn);
  s.armed = true;
  const HeapItem item{t, seq_++, idx, s.gen};
  if (root_vacant_) {
    // Fire-and-re-arm: any key may replace the root; one sift restores
    // the heap.
    root_vacant_ = false;
    sift_down(0, item);
  } else {
    heap_push(item);
  }
  ++live_;
  return EventId{idx, s.gen};
}

PASCHED_HOT void Engine::cancel(EventId id) {
  PASCHED_ALLOC_HOT_SCOPE("Engine::cancel");
  if (!id.valid() || id.slot >= slots_.size()) return;
  Slot& s = slots_[id.slot];
  if (s.gen != id.gen || !s.armed) return;  // already fired / cancelled
  // A held slot is mid-TieBreak::pick(): its heap entry is already popped,
  // so a cancel here would be silently undone when the candidate is
  // re-queued (or worse, fired). Surface the bug instead of losing it.
  PASCHED_CHECK_MSG(!s.held,
                    "cancel() of an event held by TieBreak::pick() — the "
                    "cancellation would be lost");
  if (s.held) return;  // validation off: refuse to corrupt the heap
  // Lazy at the slot layer (the generation bump already invalidates the
  // EventId), eager at the heap layer: the position backlink makes the
  // removal a targeted O(log n) fix-up, so no stale entries accumulate and
  // no compaction pass exists.
  heap_remove_at(heap_pos_[id.slot]);
  --live_;
  release_slot(id.slot);
}

bool Engine::pending(EventId id) const noexcept {
  if (!id.valid() || id.slot >= slots_.size()) return false;
  const Slot& s = slots_[id.slot];
  return s.gen == id.gen && s.armed;
}

PASCHED_HOT void Engine::fire_item(const HeapItem& item) {
  Slot& s = slots_[item.slot];
  PASCHED_CHECK_MSG(static_cast<bool>(s.fn),
                    "armed slot has no callback to fire");
  last_fired_t_ = item.t;
  last_fired_seq_ = item.seq;
  advance_clock(item.t);
  if (fire_log_armed_) {
    if (fire_log_.size() == fire_log_.capacity()) grow_fire_log();
    fire_log_.push_back(item.t);
  }
  // Move the callback out before releasing so the handler can freely
  // schedule/cancel (including reusing this very slot).
  Callback fn = std::move(s.fn);
  --live_;
  release_slot(item.slot);
  ++processed_;
  {
    // Handler code is the workload's, not the engine's: its allocations
    // are charged to the dispatch row, never against an engine claim.
    PASCHED_ALLOC_DISPATCH_SCOPE("Engine.callback");
    fn();
  }
}

PASCHED_HOT bool Engine::fire_next() {
  const HeapItem* top = peek();
  if (top == nullptr) return false;
  fire_root(*top);
  return true;
}

PASCHED_HOT void Engine::fire_root(const HeapItem& top) {
  PASCHED_ASSERT(top.t >= now_);
  if (tie_break_ != nullptr) return fire_tied();
  // Causality: pops must come off the heap in strictly increasing (t, seq)
  // order — a regression here reorders same-timestamp events and silently
  // breaks the engine's FIFO tie-break guarantee. (With a TieBreak
  // installed same-t reordering is intentional; fire_tied() checks only
  // time monotonicity.)
  PASCHED_CHECK_MSG(
      top.t > last_fired_t_ ||
          (top.t == last_fired_t_ && top.seq > last_fired_seq_),
      "event fired out of (t, seq) order");
  // The root stays in place as a vacant entry while its handler runs (see
  // root_vacant_); whatever the handler leaves unfilled is removed on the
  // way out, also when it throws.
  struct VacancyGuard {
    Engine& e;
    ~VacancyGuard() {
      if (e.root_vacant_) e.remove_vacant_root();
    }
  };
  const HeapItem item = top;
  root_vacant_ = true;
  const VacancyGuard guard{*this};
  fire_item(item);
}

PASCHED_HOT void Engine::fire_tied() {
  // Precondition: heap top is live. Drain every entry tied at the minimum
  // timestamp; indexed pops deliver them in increasing seq order.
  const Time t0 = heap_.front().t;
  tied_scratch_.clear();
  while (!heap_.empty() && heap_.front().t == t0) {
    tied_scratch_.push_back(heap_.front());  // capacity from grow_slab()
    heap_remove_at(0);
  }
  std::size_t choice = 0;
  if (tied_scratch_.size() > 1) {
    cands_scratch_.clear();
    for (const HeapItem& h : tied_scratch_) {
      slots_[h.slot].held = true;
      cands_scratch_.push_back(TieCandidate{EventId{h.slot, h.gen}, h.seq});
    }
    choice = tie_break_->pick(cands_scratch_);
    PASCHED_CHECK_ALWAYS_MSG(choice < tied_scratch_.size(),
                             "TieBreak::pick returned an out-of-range index");
    for (const HeapItem& h : tied_scratch_) slots_[h.slot].held = false;
    // Re-queue the losers *before* firing so the handler observes a
    // consistent pending set (it may cancel or reschedule them). A loser
    // that died while held (validation off) must not re-enter the heap.
    for (std::size_t i = 0; i < tied_scratch_.size(); ++i) {
      if (i == choice) continue;
      const Slot& ls = slots_[tied_scratch_[i].slot];
      if (ls.gen != tied_scratch_[i].gen || !ls.armed) continue;
      heap_push(tied_scratch_[i]);
    }
  }
  const HeapItem& chosen = tied_scratch_[choice];
  {
    // Reachable only with validation off and a strategy that cancelled a
    // held candidate: a dead chosen entry does not fire.
    const Slot& s = slots_[chosen.slot];
    if (s.gen != chosen.gen || !s.armed) return;
  }
  PASCHED_CHECK_MSG(chosen.t >= last_fired_t_,
                    "event fired with a receding timestamp");
  fire_item(chosen);
}

void Engine::run() {
  PASCHED_ALLOC_HOT_SCOPE("Engine::run");
  stopped_ = false;
  while (!stopped_ && fire_next()) {
  }
}

bool Engine::run_until(Time deadline) {
  PASCHED_ALLOC_HOT_SCOPE("Engine::run_until");
  PASCHED_EXPECTS(deadline >= now_);
  stopped_ = false;
  while (!stopped_) {
    const HeapItem* top = peek();
    if (top == nullptr || top->t > deadline) {
      advance_clock(deadline);
      return true;
    }
    fire_root(*top);
  }
  return false;
}

PASCHED_HOT void Engine::run_before(Time end) {
  PASCHED_ALLOC_HOT_SCOPE("Engine::run_before");
  PASCHED_EXPECTS(end >= now_);
  for (const HeapItem* top = peek(); top != nullptr && top->t < end;
       top = peek())
    fire_root(*top);
  advance_clock(end);
}

std::uint64_t Engine::fires_at_or_after(Time t) const noexcept {
  const auto it = std::lower_bound(fire_log_.begin(), fire_log_.end(), t);
  return static_cast<std::uint64_t>(fire_log_.end() - it);
}

void Engine::drain() {
  heap_.clear();
  root_vacant_ = false;
  for (std::uint32_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].armed) {
      --live_;
      release_slot(i);
    }
  }
  PASCHED_ASSERT(live_ == 0);
}

PASCHED_HOT Time Engine::next_event_time() {
  const HeapItem* top = peek();
  return top != nullptr ? top->t : Time::max();
}

std::uint64_t Engine::pending_hash() const {
  std::vector<std::int64_t> times;
  times.reserve(live_);
  for (std::size_t p = root_vacant_ ? 1 : 0; p < heap_.size(); ++p)
    times.push_back(heap_[p].t.count());
  std::sort(times.begin(), times.end());
  std::uint64_t state = 0x9e3779b97f4a7c15ULL ^ times.size();
  std::uint64_t hash = splitmix64(state);
  for (const std::int64_t t : times) {
    state ^= static_cast<std::uint64_t>(t);
    hash = hash * 1099511628211ULL + splitmix64(state);
  }
  return hash;
}

void Engine::check_consistent() const {
  // Every armed slot holds a callback; live_ counts exactly the armed slots.
  // No slot may be held outside an in-progress TieBreak::pick(), and
  // check_consistent() is only valid between events.
  std::size_t armed = 0;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const Slot& s = slots_[i];
    if (s.armed) {
      ++armed;
      PASCHED_CHECK_ALWAYS_MSG(static_cast<bool>(s.fn),
                               "armed slot " + std::to_string(i) +
                                   " has no callback");
    }
    PASCHED_CHECK_ALWAYS_MSG(!s.held,
                             "slot " + std::to_string(i) +
                                 " still held outside TieBreak::pick()");
  }
  PASCHED_CHECK_ALWAYS_MSG(armed == live_,
                           "live_ disagrees with armed slot count");

  // The indexed heap holds exactly one current-generation entry per armed
  // slot, position backlinks agree, the (t, seq) heap property holds, and —
  // since cancel() removes eagerly — no stale entries exist at all:
  // queue_footprint() == events_pending(). A vacant root (only inside a
  // handler fired by fire_next()) belongs to no slot and is skipped.
  PASCHED_CHECK_ALWAYS_MSG(heap_pos_.size() == slots_.size(),
                           "heap_pos_ does not cover the slot table");
  PASCHED_CHECK_ALWAYS_MSG(!root_vacant_ || !heap_.empty(),
                           "vacant root flagged on an empty heap");
  const std::size_t first = root_vacant_ ? 1 : 0;
  PASCHED_CHECK_ALWAYS_MSG(heap_.size() - first == live_,
                           "queue footprint disagrees with pending events "
                           "(stale entries survived indexed removal)");
  std::vector<std::uint32_t> refs(slots_.size(), 0);
  for (std::size_t p = first; p < heap_.size(); ++p) {
    const HeapItem& h = heap_[p];
    PASCHED_CHECK_ALWAYS_MSG(h.slot < slots_.size(),
                             "heap entry references an out-of-range slot");
    const Slot& s = slots_[h.slot];
    PASCHED_CHECK_ALWAYS_MSG(s.gen == h.gen && s.armed,
                             "stale heap entry at position " +
                                 std::to_string(p));
    PASCHED_CHECK_ALWAYS_MSG(
        heap_pos_[h.slot] == p,
        "slot " + std::to_string(h.slot) + " heap_pos backlink says " +
            std::to_string(heap_pos_[h.slot]) + ", entry is at " +
            std::to_string(p));
    if (p > 0)
      PASCHED_CHECK_ALWAYS_MSG(
          !heap_before(heap_[p], heap_[(p - 1) / kArity]),
          "heap property violated at position " + std::to_string(p));
    ++refs[h.slot];
  }
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const std::uint32_t expected = slots_[i].armed ? 1 : 0;
    PASCHED_CHECK_ALWAYS_MSG(
        refs[i] == expected,
        "slot " + std::to_string(i) + " has " + std::to_string(refs[i]) +
            " live heap entries, expected " + std::to_string(expected));
    if (!slots_[i].armed)
      PASCHED_CHECK_ALWAYS_MSG(heap_pos_[i] == kNoHeapPos,
                               "disarmed slot " + std::to_string(i) +
                                   " still carries a heap position");
  }

  // Free-list entries are disarmed, in range, and unique.
  std::vector<bool> freed(slots_.size(), false);
  for (const std::uint32_t idx : free_) {
    PASCHED_CHECK_ALWAYS_MSG(idx < slots_.size(),
                             "free list references an out-of-range slot");
    PASCHED_CHECK_ALWAYS_MSG(!slots_[idx].armed, "free list holds an armed slot");
    PASCHED_CHECK_ALWAYS_MSG(!freed[idx], "slot appears twice on the free list");
    freed[idx] = true;
  }
}

}  // namespace pasched::sim
