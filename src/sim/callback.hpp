// InlineCallback: a move-only callable wrapper with fixed inline storage and
// no heap allocation. The event queue processes tens of millions of events
// per benchmark run; std::function's allocation behavior is not guaranteed,
// so we pin the capture size at compile time instead.
//
// Captures that are trivially copyable and trivially destructible (every
// `[this, cpu, ptr]`-style event lambda) relocate with a fixed-size memcpy
// and skip destruction: moving such a callback through schedule_at and out
// of its slot makes no indirect call. Only non-trivial captures keep a
// relocate/destroy function pointer.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#include "util/assert.hpp"

namespace pasched::sim {

template <std::size_t Capacity = 48>
class InlineCallback {
 public:
  InlineCallback() = default;

  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, InlineCallback> &&
             std::is_invocable_r_v<void, std::decay_t<F>>)
  InlineCallback(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= Capacity,
                  "capture too large for InlineCallback storage");
    static_assert(alignof(Fn) <= alignof(std::max_align_t));
    static_assert(std::is_nothrow_move_constructible_v<Fn>,
                  "captures must be nothrow-movable");
    ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
    invoke_ = [](void* p) { (*static_cast<Fn*>(p))(); };
    if constexpr (std::is_trivially_copyable_v<Fn> &&
                  std::is_trivially_destructible_v<Fn>) {
      // Relocation copies the whole buffer; give the unused tail a value.
      if constexpr (sizeof(Fn) < Capacity)
        std::memset(buf_ + sizeof(Fn), 0, Capacity - sizeof(Fn));
    } else {
      destroy_ = [](void* p) { static_cast<Fn*>(p)->~Fn(); };
      relocate_ = [](void* dst, void* src) {
        ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
        static_cast<Fn*>(src)->~Fn();
      };
    }
  }

  InlineCallback(InlineCallback&& other) noexcept { move_from(other); }

  InlineCallback& operator=(InlineCallback&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  InlineCallback(const InlineCallback&) = delete;
  InlineCallback& operator=(const InlineCallback&) = delete;

  ~InlineCallback() { reset(); }

  [[nodiscard]] explicit operator bool() const noexcept {
    return invoke_ != nullptr;
  }

  void operator()() {
    PASCHED_EXPECTS_MSG(invoke_ != nullptr, "invoking empty InlineCallback");
    invoke_(buf_);
  }

  void reset() noexcept {
    if (destroy_ != nullptr) destroy_(buf_);
    invoke_ = nullptr;
    destroy_ = nullptr;
    relocate_ = nullptr;
  }

 private:
  void move_from(InlineCallback& other) noexcept {
    invoke_ = other.invoke_;
    destroy_ = other.destroy_;
    relocate_ = other.relocate_;
    if (relocate_ != nullptr) {
      relocate_(buf_, other.buf_);
    } else if (invoke_ != nullptr) {
      // Trivially relocatable capture: the bytes are the object.
      std::memcpy(buf_, other.buf_, Capacity);
    }
    other.invoke_ = nullptr;
    other.destroy_ = nullptr;
    other.relocate_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char buf_[Capacity];
  void (*invoke_)(void*) = nullptr;
  // Both null for trivially relocatable captures (and for an empty
  // callback): relocation is a memcpy and destruction a no-op.
  void (*destroy_)(void*) = nullptr;
  void (*relocate_)(void*, void*) = nullptr;
};

}  // namespace pasched::sim
