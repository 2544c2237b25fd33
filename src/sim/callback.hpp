// Move-only callables with fixed inline storage.
//
// Every simulated I/O schedules several events and passes completions
// through several layers; with std::function each capture larger than two
// words (or not trivially copyable) costs a heap allocation. InlineFunction
// stores its callable in place and has no heap fallback: a capture that
// does not fit is a compile error, so the event path stays allocation-free
// by construction. Call sites with large state capture a pointer or a slot
// index instead.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#include "common/assert.hpp"

namespace haechi::sim {

template <typename Signature>
class InlineFunction;

template <typename R, typename... Args>
class InlineFunction<R(Args...)> {
 public:
  /// Largest capture accepted: four words.
  static constexpr std::size_t kCapacity = 4 * sizeof(void*);

  InlineFunction() noexcept = default;
  InlineFunction(std::nullptr_t) noexcept {}  // NOLINT: mirrors std::function

  template <typename F,
            typename Fn = std::decay_t<F>,
            typename = std::enable_if_t<
                !std::is_same_v<Fn, InlineFunction> &&
                std::is_invocable_r_v<R, Fn&, Args...>>>
  InlineFunction(F&& f) {  // NOLINT: implicit, like std::function
    static_assert(sizeof(Fn) <= kCapacity,
                  "capture too large for an inline callback: capture a "
                  "pointer or a slot index instead");
    static_assert(alignof(Fn) <= alignof(void*),
                  "over-aligned capture in an inline callback");
    static_assert(std::is_nothrow_move_constructible_v<Fn>,
                  "inline callbacks must be nothrow-movable");
    ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
    invoke_ = [](void* self, Args... args) -> R {
      return (*static_cast<Fn*>(self))(std::forward<Args>(args)...);
    };
    if constexpr (!std::is_trivially_copyable_v<Fn>) {
      relocate_ = [](void* from, void* to) noexcept {
        auto* src = static_cast<Fn*>(from);
        if (to != nullptr) ::new (to) Fn(std::move(*src));
        src->~Fn();
      };
    }
  }

  InlineFunction(InlineFunction&& other) noexcept { MoveFrom(other); }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }

  InlineFunction& operator=(std::nullptr_t) noexcept {
    Reset();
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { Reset(); }

  R operator()(Args... args) {
    HAECHI_ASSERT(invoke_ != nullptr);
    return invoke_(storage_, std::forward<Args>(args)...);
  }

  explicit operator bool() const noexcept { return invoke_ != nullptr; }
  friend bool operator==(const InlineFunction& f, std::nullptr_t) noexcept {
    return f.invoke_ == nullptr;
  }

 private:
  void MoveFrom(InlineFunction& other) noexcept {
    invoke_ = other.invoke_;
    relocate_ = other.relocate_;
    if (relocate_ != nullptr) {
      relocate_(other.storage_, storage_);
    } else if (invoke_ != nullptr) {
      std::memcpy(storage_, other.storage_, kCapacity);
    }
    other.invoke_ = nullptr;
    other.relocate_ = nullptr;
  }

  void Reset() noexcept {
    if (relocate_ != nullptr) relocate_(storage_, nullptr);
    invoke_ = nullptr;
    relocate_ = nullptr;
  }

  alignas(void*) unsigned char storage_[kCapacity];
  R (*invoke_)(void*, Args...) = nullptr;
  // Null for trivially copyable callables, which move by memcpy and need no
  // destructor; otherwise move-constructs into `to` (when non-null) and
  // destroys the source.
  void (*relocate_)(void* from, void* to) noexcept = nullptr;
};

/// The simulator's event callback and the stations' service-done callback.
using Callback = InlineFunction<void()>;

}  // namespace haechi::sim
