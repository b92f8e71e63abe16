// Small-buffer-optimized move-only callable for simulator events.
//
// Every fire-and-forget callback the kernel's cold users schedule
// (pacers, incast senders, TCP flow starts, forced-stall holds, credit
// returns, the flow watchdog) captures a handful of words, so storing it
// inline in its slab slot makes scheduling it allocation-free. Events that
// are cancelled or filed under a reserved sequence number (port
// completions and service decisions, wire landings, TCP retransmit timers,
// source start chains) store no callback: their owners embed them (see
// sim/simulator.h). Callables larger than the inline buffer fall back to
// the heap; unlike std::function, move-only callables are accepted.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace ups::sim {

class inline_callback {
 public:
  // Sized to hold a std::function<void()> copy (32 bytes on libstdc++) and
  // every capture set the simulator's own layers use, with room to spare.
  static constexpr std::size_t kInlineBytes = 48;

  inline_callback() noexcept = default;

  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, inline_callback> &&
             std::is_invocable_r_v<void, std::remove_cvref_t<F>&>)
  inline_callback(F&& f) {  // NOLINT(google-explicit-constructor)
    using target = std::remove_cvref_t<F>;
    if constexpr (fits_inline<target>) {
      ::new (static_cast<void*>(storage_)) target(std::forward<F>(f));
      ops_ = &inline_ops<target>::kOps;
    } else {
      ::new (static_cast<void*>(storage_))
          target*(new target(std::forward<F>(f)));
      ops_ = &boxed_ops<target>::kOps;
    }
  }

  inline_callback(inline_callback&& other) noexcept { take(other); }

  inline_callback& operator=(inline_callback&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }

  inline_callback(const inline_callback&) = delete;
  inline_callback& operator=(const inline_callback&) = delete;

  ~inline_callback() { reset(); }

  // Matches std::function: invoking an empty callback throws rather than
  // calling through a null operations table.
  void operator()() {
    if (ops_ == nullptr) throw std::bad_function_call();
    ops_->invoke(storage_);
  }

  [[nodiscard]] explicit operator bool() const noexcept {
    return ops_ != nullptr;
  }

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  struct ops {
    void (*invoke)(void*);
    // Move-construct into dst from src, then destroy src.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void*) noexcept;
  };

  template <typename T>
  static constexpr bool fits_inline =
      sizeof(T) <= kInlineBytes && alignof(T) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<T>;

  template <typename T>
  struct inline_ops {
    static T* at(void* s) noexcept {
      return std::launder(reinterpret_cast<T*>(s));
    }
    static void invoke(void* s) { (*at(s))(); }
    static void relocate(void* dst, void* src) noexcept {
      ::new (dst) T(std::move(*at(src)));
      at(src)->~T();
    }
    static void destroy(void* s) noexcept { at(s)->~T(); }
    static constexpr ops kOps{&invoke, &relocate, &destroy};
  };

  template <typename T>
  struct boxed_ops {
    static T*& at(void* s) noexcept {
      return *std::launder(reinterpret_cast<T**>(s));
    }
    static void invoke(void* s) { (*at(s))(); }
    static void relocate(void* dst, void* src) noexcept {
      // The stored pointer is trivially destructible: copying it over moves
      // ownership and the source needs no cleanup.
      ::new (dst) T*(at(src));
    }
    static void destroy(void* s) noexcept {
      delete at(s);
      at(s) = nullptr;
    }
    static constexpr ops kOps{&invoke, &relocate, &destroy};
  };

  void take(inline_callback& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) std::byte storage_[kInlineBytes];
  const ops* ops_ = nullptr;
};

}  // namespace ups::sim
