// Task<T>: the coroutine type every simulated activity is written in.
//
// A Task is lazy: creating one does not run any code. It starts when either
// (a) a parent coroutine `co_await`s it — the parent suspends and control
// transfers to the child symmetrically, or (b) it is handed to
// Scheduler::spawn(), which detaches it as a root "process" (a memcached
// server loop, a client, a NIC dispatcher).
//
// A root's promise is its link in the scheduler's list of live roots, so
// spawning allocates nothing beyond the pooled frame; a root that finishes
// unlinks itself and frees its frame (see "Lifetime" in scheduler.hpp).
//
// Exceptions propagate across co_await like ordinary calls. A detached task
// that exits with an exception terminates the program — in a deterministic
// simulation that is a bug, not a runtime condition.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <exception>
#include <optional>
#include <type_traits>
#include <utility>

#include "simnet/pool.hpp"

namespace rmc::sim {

template <typename T = void>
class [[nodiscard]] Task;

namespace detail {

/// A node of a circular doubly linked list whose sentinel the Scheduler
/// owns: the list of live roots, in spawn order.
struct RootLink {
  RootLink* prev = nullptr;
  RootLink* next = nullptr;

  /// Link in just before `pos`; before the sentinel is the tail.
  void link_before(RootLink& pos) noexcept {
    prev = pos.prev;
    next = &pos;
    prev->next = this;
    pos.prev = this;
  }
  void unlink() noexcept {
    prev->next = next;
    next->prev = prev;
  }
};

struct PromiseBase : RootLink {
  // Every request flows through a handful of short-lived Task frames
  // (per-message handlers, per-op client calls). Route frame storage
  // through the simulator pool so steady-state traffic recycles frames
  // instead of hitting malloc once per coroutine.
  static void* operator new(std::size_t n) { return pooled_alloc(n, PoolTag::kFrame); }
  static void operator delete(void* p, std::size_t n) { pooled_free(p, n, PoolTag::kFrame); }

  std::coroutine_handle<> continuation{};
  bool detached = false;  ///< a root: linked by Scheduler::spawn, frees itself

  std::suspend_always initial_suspend() noexcept { return {}; }

  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }
    template <typename Promise>
    std::coroutine_handle<> await_suspend(std::coroutine_handle<Promise> h) noexcept {
      auto& p = h.promise();
      if (p.continuation) return p.continuation;
      if (p.detached) {
        p.unlink();
        h.destroy();
      }
      return std::noop_coroutine();
    }
    void await_resume() noexcept {}
  };
  FinalAwaiter final_suspend() noexcept { return {}; }
};
// Every frame embeds a promise: growing it could move frames to a larger
// pool size class.
static_assert(sizeof(PromiseBase) == 4 * sizeof(void*));

/// How a coroutine returns its result: into the promise, or not at all.
template <typename T>
struct Returns {
  std::optional<T> value;
  // rmclint:allow(zeroalloc): optional::emplace constructs in the promise frame, no heap
  void return_value(T v) { value.emplace(std::move(v)); }
};
template <>
struct Returns<void> {
  void return_void() {}
};

}  // namespace detail

template <typename T>
class [[nodiscard]] Task {
 public:
  struct promise_type : detail::PromiseBase, detail::Returns<T> {
    std::exception_ptr exception;

    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void unhandled_exception() {
      if (this->detached) std::terminate();
      exception = std::current_exception();
    }
  };

  Task() = default;
  explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, nullptr)) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  /// Awaiting a task starts it and resumes the awaiter when it finishes.
  auto operator co_await() && {
    struct Awaiter {
      std::coroutine_handle<promise_type> handle;
      bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) noexcept {
        handle.promise().continuation = cont;
        return handle;  // symmetric transfer into the child
      }
      T await_resume() {
        auto& p = handle.promise();
        if (p.exception) std::rethrow_exception(p.exception);
        if constexpr (!std::is_void_v<T>) return std::move(*p.value);
      }
    };
    assert(handle_ && "co_await on empty Task");
    return Awaiter{handle_};
  }

  /// Used by Scheduler::spawn — marks the frame self-owning and releases it.
  std::coroutine_handle<promise_type> detach() {
    assert(handle_);
    handle_.promise().detached = true;
    return std::exchange(handle_, nullptr);
  }

 private:
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }

  std::coroutine_handle<promise_type> handle_{};
};

}  // namespace rmc::sim
