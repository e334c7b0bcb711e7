// Synchronization primitives for simulated tasks.
//
// Event    — one-shot broadcast flag (awaitable).
// Counter  — monotonically increasing 64-bit value with awaitable
//            "wait until value >= threshold, or time out". This is the
//            exact semantic UCR's active-message counters need (§IV-C of
//            the paper): origin/target/completion counters are Counters.
#pragma once

#include <coroutine>
#include <cstdint>
#include <vector>

#include "obs/metrics.hpp"
#include "simnet/scheduler.hpp"
#include "simnet/time.hpp"

namespace rmc::sim {

/// One-shot broadcast event. Once set, all current and future waiters
/// proceed immediately.
class Event {
 public:
  explicit Event(Scheduler& sched) : sched_(&sched) {}

  void set() {
    if (set_) return;
    set_ = true;
    for (auto h : waiters_) sched_->resume_at(sched_->now(), h);
    waiters_.clear();
  }

  auto wait() {
    struct Awaiter {
      Event& ev;
      bool await_ready() const noexcept { return ev.set_; }
      // rmclint:allow(zeroalloc): waiter vector reuses capacity reached during warmup
      void await_suspend(std::coroutine_handle<> h) { ev.waiters_.push_back(h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

 private:
  Scheduler* sched_;
  bool set_ = false;
  std::vector<std::coroutine_handle<>> waiters_;
};

/// Monotonic counter with threshold waits and timeouts.
///
/// wait_geq() resolves to true when the counter reaches the threshold and
/// to false if the timeout elapses first or fail_waiters() runs. With
/// kNoTimeout it never times out. Multiple waiters with different
/// thresholds are supported.
///
/// Allocation: every wait registers an intrusive Waiter that lives in the
/// awaiter itself (inside the suspended coroutine frame, whose address is
/// stable). A timed wait also arms the Waiter's Scheduler::TimeoutNode in
/// the scheduler's lane for its duration. Whichever wakes the waiter first
/// — the threshold, fail_waiters(), or the frame's destruction — cancels
/// the timeout in amortized O(1), which costs no event, and an expiring
/// timeout unlinks the waiter from the counter. Once the waiter list and
/// the lane ring have reached their high-water sizes, no wait allocates.
///
/// Lifetimes: a Counter destroyed with waiters parked unlinks them; a timed
/// waiter still resumes with false when its timeout expires. A frame
/// destroyed while parked unlinks itself and cancels its timeout, so it is
/// never resumed.
class Counter {
  struct Waiter;

 public:
  explicit Counter(Scheduler& sched) : sched_(&sched) {}
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;
  /// Frames still parked here outlive the counter when a testbed is torn
  /// down (the Scheduler destroys them last): unlink them, so destroying
  /// a frame later never deregisters from freed memory.
  ~Counter() {
    for (auto& p : waiters_) p.waiter->listed = false;
  }

  std::uint64_t value() const { return value_; }

  void add(std::uint64_t n = 1) {
    value_ += n;
    fire_ready();
  }

  /// Wake every current waiter with failure (wait_geq resolves false)
  /// without touching the value. Used when the thing being counted can
  /// never complete — e.g. the endpoint that would have bumped this
  /// counter died. Future waiters are unaffected.
  void fail_waiters() {
    for (auto& p : waiters_) wake(*p.waiter, /*failed=*/true);
    waiters_.clear();
  }

  /// Awaitable threshold wait; see class comment.
  auto wait_geq(std::uint64_t threshold, Time timeout = kNoTimeout) {
    struct Awaiter {
      Waiter node;  // lives in the waiting frame
      std::uint64_t threshold;
      Time timeout;

      Awaiter(Counter& c, std::uint64_t th, Time to) : threshold(th), timeout(to) {
        node.counter = &c;
      }
      Awaiter(const Awaiter&) = delete;
      Awaiter& operator=(const Awaiter&) = delete;

      ~Awaiter() {
        // Frame destroyed while still waiting (teardown): unlink and disarm,
        // so neither the counter nor the timeout touches freed memory.
        if (node.listed) node.counter->deregister(&node);
        if (node.armed()) Scheduler::cancel_timeout(node);
      }

      bool await_ready() const noexcept { return node.counter->value_ >= threshold; }
      void await_suspend(std::coroutine_handle<> h) {
        Counter& c = *node.counter;
        c.waits_metric_().inc();
        node.handle = h;
        node.listed = true;
        // rmclint:allow(zeroalloc): node lives in the coroutine frame; vector reuses capacity
        c.waiters_.push_back({threshold, &node});
        if (timeout != kNoTimeout) {
          node.expire = &Counter::expire;
          c.sched_->arm_timeout(node, timeout);
        }
      }
      bool await_resume() const noexcept { return !node.failed; }
    };
    // The awaiter is stored in every waiting coroutine frame: growing it
    // could move frames to a larger pool size class.
    static_assert(sizeof(Awaiter) <= 64);
    return Awaiter{*this, threshold, timeout};
  }

 private:
  struct Waiter : Scheduler::TimeoutNode {  // the node is armed by timed waits only
    Counter* counter = nullptr;  ///< the counter waited on
    std::coroutine_handle<> handle;
    bool listed = false;  ///< on counter->waiters_
    bool failed = false;  ///< woken by a timeout or fail_waiters
  };

  struct Parked {
    std::uint64_t threshold;
    Waiter* waiter;
  };

  static obs::Counter& waits_metric_() {
    static obs::Counter* c = &obs::registry().counter("sim.counter.waits");
    return *c;
  }

  static obs::Counter& timeouts_metric_() {
    static obs::Counter* c = &obs::registry().counter("sim.counter.timeouts");
    return *c;
  }

  /// TimeoutNode::expire for timed waits; the counter may already be gone.
  static void expire(Scheduler& sched, Scheduler::TimeoutNode& node) {
    auto& w = static_cast<Waiter&>(node);
    if (w.listed) w.counter->deregister(&w);
    w.failed = true;
    timeouts_metric_().inc();
    sched.resume_at(sched.now(), w.handle);
  }

  /// Resume a listed waiter that the caller is removing from waiters_.
  void wake(Waiter& w, bool failed) {
    w.listed = false;
    w.failed = failed;
    if (w.armed()) Scheduler::cancel_timeout(w);
    sched_->resume_at(sched_->now(), w.handle);
  }

  void deregister(Waiter* w) {
    for (std::size_t i = 0; i < waiters_.size(); ++i) {
      if (waiters_[i].waiter == w) {
        waiters_.erase(waiters_.begin() + static_cast<std::ptrdiff_t>(i));
        w->listed = false;
        return;
      }
    }
  }

  void fire_ready() {
    // Wake every waiter whose threshold is now met; compact the list
    // in place (capacity is retained, so steady state never reallocates).
    std::size_t keep = 0;
    for (std::size_t i = 0; i < waiters_.size(); ++i) {
      const Parked p = waiters_[i];
      if (value_ >= p.threshold) {
        wake(*p.waiter, /*failed=*/false);
        continue;
      }
      waiters_[keep++] = p;
    }
    waiters_.resize(keep);  // rmclint:allow(zeroalloc): shrink-only compaction, capacity retained
  }

  Scheduler* sched_;
  std::uint64_t value_ = 0;
  std::vector<Parked> waiters_;
};

}  // namespace rmc::sim
