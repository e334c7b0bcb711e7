// The discrete-event scheduler: a virtual clock plus a min-heap of pending
// wake-ups. Everything in the simulation — NIC packet arrivals, CPU
// occupancy, timeouts, coroutine resumptions — is an entry in this queue.
//
// Determinism: entries are ordered by (time, insertion sequence), so two
// events at the same instant fire in the order they were scheduled. No
// wall-clock time, no OS threads.
//
// PINNED ORDERING GUARANTEE (load-bearing for byte-identical figure tables
// and for the exact per-op counts of the rmcbench ledger): with no
// tie-breaker installed, the dispatch order of same-timestamp events IS
// their insertion order, totally ordered by the monotone seq_ stamp that
// call_at(), arm_timeout() and poll() take. Any change that reorders
// same-timestamp dispatch — a different heap, a different comparator,
// unstable sort anywhere in the pop path — changes both. Schedule
// exploration (src/simnet/explore.hpp) must go through set_tie_breaker(),
// which leaves the default path untouched; direct std::priority_queue use
// in src/ is rejected by rmclint (determinism-priority-queue) for the same
// reason.
//
// The queue is a flat 4-ary heap over a vector that only grows. Compared
// to std::priority_queue<Entry>: half the tree depth, hole-based
// sift-up/down (one move per level instead of a swap's three), and pop
// extracts the top directly instead of move-out-then-sift the husk.
// Closures live out-of-band in a recycled slot array, so heap entries are
// 24-byte trivially-copyable (time, seq, slot) keys — sift moves are plain
// stores instead of indirect-call UniqueFunction moves.
// (t, seq) keys are unique, so any min-heap pops the exact same global
// order — model output is bit-identical to the binary-heap version.
//
// Timeout lanes: arm_timeout() registers a cancellable timeout whose node
// lives in its owner (Counter's timed waits). Timeouts of one duration
// expire in the order they were armed, so each distinct duration gets one
// FIFO ring of (deadline, seq, node) whose front is always armed, and each
// non-empty ring holds one heap entry, keyed by its front's (deadline,
// seq). Popping that entry expires the front and keys the lane on the
// next armed entry. An expiry therefore dispatches at the (t, seq) a
// call_in() timer armed at the same point would have, while the heap holds
// one entry per duration instead of one per pending timeout.
//
// A cancelled timeout is forgotten: it costs no event and never moves the
// clock. Cancelling the front moves the ring's head past every cancelled
// entry; a lane's heap entry keyed on a front since cancelled re-keys on
// the new front when it pops, without counting an event, touching the
// clock or being offered to a tie-breaker; and a full ring that is mostly
// cancelled compacts in place instead of doubling. A ring's size thus
// follows the number of armed timeouts, not the op rate times the
// timeout. Under a tie-breaker only a lane's front is a candidate, so two
// timeouts of one duration that expire at the same instant fire in arm
// order.
//
// The clock after a run is still that of a schedule in which every
// cancelled timeout dispatched as a no-op at its deadline: run() ends at
// the latest deadline of any timeout ever armed, if no event came later,
// and so does run_until(d) when that deadline is not after d. When it is
// after d, run_until(d) leaves the clock at the last event it dispatched,
// which may be earlier than the deadline of a timeout cancelled in
// between.
//
// Poll lanes: a coroutine that polls memory on a fixed period (an RFP
// client reading its response slot) awaits poll(node, period) instead of
// delay(period). Its PollNode, embedded in the waiter, carries an `idle`
// predicate with no side effects: true while the waiter, resumed now,
// would find nothing to do and sleep another period. poll() appends the
// tick (now + period, seq) to the FIFO ring of its period, taking its seq
// exactly where delay() would; every tick of a ring is stamped that way,
// so the ring is sorted by construction and lives outside the heap. The
// run loop dispatches whichever of the heap's top and the rings' fronts
// is earlier by (t, seq). At a tick it sets the clock and asks `idle`:
//  - if it holds, the tick is re-appended at (t + period, seq_++), the seq
//    the waiter's own delay() would have taken at that point, and nothing
//    is dispatched. Every read and every same-instant order of a delay()
//    loop is thus kept, and the seq stamps run exactly as they did;
//  - otherwise the waiter resumes as an event at the tick's (t, seq).
// An idle tick moves the clock like the event it replaces, and it samples
// sim.sched.queue_depth, which counts armed ticks as queued. It is not an
// event: it is never counted in events_processed() or sim.sched.events,
// and it runs no profiler scope. With a tie-breaker installed poll() is a
// plain delay(period), so exploration offers every tick as a candidate;
// set_tie_breaker() asserts that no poll is armed. A poll cannot be
// cancelled: as after delay(), its waiter stays suspended until a tick
// resumes it or the scheduler is destroyed.
//
// Lifetime: root tasks handed to spawn() are owned by the scheduler, which
// threads them through their promises into one intrusive list of live
// roots, in spawn order; spawning allocates nothing. A root that finishes
// unlinks itself and frees its frame; roots still blocked when the
// Scheduler is destroyed are destroyed then, in spawn order, each once.
// Never resume a scheduler's handles after it is destroyed.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/ring_deque.hpp"
#include "simnet/task.hpp"
#include "simnet/time.hpp"
#include "simnet/unique_function.hpp"

namespace rmc::obs {
class Counter;
class Gauge;
}  // namespace rmc::obs

namespace rmc::sim {

/// Same-timestamp dispatch policy hook (DESIGN.md §17). When installed on a
/// Scheduler, every pop whose minimum timestamp is shared by several queued
/// events presents those events — in insertion order — and lets the policy
/// pick which fires next. pick(t, 1) is *not* called (a single candidate is
/// forced), so implementations only see genuine races. The default
/// (no tie-breaker) preserves the pinned insertion-order guarantee above.
class TieBreaker {
 public:
  virtual ~TieBreaker() = default;

  /// `ready` (>= 2) events share the minimum timestamp `t`; candidates are
  /// numbered 0..ready-1 in insertion order. Return the index to dispatch.
  /// Returning 0 on every call reproduces the default schedule exactly.
  virtual std::size_t pick(Time t, std::size_t ready) = 0;

  /// Called after each dispatched event returns, whether or not pick() ran
  /// for it — the invariant-checker hook for schedule exploration.
  virtual void after_dispatch(Time t) { (void)t; }
};

class Scheduler {
  struct TimeoutLane;

 public:
  /// A cancellable timeout embedded in its owner (see "Timeout lanes"
  /// above). The owner sets `expire`, arms the node with arm_timeout(), and
  /// must cancel it before the node's storage dies. The scheduler disarms
  /// the node just before it calls `expire`.
  struct TimeoutNode {
    void (*expire)(Scheduler&, TimeoutNode&) = nullptr;
    TimeoutLane* lane = nullptr;  ///< non-null while armed
    std::uint64_t pos = 0;        ///< absolute ring position in `lane`
    bool armed() const { return lane != nullptr; }
  };

  /// A poller embedded in its waiter (see "Poll lanes" above). The owner
  /// sets `idle` and awaits poll(); `idle` must not change any state.
  struct PollNode {
    bool (*idle)(Scheduler&, PollNode&) = nullptr;
    std::coroutine_handle<> waiter;  ///< set by poll()
  };

  Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;
  ~Scheduler();

  Time now() const { return now_; }

  /// Enqueue a callback at absolute time `t` (must be >= now(); asserted
  /// in debug builds so pooled-object reuse bugs fail loudly instead of
  /// corrupting event order).
  void call_at(Time t, UniqueFunction fn);

  /// Enqueue a callback `dt` nanoseconds from now.
  void call_in(Time dt, UniqueFunction fn) { call_at(now_ + dt, std::move(fn)); }

  /// Resume a coroutine at absolute time `t`.
  void resume_at(Time t, std::coroutine_handle<> h) {
    call_at(t, [h] { h.resume(); });
  }

  /// Arm `node` to expire `dt` nanoseconds from now. Takes its sequence
  /// stamp exactly where call_in(dt, ...) would, so the expiry dispatches at
  /// the same (t, seq) point a timer closure would have.
  void arm_timeout(TimeoutNode& node, Time dt);

  /// Disarm an armed node, in amortized O(1). The timeout is forgotten:
  /// it dispatches nothing (see "Timeout lanes" above for the clock).
  static void cancel_timeout(TimeoutNode& node) {
    TimeoutLane& lane = *node.lane;
    lane.at(node.pos).node = nullptr;
    node.lane = nullptr;
    --lane.armed;
    if (node.pos == lane.head) lane.skip_cancelled();
  }

  /// Start a detached root task at the current time.
  void spawn(Task<> task);

  /// Awaitable: suspend the current coroutine for `dt` nanoseconds.
  auto delay(Time dt) {
    struct Awaiter {
      Scheduler& sched;
      Time dt;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) { sched.resume_at(sched.now_ + dt, h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, dt};
  }

  /// Awaitable: suspend for `period`, then for another `period` at every
  /// tick at which node.idle holds (see "Poll lanes" above). With a
  /// tie-breaker installed, the same as delay(period).
  auto poll(PollNode& node, Time period) {
    struct Awaiter {
      Scheduler& sched;
      PollNode& node;
      Time period;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        if (sched.tie_breaker_ != nullptr) {
          sched.resume_at(sched.now_ + period, h);
          return;
        }
        node.waiter = h;
        sched.arm_poll(node, period);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, node, period};
  }

  /// Run until the event queue is empty. Returns the final virtual time:
  /// the last event's, or the latest deadline of any timeout ever armed.
  Time run();

  /// Run until the queue is empty or virtual time would exceed `deadline`;
  /// events after the deadline stay queued. Returns the current time (see
  /// "Timeout lanes" above for where a cancelled timeout leaves it).
  Time run_until(Time deadline);

  /// Number of events processed so far (for micro-benchmarks and tests).
  std::uint64_t events_processed() const { return events_processed_; }

  /// Ring capacity, in entries, of the timeout lane for `duration`; 0 if
  /// no timeout of that duration was ever armed.
  std::size_t timeout_lane_capacity(Time duration) const;

  /// Install (or clear, with nullptr) a same-timestamp dispatch policy.
  /// The breaker must outlive its installation. With none installed the
  /// scheduler takes the branch-free fast path and the pinned
  /// insertion-order guarantee holds bit-for-bit. No poll may be armed.
  void set_tie_breaker(TieBreaker* tb) {
    assert(polls_armed_ == 0 && "install a tie-breaker before any poll is armed");
    tie_breaker_ = tb;
  }
  TieBreaker* tie_breaker() const { return tie_breaker_; }

 private:
  struct Entry {
    Time t;
    std::uint64_t seq;
    std::uint32_t slot;  ///< index into slots_ holding the closure, or kLaneTag | lane id
  };
  static_assert(std::is_trivially_copyable_v<Entry>);

  /// Entry::slot bit marking a timeout lane's heap entry.
  static constexpr std::uint32_t kLaneTag = std::uint32_t{1} << 31;

  /// One FIFO of timeouts sharing a duration. Positions are absolute and
  /// index the ring modulo its power-of-two capacity, so growing the ring
  /// never moves a node's position; compacting it renumbers the nodes.
  struct TimeoutLane {
    struct Armed {
      Time deadline;
      std::uint64_t seq;
      TimeoutNode* node;  ///< null once cancelled
    };
    Time duration = 0;
    std::vector<Armed> ring;  ///< grows to the high-water size, then reused
    std::uint64_t head = 0;   ///< position of the front, which is armed; tail if none is
    std::uint64_t tail = 0;   ///< one past the back
    std::uint64_t armed = 0;  ///< armed entries in [head, tail)
    bool queued = false;      ///< the lane has its heap entry
    Armed& at(std::uint64_t pos) { return ring[pos & (ring.size() - 1)]; }
    void skip_cancelled() {
      while (head != tail && at(head).node == nullptr) ++head;
    }
  };

  /// One FIFO of armed poll ticks sharing a period, sorted by (t, seq)
  /// because every tick is stamped (now + period, seq_++).
  struct PollLane {
    struct Tick {
      Time t;
      std::uint64_t seq;
      PollNode* node;
    };
    Time period = 0;
    RingDeque<Tick> ticks;  ///< grows to the high-water size, then reused
  };

  static constexpr std::size_t kArity = 4;

  static bool before(Time at, std::uint64_t aseq, Time bt, std::uint64_t bseq) {
    return at != bt ? at < bt : aseq < bseq;
  }
  static bool before(Time at, std::uint64_t aseq, const Entry& b) {
    return before(at, aseq, b.t, b.seq);
  }

  /// Remove the minimum entry into `out` (heap must be non-empty).
  void pop_top_into(Entry& out);

  /// Slow path used only when a tie-breaker is installed: collect every
  /// entry sharing the minimum timestamp, let the breaker pick one, and
  /// remove it (O(n) scan — exploration runs small models, not figures).
  void pop_choice_into(Entry& out);

  /// Remove heap_[idx], restoring the heap property (sift up or down).
  void erase_at(std::size_t idx);

  /// Insert the key (t, seq, slot) by hole-based sift-up.
  void push_entry(Time t, std::uint64_t seq, std::uint32_t slot);

  /// Whether a lane's heap entry is keyed on the lane's current front, or
  /// on a front that was cancelled since.
  bool keyed_on_front(const Entry& entry);

  /// Push the lane's heap entry, keyed on its (armed) front.
  void queue_lane(TimeoutLane& lane, std::uint32_t tag);

  /// The lane's heap entry has left the heap: key a new one on its front,
  /// if it has one.
  void rekey_lane(std::uint32_t tag);

  /// Pop the front of the lane whose heap entry (keyed on that front) just
  /// left the heap, re-key the lane, and return the node, disarmed.
  TimeoutNode* pop_lane_front(std::uint32_t tag);

  /// Under a tie-breaker: re-key every lane entry at the minimum timestamp
  /// whose front was cancelled, so that every candidate dispatches.
  void rekey_cancelled_fronts();

  /// Make room in a full lane ring: compact it in place if at most half of
  /// its entries are armed, else double it keeping every position.
  static void make_room(TimeoutLane& lane);

  /// Append `node`'s next tick to the lane of `period`, made on first use.
  void arm_poll(PollNode& node, Time period);

  /// Append the tick (now + period, seq_++) for `node` to `lane`.
  void append_tick(PollLane& lane, PollNode& node);

  /// The poll lane whose front tick comes before the heap's top and not
  /// after `deadline`, or null (some poll must be armed).
  PollLane* due_poll_lane(Time deadline);

  /// Take the front tick of `lane`: re-arm it if its node is idle, else
  /// resume the waiter as an event.
  void dispatch_tick(PollLane& lane);

  std::vector<Entry> heap_;
  std::vector<UniqueFunction> slots_;     ///< closures, indexed by Entry::slot
  std::vector<std::uint32_t> free_slots_;  ///< recycled slots_ indices
  std::vector<std::unique_ptr<TimeoutLane>> lanes_;  ///< indexed by lane id; never shrinks
  std::vector<PollLane> poll_lanes_;  ///< one per distinct period; never shrinks
  std::size_t polls_armed_ = 0;       ///< ticks in every poll lane
  detail::RootLink roots_{&roots_, &roots_};  ///< sentinel of the live roots' list
  std::vector<std::pair<std::uint64_t, std::uint32_t>>
      tie_scratch_;  ///< (seq, heap index) candidates for pop_choice_into
  TieBreaker* tie_breaker_ = nullptr;
  Time now_ = 0;
  Time latest_deadline_ = 0;  ///< of every timeout ever armed, cancelled or not
  std::uint64_t seq_ = 0;
  std::uint64_t events_processed_ = 0;
  obs::Counter* events_metric_;     ///< sim.sched.events
  obs::Gauge* queue_depth_metric_;  ///< sim.sched.queue_depth (sampled per event and tick)
};

/// Prefix every RMC_LOG_* line with this scheduler's virtual time
/// (`[t=<ns>ns]`). Pass nullptr to restore the plain format. The scheduler
/// must outlive the attachment.
void attach_log_clock(Scheduler* sched);

}  // namespace rmc::sim
