#include "simnet/scheduler.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "common/log.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"

namespace rmc::sim {

namespace {
/// Root profiler scope: every event callback dispatched by the scheduler.
const std::uint16_t kProfDispatch =
    obs::profiler().register_scope("prof.sim.sched.dispatch", obs::ScopeKind::engine);

/// A new lane's ring capacity (entries); a power of two.
constexpr std::size_t kLaneInitialCapacity = 64;
}  // namespace

Scheduler::Scheduler()
    : events_metric_(&obs::registry().counter("sim.sched.events")),
      queue_depth_metric_(&obs::registry().gauge("sim.sched.queue_depth")) {
  // rmclint:allow(zeroalloc): one-time construction reservation
  heap_.reserve(1024);
  // The most recent scheduler provides the profiler's sim clock (testbeds
  // are sequential in one process; mirrors attach_log_clock).
  obs::profiler().set_sim_clock(
      [](void* ctx) -> std::uint64_t { return static_cast<Scheduler*>(ctx)->now(); }, this);
}

Scheduler::~Scheduler() {
  if (obs::profiler().sim_clock_ctx() == this) obs::profiler().set_sim_clock(nullptr, nullptr);
  // Destroy roots that never finished (blocked servers, dispatch loops),
  // in spawn order. The queue may still reference frames being destroyed
  // here; it is dropped without resuming anything, so no stale handle is
  // ever resumed.
  using Promise = Task<>::promise_type;
  while (roots_.next != &roots_) {
    auto& root = static_cast<Promise&>(*roots_.next);
    root.unlink();
    std::coroutine_handle<Promise>::from_promise(root).destroy();
  }
  // A node still armed belongs to a frame that outlives this scheduler;
  // disarm it so its owner never cancels into a freed lane.
  for (auto& lane : lanes_) {
    for (std::uint64_t pos = lane->head; pos != lane->tail; ++pos) {
      if (TimeoutNode* node = lane->at(pos).node) node->lane = nullptr;
    }
  }
}

void Scheduler::call_at(Time t, UniqueFunction fn) {
  assert(t >= now_ && "cannot schedule in the past");
  const std::uint64_t seq = seq_++;
  // Park the closure out-of-band; the heap only shuffles (t, seq, slot).
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(fn);
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    // rmclint:allow(zeroalloc): slot slab grows to the high-water mark, then recycles via free_slots_
    slots_.push_back(std::move(fn));
  }
  assert(slot < kLaneTag);
  push_entry(t, seq, slot);
}

void Scheduler::push_entry(Time t, std::uint64_t seq, std::uint32_t slot) {
  // Hole-based sift-up: walk the insertion hole toward the root comparing
  // keys only; the entry is materialized once, in its final slot.
  std::size_t hole = heap_.size();
  // rmclint:allow(zeroalloc): heap vector reuses capacity (reserved at construction, grows to hwm once)
  heap_.emplace_back();  // reserve the slot; filled below
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / kArity;
    if (!before(t, seq, heap_[parent])) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = Entry{t, seq, slot};
}

void Scheduler::arm_timeout(TimeoutNode& node, Time dt) {
  assert(!node.armed() && node.expire != nullptr);
  const std::uint64_t seq = seq_++;
  std::uint32_t id = 0;
  while (id < lanes_.size() && lanes_[id]->duration != dt) ++id;
  if (id == lanes_.size()) {
    // rmclint:allow(zeroalloc): one lane per distinct timeout duration, made on first use
    lanes_.push_back(std::make_unique<TimeoutLane>());
    lanes_.back()->duration = dt;
  }
  TimeoutLane& lane = *lanes_[id];
  if (lane.tail - lane.head == lane.ring.size()) make_room(lane);
  const Time deadline = now_ + dt;
  latest_deadline_ = std::max(latest_deadline_, deadline);
  lane.at(lane.tail) = {deadline, seq, &node};
  node.lane = &lane;
  node.pos = lane.tail++;
  ++lane.armed;
  // A lane without a heap entry was empty, so the node is its front. A
  // lane whose entry is keyed on a cancelled front re-keys when it pops.
  if (!lane.queued) queue_lane(lane, kLaneTag | id);
}

void Scheduler::make_room(TimeoutLane& lane) {
  const std::size_t capacity = lane.ring.size();
  if (capacity != 0 && lane.armed * 2 <= capacity) {
    // Mostly cancelled: slide the armed entries together, in order. The
    // front keeps its position, so the lane's heap entry stays valid.
    std::uint64_t to = lane.head;
    for (std::uint64_t from = lane.head; from != lane.tail; ++from) {
      const TimeoutLane::Armed armed = lane.at(from);
      if (armed.node == nullptr) continue;
      armed.node->pos = to;
      lane.at(to++) = armed;
    }
    lane.tail = to;
    return;
  }
  // Rings grow to their high-water size and are then reused.
  const std::size_t bigger = capacity == 0 ? kLaneInitialCapacity : capacity * 2;
  std::vector<TimeoutLane::Armed> ring(bigger);
  for (std::uint64_t pos = lane.head; pos != lane.tail; ++pos) {
    ring[pos & (bigger - 1)] = lane.at(pos);
  }
  lane.ring.swap(ring);
}

void Scheduler::queue_lane(TimeoutLane& lane, std::uint32_t tag) {
  const TimeoutLane::Armed& front = lane.at(lane.head);
  push_entry(front.deadline, front.seq, tag);
  lane.queued = true;
}

bool Scheduler::keyed_on_front(const Entry& entry) {
  TimeoutLane& lane = *lanes_[entry.slot & ~kLaneTag];
  return lane.head != lane.tail && lane.at(lane.head).seq == entry.seq;
}

void Scheduler::rekey_lane(std::uint32_t tag) {
  TimeoutLane& lane = *lanes_[tag & ~kLaneTag];
  lane.queued = false;
  if (lane.head != lane.tail) queue_lane(lane, tag);
}

Scheduler::TimeoutNode* Scheduler::pop_lane_front(std::uint32_t tag) {
  TimeoutLane& lane = *lanes_[tag & ~kLaneTag];
  TimeoutNode* node = lane.at(lane.head++).node;
  --lane.armed;
  lane.skip_cancelled();
  rekey_lane(tag);
  node->lane = nullptr;
  return node;
}

void Scheduler::rekey_cancelled_fronts() {
  std::size_t i = 0;
  while (i < heap_.size()) {
    const Entry entry = heap_[i];
    if (entry.t != heap_[0].t || (entry.slot & kLaneTag) == 0 || keyed_on_front(entry)) {
      ++i;
      continue;
    }
    erase_at(i);
    rekey_lane(entry.slot);
    i = 0;  // erasing reorders the heap: rescan (exploration runs small models)
  }
}

void Scheduler::arm_poll(PollNode& node, Time period) {
  assert(node.idle != nullptr);
  std::size_t id = 0;
  while (id < poll_lanes_.size() && poll_lanes_[id].period != period) ++id;
  if (id == poll_lanes_.size()) {
    // rmclint:allow(zeroalloc): one lane per distinct poll period, made on first use
    poll_lanes_.emplace_back().period = period;
  }
  append_tick(poll_lanes_[id], node);
}

void Scheduler::append_tick(PollLane& lane, PollNode& node) {
  // rmclint:allow(zeroalloc): a lane's ring grows to its high-water size, then is reused
  lane.ticks.push_back({now_ + lane.period, seq_++, &node});
  ++polls_armed_;
}

Scheduler::PollLane* Scheduler::due_poll_lane(Time deadline) {
  PollLane* first = nullptr;
  for (PollLane& lane : poll_lanes_) {
    if (lane.ticks.empty()) continue;
    const PollLane::Tick& front = lane.ticks.front();
    if (first == nullptr ||
        before(front.t, front.seq, first->ticks.front().t, first->ticks.front().seq)) {
      first = &lane;
    }
  }
  const PollLane::Tick& tick = first->ticks.front();
  if (tick.t > deadline || (!heap_.empty() && !before(tick.t, tick.seq, heap_[0]))) {
    return nullptr;
  }
  return first;
}

void Scheduler::dispatch_tick(PollLane& lane) {
  const PollLane::Tick tick = lane.ticks.front();
  lane.ticks.pop_front();
  --polls_armed_;
  queue_depth_metric_->set(static_cast<std::int64_t>(heap_.size() + polls_armed_));
  now_ = tick.t;
  PollNode& node = *tick.node;
  if (node.idle(*this, node)) {
    append_tick(lane, node);  // where the waiter's own delay() would have re-armed it
    return;
  }
  ++events_processed_;
  events_metric_->inc();
  obs::ProfScope prof{kProfDispatch};
  node.waiter.resume();
}

std::size_t Scheduler::timeout_lane_capacity(Time duration) const {
  for (const auto& lane : lanes_) {
    if (lane->duration == duration) return lane->ring.size();
  }
  return 0;
}

void Scheduler::pop_top_into(Entry& out) {
  out = heap_[0];
  const std::size_t last = heap_.size() - 1;
  if (last > 0) {
    // Sift the former back element down from the root, moving the smallest
    // child up into the hole each level; one move per level, no swaps.
    const Entry tail = heap_[last];
    std::size_t hole = 0;
    for (;;) {
      const std::size_t first_child = hole * kArity + 1;
      if (first_child >= last) break;
      std::size_t best = first_child;
      const std::size_t fence = std::min(first_child + kArity, last);
      for (std::size_t c = first_child + 1; c < fence; ++c) {
        if (before(heap_[c].t, heap_[c].seq, heap_[best])) best = c;
      }
      if (!before(heap_[best].t, heap_[best].seq, tail)) break;
      heap_[hole] = heap_[best];
      hole = best;
    }
    heap_[hole] = tail;
  }
  heap_.pop_back();
}

void Scheduler::erase_at(std::size_t idx) {
  const std::size_t last = heap_.size() - 1;
  if (idx == last) {
    heap_.pop_back();
    return;
  }
  const Entry tail = heap_[last];
  heap_.pop_back();
  // The tail may belong above or below the hole; try sift-up first, then
  // sift-down from wherever the hole settled.
  std::size_t hole = idx;
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / kArity;
    if (!before(tail.t, tail.seq, heap_[parent])) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  const std::size_t size = heap_.size();
  for (;;) {
    const std::size_t first_child = hole * kArity + 1;
    if (first_child >= size) break;
    std::size_t best = first_child;
    const std::size_t fence = std::min(first_child + kArity, size);
    for (std::size_t c = first_child + 1; c < fence; ++c) {
      if (before(heap_[c].t, heap_[c].seq, heap_[best])) best = c;
    }
    if (!before(heap_[best].t, heap_[best].seq, tail)) break;
    heap_[hole] = heap_[best];
    hole = best;
  }
  heap_[hole] = tail;
}

void Scheduler::pop_choice_into(Entry& out) {
  const Time top = heap_[0].t;
  tie_scratch_.clear();
  for (std::uint32_t i = 0; i < heap_.size(); ++i) {
    // rmclint:allow(zeroalloc): exploration-only slow path, never on the default schedule
    if (heap_[i].t == top) tie_scratch_.emplace_back(heap_[i].seq, i);
  }
  if (tie_scratch_.size() == 1) {
    pop_top_into(out);
    return;
  }
  // Candidates in insertion order so index 0 == the default schedule.
  std::sort(tie_scratch_.begin(), tie_scratch_.end());
  std::size_t choice = tie_breaker_->pick(top, tie_scratch_.size());
  if (choice >= tie_scratch_.size()) choice = 0;
  const std::size_t idx = tie_scratch_[choice].second;
  out = heap_[idx];
  erase_at(idx);
}

void Scheduler::spawn(Task<> task) {
  auto handle = task.detach();
  handle.promise().link_before(roots_);  // at the tail
  resume_at(now_, handle);
}

Time Scheduler::run() { return run_until(kNoTimeout); }

Time Scheduler::run_until(Time deadline) {
  Entry entry;
  for (;;) {
    if (tie_breaker_ != nullptr) rekey_cancelled_fronts();
    if (polls_armed_ != 0) {
      if (PollLane* lane = due_poll_lane(deadline)) {
        dispatch_tick(*lane);
        continue;
      }
    }
    if (heap_.empty() || heap_[0].t > deadline) break;
    if (tie_breaker_ == nullptr) {
      pop_top_into(entry);
    } else {
      pop_choice_into(entry);
    }
    const bool lane = (entry.slot & kLaneTag) != 0;
    if (lane && !keyed_on_front(entry)) {
      rekey_lane(entry.slot);  // its front was cancelled: no event
      continue;
    }
    queue_depth_metric_->set(static_cast<std::int64_t>(heap_.size() + polls_armed_));
    now_ = entry.t;
    ++events_processed_;
    events_metric_->inc();
    if (lane) {
      TimeoutNode* node = pop_lane_front(entry.slot);
      {
        obs::ProfScope prof{kProfDispatch};
        node->expire(*this, *node);
      }
      if (tie_breaker_ != nullptr) tie_breaker_->after_dispatch(now_);
      continue;
    }
    // Move the closure out before dispatching: the callback may push new
    // events (growing/reusing slots_) and may destroy queued frames via
    // teardown. The local dies at scope end, before the next pop.
    UniqueFunction fn = std::move(slots_[entry.slot]);
    // rmclint:allow(zeroalloc): returns a slot index to the freelist; capacity reached at warmup
    free_slots_.push_back(entry.slot);
    {
      obs::ProfScope prof{kProfDispatch};
      fn();
    }
    if (tie_breaker_ != nullptr) tie_breaker_->after_dispatch(now_);
  }
  // Where a schedule that dispatched every cancelled timeout would stand.
  if (latest_deadline_ <= deadline) now_ = std::max(now_, latest_deadline_);
  return now_;
}

void attach_log_clock(Scheduler* sched) {
  if (!sched) {
    set_log_clock(nullptr, nullptr);
    return;
  }
  set_log_clock(
      [](void* ctx) -> std::uint64_t {
        return static_cast<Scheduler*>(ctx)->now();
      },
      sched);
}

}  // namespace rmc::sim
