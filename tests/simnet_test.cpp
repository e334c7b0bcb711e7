// Unit tests for the discrete-event substrate: scheduler ordering, task
// composition, events, counters (incl. timeout races), timeout lanes, poll
// lanes, channels, CPU occupancy, fabric timing, and the move-only function
// wrapper.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <numeric>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "simnet/channel.hpp"
#include "simnet/cpu.hpp"
#include "simnet/event.hpp"
#include "simnet/explore.hpp"
#include "simnet/fabric.hpp"
#include "simnet/netparams.hpp"
#include "simnet/scheduler.hpp"
#include "simnet/task.hpp"
#include "simnet/unique_function.hpp"

namespace rmc::sim {
namespace {

using namespace rmc::literals;

// ---------------------------------------------------------- scheduler ----

TEST(Scheduler, EventsFireInTimeOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.call_at(30, [&] { order.push_back(3); });
  sched.call_at(10, [&] { order.push_back(1); });
  sched.call_at(20, [&] { order.push_back(2); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.now(), 30u);
}

TEST(Scheduler, SameTimeFiresInInsertionOrder) {
  Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) sched.call_at(5, [&, i] { order.push_back(i); });
  sched.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Scheduler, CallbacksCanScheduleMore) {
  Scheduler sched;
  int hits = 0;
  sched.call_at(1, [&] {
    ++hits;
    sched.call_in(1, [&] { ++hits; });
  });
  sched.run();
  EXPECT_EQ(hits, 2);
  EXPECT_EQ(sched.now(), 2u);
}

TEST(Scheduler, RunUntilStopsAtDeadline) {
  Scheduler sched;
  int hits = 0;
  sched.call_at(10, [&] { ++hits; });
  sched.call_at(100, [&] { ++hits; });
  sched.run_until(50);
  EXPECT_EQ(hits, 1);
  sched.run();
  EXPECT_EQ(hits, 2);
}

TEST(Scheduler, EventsProcessedCounts) {
  Scheduler sched;
  for (int i = 0; i < 5; ++i) sched.call_at(i, [] {});
  sched.run();
  EXPECT_EQ(sched.events_processed(), 5u);
}

// --------------------------------------------------------------- task ----

Task<int> answer(Scheduler& sched) {
  co_await sched.delay(10);
  co_return 42;
}

Task<int> twice(Scheduler& sched) {
  const int a = co_await answer(sched);
  const int b = co_await answer(sched);
  co_return a + b;
}

TEST(Task, AwaitChainsAndReturnsValues) {
  Scheduler sched;
  int result = 0;
  sched.spawn([](Scheduler& s, int& out) -> Task<> {
    out = co_await twice(s);
  }(sched, result));
  sched.run();
  EXPECT_EQ(result, 84);
  EXPECT_EQ(sched.now(), 20u);
}

Task<int> thrower(Scheduler& sched) {
  co_await sched.delay(1);
  throw std::runtime_error("boom");
}

TEST(Task, ExceptionsPropagateAcrossCoAwait) {
  Scheduler sched;
  bool caught = false;
  sched.spawn([](Scheduler& s, bool& flag) -> Task<> {
    try {
      (void)co_await thrower(s);
    } catch (const std::runtime_error&) {
      flag = true;
    }
  }(sched, caught));
  sched.run();
  EXPECT_TRUE(caught);
}

TEST(Task, BlockedRootIsReclaimedAtTeardown) {
  // Roots blocked forever must not leak (ASAN would flag it), and a root
  // that finished has freed itself already: teardown destroys exactly the
  // still-blocked frames, in spawn order, each once. Every frame logs its
  // id when it is destroyed.
  struct Guard {
    std::vector<int>* log;
    int id;
    ~Guard() { log->push_back(id); }
  };
  std::vector<int> destroyed;
  auto sched = std::make_unique<Scheduler>();
  auto ch = std::make_unique<Channel<int>>(*sched);
  struct Root {
    static Task<> run(Scheduler& s, Channel<int>& c, std::vector<int>& log, int id) {
      Guard guard{&log, id};
      if (id % 3 == 1) {
        co_await s.delay(static_cast<Time>(10 * id));
        // Spawned while older roots are blocked and others have finished.
        if (id == 4) s.spawn(run(s, c, log, 6));
        co_return;
      }
      (void)co_await c.recv();  // never satisfied
    }
  };
  for (int id = 0; id < 6; ++id) sched->spawn(Root::run(*sched, *ch, destroyed, id));
  sched->run();
  EXPECT_EQ(destroyed, (std::vector<int>{1, 4}));
  destroyed.clear();
  sched.reset();  // must destroy the suspended frames
  EXPECT_EQ(destroyed, (std::vector<int>{0, 2, 3, 5, 6}));
}

TEST(Task, SpawnManyRootsAllRun) {
  Scheduler sched;
  int done = 0;
  for (int i = 0; i < 100; ++i) {
    sched.spawn([](Scheduler& s, int& d, int delay) -> Task<> {
      co_await s.delay(static_cast<Time>(delay));
      ++d;
    }(sched, done, i));
  }
  sched.run();
  EXPECT_EQ(done, 100);
}

// -------------------------------------------------------------- event ----

TEST(Event, WakesAllWaiters) {
  Scheduler sched;
  Event ev(sched);
  int woken = 0;
  for (int i = 0; i < 3; ++i) {
    sched.spawn([](Event& e, int& w) -> Task<> {
      co_await e.wait();
      ++w;
    }(ev, woken));
  }
  sched.call_at(100, [&] { ev.set(); });
  sched.run();
  EXPECT_EQ(woken, 3);
  EXPECT_EQ(sched.now(), 100u);
}

TEST(Event, WaitAfterSetIsImmediate) {
  Scheduler sched;
  Event ev(sched);
  ev.set();
  bool ran = false;
  sched.spawn([](Event& e, bool& f) -> Task<> {
    co_await e.wait();
    f = true;
  }(ev, ran));
  sched.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sched.now(), 0u);
}

// ------------------------------------------------------------ counter ----

TEST(Counter, WaitGeqFiresWhenThresholdReached) {
  Scheduler sched;
  Counter c(sched);
  Time fired_at = 0;
  sched.spawn([](Scheduler& s, Counter& cc, Time& t) -> Task<> {
    const bool ok = co_await cc.wait_geq(3);
    EXPECT_TRUE(ok);
    t = s.now();
  }(sched, c, fired_at));
  sched.call_at(10, [&] { c.add(); });
  sched.call_at(20, [&] { c.add(); });
  sched.call_at(30, [&] { c.add(); });
  sched.run();
  EXPECT_EQ(fired_at, 30u);
  EXPECT_EQ(c.value(), 3u);
}

TEST(Counter, AlreadySatisfiedWaitIsImmediate) {
  Scheduler sched;
  Counter c(sched);
  c.add(5);
  bool ok = false;
  sched.spawn([](Counter& cc, bool& out) -> Task<> {
    out = co_await cc.wait_geq(5);
  }(c, ok));
  sched.run();
  EXPECT_TRUE(ok);
}

TEST(Counter, TimeoutFiresWhenCounterStalls) {
  Scheduler sched;
  Counter c(sched);
  bool ok = true;
  Time fired_at = 0;
  sched.spawn([](Scheduler& s, Counter& cc, bool& out, Time& t) -> Task<> {
    out = co_await cc.wait_geq(1, 500);
    t = s.now();
  }(sched, c, ok, fired_at));
  sched.run();
  EXPECT_FALSE(ok);
  EXPECT_EQ(fired_at, 500u);
}

TEST(Counter, CounterBeatsTimeout) {
  Scheduler sched;
  Counter c(sched);
  bool ok = false;
  sched.spawn([](Counter& cc, bool& out) -> Task<> {
    out = co_await cc.wait_geq(1, 500);
  }(c, ok));
  sched.call_at(100, [&] { c.add(); });
  sched.run();  // the stale timeout at t=500 must be a no-op
  EXPECT_TRUE(ok);
  EXPECT_EQ(sched.now(), 500u);
}

TEST(Counter, SimultaneousAddAndTimeoutIsDeterministic) {
  // Both the add and the timeout fire at t=500. The add was enqueued at
  // test-setup time (seq 1); the waiter's timeout lambda is only enqueued
  // when the spawned task first runs at t=0 (seq 2). Same-time events fire
  // in sequence order, so the add deterministically wins.
  Scheduler sched;
  Counter c(sched);
  bool ok = false;
  sched.spawn([](Counter& cc, bool& out) -> Task<> {
    out = co_await cc.wait_geq(1, 500);
  }(c, ok));
  sched.call_at(500, [&] { c.add(); });
  sched.run();
  EXPECT_TRUE(ok);
}

TEST(Counter, MultipleWaitersDifferentThresholds) {
  Scheduler sched;
  Counter c(sched);
  std::vector<int> order;
  for (int threshold : {3, 1, 2}) {
    sched.spawn([](Counter& cc, std::vector<int>& ord, int th) -> Task<> {
      co_await cc.wait_geq(static_cast<std::uint64_t>(th));
      ord.push_back(th);
    }(c, order, threshold));
  }
  sched.call_at(10, [&] { c.add(); });
  sched.call_at(20, [&] { c.add(); });
  sched.call_at(30, [&] { c.add(); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Counter, BatchAddWakesAllEligible) {
  Scheduler sched;
  Counter c(sched);
  int woken = 0;
  for (int th = 1; th <= 5; ++th) {
    sched.spawn([](Counter& cc, int& w, int th2) -> Task<> {
      co_await cc.wait_geq(static_cast<std::uint64_t>(th2));
      ++w;
    }(c, woken, th));
  }
  sched.call_at(1, [&] { c.add(10); });
  sched.run();
  EXPECT_EQ(woken, 5);
}

TEST(Counter, TimeoutArmedBeforeSameInstantAddWins) {
  // The mirror of SimultaneousAddAndTimeoutIsDeterministic: the add is
  // enqueued only after the waiter armed its timeout, so the timeout's
  // earlier sequence stamp wins the tie at t=500.
  Scheduler sched;
  Counter c(sched);
  bool ok = true;
  Time woke_at = 0;
  sched.spawn([](Scheduler& s, Counter& cc, bool& out, Time& t) -> Task<> {
    out = co_await cc.wait_geq(1, 500);
    t = s.now();
  }(sched, c, ok, woke_at));
  sched.call_at(0, [&] { sched.call_at(500, [&] { c.add(); }); });
  sched.run();
  EXPECT_FALSE(ok);
  EXPECT_EQ(woke_at, 500u);
  EXPECT_EQ(c.value(), 1u);
}

TEST(Counter, CompletedTimedWaitsKeepTheHeapSmall) {
  // Each wait arms a timeout in the 1 s lane rather than a heap entry of
  // its own, and completing the wait forgets it.
  Scheduler sched;
  Counter c(sched);
  auto& depth = obs::registry().gauge("sim.sched.queue_depth");
  depth.reset();
  constexpr std::uint64_t kWaits = 100000;
  std::uint64_t woken = 0;
  sched.spawn([](Scheduler& s, Counter& cc, std::uint64_t& w) -> Task<> {
    for (std::uint64_t i = 1; i <= kWaits; ++i) {
      s.call_in(10, [&cc] { cc.add(); });
      if (co_await cc.wait_geq(i, 1_s)) ++w;
    }
  }(sched, c, woken));
  sched.run();
  EXPECT_EQ(woken, kWaits);
  EXPECT_LE(depth.hwm(), 4);
  // The spawn, then per wait: the add and the wake-up. A cancelled timeout
  // costs no event, but run() still ends at the latest armed deadline.
  EXPECT_EQ(sched.events_processed(), 1 + 2 * kWaits);
  EXPECT_EQ(sched.now(), (kWaits - 1) * 10 + 1_s);
}

TEST(Counter, DestroyedCounterStillTimesOutItsTimedWaiter) {
  Scheduler sched;
  auto c = std::make_unique<Counter>(sched);
  bool ok = true;
  Time woke_at = 0;
  sched.spawn([](Scheduler& s, Counter& cc, bool& out, Time& t) -> Task<> {
    out = co_await cc.wait_geq(1, 500);
    t = s.now();
  }(sched, *c, ok, woke_at));
  sched.call_at(100, [&] { c.reset(); });
  sched.run();
  EXPECT_FALSE(ok);
  EXPECT_EQ(woke_at, 500u);
}

TEST(Counter, FrameDestroyedWithArmedTimeoutIsNeverResumed) {
  Scheduler sched;
  Counter c(sched);
  bool resumed = false;
  auto frame = [](Counter& cc, bool& r) -> Task<> {
    (void)co_await cc.wait_geq(1, 500);
    r = true;
  }(c, resumed).detach();
  sched.resume_at(0, frame);
  sched.call_at(100, [&] { frame.destroy(); });
  auto& timeouts = obs::registry().counter("sim.counter.timeouts");
  const auto timeouts_before = timeouts.value();
  sched.run();
  EXPECT_FALSE(resumed);
  EXPECT_EQ(timeouts.value(), timeouts_before);
  // The start and the destroy; the cancelled timeout costs no event, but
  // run() still ends at its deadline.
  EXPECT_EQ(sched.events_processed(), 2u);
  EXPECT_EQ(sched.now(), 500u);
  c.add();  // the frame unlinked itself from the counter too
  sched.run();
  EXPECT_FALSE(resumed);
  EXPECT_EQ(sched.events_processed(), 2u);
}

// ------------------------------------------------------ timeout lanes ----
//
// Probes arm Scheduler timeouts directly and log their expiry. A reference
// call_in() closure armed right behind each probe takes the next sequence
// stamp, so a lane that dispatches each timeout at the (t, seq) key a
// closure timer would have puts every probe's 'T' immediately before its
// own 'R'.

using Log = std::vector<std::pair<char, int>>;

struct Probe : Scheduler::TimeoutNode {
  int id = 0;
  Log* log = nullptr;
  Probe() {
    expire = [](Scheduler&, Scheduler::TimeoutNode& n) {
      auto& p = static_cast<Probe&>(n);
      p.log->emplace_back('T', p.id);
    };
  }
};

std::deque<Probe> make_probes(int n, Log& log) {
  std::deque<Probe> probes(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    probes[static_cast<std::size_t>(i)].id = i;
    probes[static_cast<std::size_t>(i)].log = &log;
  }
  return probes;
}

void arm_with_reference(Scheduler& sched, Probe& p, Time dt) {
  sched.arm_timeout(p, dt);
  sched.call_in(dt, [&p] { p.log->emplace_back('R', p.id); });
}

TEST(TimeoutLane, InterleavedDurationsExpireInGlobalOrder) {
  // Pairs armed every 100 ns into a 200 ns and a 300 ns lane: deadlines of
  // the two lanes interleave and tie (k*100 + 300 == (k+1)*100 + 200).
  Scheduler sched;
  Log log;
  constexpr int kProbes = 40;
  auto probes = make_probes(kProbes, log);
  auto deadline = [](int i) -> Time {
    return static_cast<Time>(i / 2) * 100 + (i % 2 == 0 ? 200 : 300);
  };
  for (int i = 0; i < kProbes; ++i) {
    Probe& p = probes[static_cast<std::size_t>(i)];
    const Time dt = i % 2 == 0 ? 200 : 300;
    sched.call_at(static_cast<Time>(i / 2) * 100,
                  [&sched, &p, dt] { arm_with_reference(sched, p, dt); });
  }
  sched.run();

  std::vector<int> order(kProbes);
  std::iota(order.begin(), order.end(), 0);  // arm order
  std::stable_sort(order.begin(), order.end(),
                   [&](int a, int b) { return deadline(a) < deadline(b); });
  Log expected;
  for (int id : order) {
    expected.emplace_back('T', id);
    expected.emplace_back('R', id);
  }
  EXPECT_EQ(log, expected);
  EXPECT_EQ(sched.events_processed(), 3u * kProbes);  // arm, timeout, reference
}

TEST(TimeoutLane, OrderHoldsWhileTheRingWrapsAndGrows) {
  // One 1000 ns lane. Arming every 20 ns keeps ~50 timeouts pending, so the
  // 64-entry ring wraps; arming every 2 ns from t=3000 keeps ~500 pending,
  // so the wrapped ring doubles. Every third probe is cancelled halfway to
  // its deadline and must cost no event.
  Scheduler sched;
  Log log;
  std::vector<Time> arm_at;
  for (Time t = 0; t < 3000; t += 20) arm_at.push_back(t);
  for (Time t = 3000; t < 4000; t += 2) arm_at.push_back(t);
  const int n = static_cast<int>(arm_at.size());
  auto probes = make_probes(n, log);
  Log expected;
  for (int i = 0; i < n; ++i) {
    Probe& p = probes[static_cast<std::size_t>(i)];
    const Time at = arm_at[static_cast<std::size_t>(i)];
    sched.call_at(at, [&sched, &p] { arm_with_reference(sched, p, 1000); });
    if (i % 3 == 0) {
      sched.call_at(at + 500, [&p] { Scheduler::cancel_timeout(p); });
    } else {
      expected.emplace_back('T', i);
    }
    expected.emplace_back('R', i);
  }
  sched.run();
  EXPECT_EQ(log, expected);
  for (const Probe& p : probes) EXPECT_FALSE(p.armed());
  // Per probe: the arm, the reference, and the expiry or the cancel.
  EXPECT_EQ(sched.events_processed(), 3u * static_cast<std::uint64_t>(n));
  EXPECT_EQ(sched.now(), arm_at.back() + 1000);
}

TEST(TimeoutLane, RingStaysBoundedBehindALongArmedFront) {
  // One timeout stays armed at the 1 s lane's front for the whole run,
  // while a million timed waits of the same duration complete behind it.
  // The cancelled entries can never leave through the head, so the ring
  // must compact them away: its size follows the armed timeouts, not the
  // number of waits.
  Scheduler sched;
  Log log;
  auto probes = make_probes(1, log);
  sched.arm_timeout(probes[0], 1_s);
  Counter c(sched);
  constexpr std::uint64_t kWaits = 1000000;
  std::uint64_t woken = 0;
  sched.spawn([](Scheduler& s, Counter& cc, std::uint64_t& w) -> Task<> {
    for (std::uint64_t i = 1; i <= kWaits; ++i) {
      s.call_in(100, [&cc] { cc.add(); });
      if (co_await cc.wait_geq(i, 1_s)) ++w;
    }
  }(sched, c, woken));
  sched.run_until(kWaits * 100);
  EXPECT_EQ(woken, kWaits);
  EXPECT_TRUE(probes[0].armed());
  EXPECT_LE(sched.timeout_lane_capacity(1_s), 128u);
  sched.run();
  EXPECT_EQ(log, (Log{{'T', 0}}));
  EXPECT_EQ(sched.now(), (kWaits - 1) * 100 + 1_s);
}

/// Dispatches the last tied candidate: the reverse of the default schedule
/// at every genuine race.
class LastPick final : public TieBreaker {
 public:
  std::size_t pick(Time t, std::size_t ready) override {
    (void)t;
    return ready - 1;
  }
};

TEST(TimeoutLane, SameDurationTiesFireInArmOrderUnderAnyTieBreaker) {
  // Four 500 ns timeouts armed at t=0 from separate closures (so the
  // breaker decides their arm order) race closures queued for t=500.
  // Only a lane's front is a heap candidate, so however the breaker picks,
  // same-lane timeouts that expire at one instant fire in arm order.
  for (std::uint64_t round = 0; round <= 20; ++round) {
    Scheduler sched;
    LastPick last;
    ScheduleExplorer perm = ScheduleExplorer::permutation(round);
    perm.begin_run();
    sched.set_tie_breaker(round == 0 ? static_cast<TieBreaker*>(&last) : &perm);
    Log log;
    auto probes = make_probes(4, log);
    std::vector<int> armed;
    for (int i = 0; i < 4; ++i) {
      sched.call_at(0, [&sched, &probes, &armed, i] {
        armed.push_back(i);
        sched.arm_timeout(probes[static_cast<std::size_t>(i)], 500);
      });
      sched.call_at(500, [&log, i] { log.emplace_back('C', i); });
    }
    sched.run();
    std::vector<int> fired;
    std::vector<int> closures;
    for (const auto& [kind, id] : log) (kind == 'T' ? fired : closures).push_back(id);
    EXPECT_EQ(fired, armed) << "round " << round;
    if (round == 0) {
      // The breaker really reversed every race it saw.
      EXPECT_EQ(armed, (std::vector<int>{3, 2, 1, 0}));
      EXPECT_EQ(closures, (std::vector<int>{3, 2, 1, 0}));
    }
  }
}

TEST(TimeoutLane, WhereRunAndRunUntilLeaveTheClock) {
  // A cancelled timeout never dispatches, but run() and run_until(d) still
  // end where a schedule that dispatched it as a no-op would have, unless
  // some timeout armed is due after d (the scheduler header's contract).
  Scheduler sched;
  Log log;
  auto probes = make_probes(2, log);
  sched.arm_timeout(probes[0], 300);
  sched.arm_timeout(probes[1], 800);
  sched.call_at(100, [&] { Scheduler::cancel_timeout(probes[0]); });
  // Probe 1, due at 800, is after d: the clock stays at the last event,
  // before probe 0's cancelled deadline.
  EXPECT_EQ(sched.run_until(500), 100u);
  EXPECT_EQ(sched.run_until(1000), 800u);
  EXPECT_EQ(log, (Log{{'T', 1}}));

  sched.arm_timeout(probes[0], 400);  // due at 1200, then cancelled
  Scheduler::cancel_timeout(probes[0]);
  sched.call_at(900, [] {});
  EXPECT_EQ(sched.run_until(1100), 900u);
  EXPECT_EQ(sched.run_until(5000), 1200u);  // no event left; the deadline is not after d
  EXPECT_EQ(sched.run(), 1200u);
  // The cancel, probe 1's expiry and the closure at 900.
  EXPECT_EQ(sched.events_processed(), 3u);
}

TEST(TimeoutLane, ACancelledFrontIsNeverATieBreakerCandidate) {
  // Probes 0 and 1 share the 500 ns lane and a deadline; probe 2 expires
  // 10 ns later. Cancelling probe 0, the front, leaves the lane's heap
  // entry keyed on it. At t=500 that entry must re-key on probe 1 before
  // the breaker looks, so the breaker sees exactly one race of two: probe
  // 1 against the closure queued for t=500.
  for (const bool reverse : {false, true}) {
    struct Recorder final : TieBreaker {
      bool reverse = false;
      std::vector<std::pair<Time, std::size_t>> races;
      std::size_t pick(Time t, std::size_t ready) override {
        races.emplace_back(t, ready);
        return reverse ? ready - 1 : 0;
      }
    } recorder;
    recorder.reverse = reverse;
    Scheduler sched;
    sched.set_tie_breaker(&recorder);
    Log log;
    auto probes = make_probes(3, log);
    sched.arm_timeout(probes[0], 500);
    sched.arm_timeout(probes[1], 500);
    sched.call_at(10, [&] { sched.arm_timeout(probes[2], 500); });
    sched.call_at(100, [&] { Scheduler::cancel_timeout(probes[0]); });
    sched.call_at(500, [&log] { log.emplace_back('C', 0); });
    sched.run();
    EXPECT_EQ(recorder.races, (std::vector<std::pair<Time, std::size_t>>{{500, 2}}));
    const Log expected = reverse ? Log{{'C', 0}, {'T', 1}, {'T', 2}}
                                 : Log{{'T', 1}, {'C', 0}, {'T', 2}};
    EXPECT_EQ(log, expected);
    // The arm closure, the cancel, the closure and two expiries.
    EXPECT_EQ(sched.events_processed(), 5u);
    EXPECT_EQ(sched.now(), 510u);
  }
}

TEST(TimeoutLane, SchedulerTeardownDisarmsSurvivingNodes) {
  Log log;
  auto probes = make_probes(2, log);
  {
    Scheduler sched;
    sched.arm_timeout(probes[0], 100);
    sched.arm_timeout(probes[1], 100);
    Scheduler::cancel_timeout(probes[0]);
    EXPECT_TRUE(probes[1].armed());
  }
  EXPECT_FALSE(probes[0].armed());
  EXPECT_FALSE(probes[1].armed());
  EXPECT_TRUE(log.empty());
}

// --------------------------------------------------------- poll lanes ----

/// A poller watching a mailbox that closures bump: idle while nothing new
/// has arrived.
struct Poller : Scheduler::PollNode {
  int id = 0;
  std::uint64_t mail = 0;          ///< bumped by the scenario's closures
  std::uint64_t seen = 0;          ///< mail handled so far
  std::uint64_t idle_resumes = 0;  ///< resumes at a tick that found nothing new
  Poller() {
    idle = [](Scheduler&, Scheduler::PollNode& n) {
      const auto& p = static_cast<const Poller&>(n);
      return p.mail == p.seen;
    };
  }
};

/// Every dispatched closure and every wake-up: (time, kind, id, the
/// sim.sched.queue_depth sample the scheduler took for it).
using Dispatches = std::vector<std::tuple<Time, char, int, std::int64_t>>;

void note(Dispatches& log, Time t, char kind, int id) {
  static const obs::Gauge& depth = obs::registry().gauge("sim.sched.queue_depth");
  log.emplace_back(t, kind, id, depth.value());
}

/// Poll `p` every `period` until `last` mails have been seen, with poll()
/// or with the delay() loop it replaces. Each wake-up queues a closure,
/// which takes a seq stamp that must keep its place.
Task<> watch(Scheduler& sched, Poller& p, Time period, bool use_poll, std::uint64_t last,
             Dispatches& log) {
  bool ticked = false;
  for (;;) {
    if (p.mail == p.seen) {
      if (ticked) ++p.idle_resumes;
    } else {
      p.seen = p.mail;
      note(log, sched.now(), 'W', p.id);
      if (p.seen >= last) co_return;
      sched.call_in(static_cast<Time>(p.id) * 10,
                    [&sched, &log, id = p.id] { note(log, sched.now(), 'E', id); });
    }
    ticked = true;
    if (use_poll) {
      co_await sched.poll(p, period);
    } else {
      co_await sched.delay(period);
    }
  }
}

struct PollRun {
  Dispatches log;
  Time clock_on_grid = 0;   ///< after run_until(1000), a tick of the 200 ns grid
  Time clock_off_grid = 0;  ///< after run_until(2170), no poller's tick
  Time clock_end = 0;       ///< after run()
  std::uint64_t events = 0;
  std::uint64_t idle_resumes = 0;
  std::int64_t depth_hwm = 0;  ///< of sim.sched.queue_depth
};

/// Six pollers: three on one 200 ns grid from t=0, one on the same period
/// 50 ns later, and two on a 300 ns grid from 130 and from 0. Each gets
/// six mails, every third tick, on or between its ticks. A mail at a tick
/// is queued either in the period before the previous tick, so it takes
/// its seq before that idle tick re-arms and is seen at its own tick, or
/// inside the previous period, so it dispatches after its tick and is
/// seen one period later.
PollRun run_pollers(bool use_poll, TieBreaker* breaker) {
  struct Grid {
    Time start;
    Time period;
  };
  constexpr Grid kGrids[] = {{0, 200}, {0, 200}, {0, 200}, {50, 200}, {130, 300}, {0, 300}};
  constexpr int kPollers = 6;
  constexpr int kMails = 6;
  obs::Gauge& depth = obs::registry().gauge("sim.sched.queue_depth");
  depth.reset();
  PollRun out;
  Scheduler sched;
  if (breaker != nullptr) sched.set_tie_breaker(breaker);
  std::deque<Poller> pollers(kPollers);
  for (int i = 0; i < kPollers; ++i) {
    Poller& p = pollers[static_cast<std::size_t>(i)];
    p.id = i;
    const Grid grid = kGrids[i];
    sched.call_at(grid.start, [&sched, &p, &out, grid, use_poll] {
      sched.spawn(watch(sched, p, grid.period, use_poll, kMails, out.log));
    });
    for (int k = 1; k <= kMails; ++k) {
      const Time tick = grid.start + static_cast<Time>(3 * k + i % 3) * grid.period;
      auto deliver = [&sched, &p, &out, k] {
        ++p.mail;
        note(out.log, sched.now(), 'C', p.id * 10 + k);
      };
      if (k % 3 == 2) {
        sched.call_at(tick + 37, deliver);
        continue;
      }
      const Time queued = tick - (k % 3 == 0 ? grid.period * 3 / 2 : grid.period / 2);
      sched.call_at(queued, [&sched, tick, deliver] { sched.call_at(tick, deliver); });
    }
  }
  out.clock_on_grid = sched.run_until(1'000);
  out.clock_off_grid = sched.run_until(2'170);
  out.clock_end = sched.run();
  out.events = sched.events_processed();
  for (const Poller& p : pollers) {
    EXPECT_EQ(p.seen, static_cast<std::uint64_t>(kMails)) << "poller " << p.id;
    out.idle_resumes += p.idle_resumes;
  }
  out.depth_hwm = depth.hwm();
  return out;
}

void expect_same_run(const PollRun& delayed, const PollRun& polled) {
  EXPECT_EQ(polled.log, delayed.log);
  EXPECT_EQ(polled.clock_on_grid, delayed.clock_on_grid);
  EXPECT_EQ(polled.clock_off_grid, delayed.clock_off_grid);
  EXPECT_EQ(polled.clock_end, delayed.clock_end);
  EXPECT_EQ(polled.events - polled.idle_resumes, delayed.events - delayed.idle_resumes);
  EXPECT_EQ(polled.depth_hwm, delayed.depth_hwm);
}

TEST(PollLane, DispatchesAsADelayLoopDoesWithoutIdleTicks) {
  const PollRun delayed = run_pollers(false, nullptr);
  const PollRun polled = run_pollers(true, nullptr);
  expect_same_run(delayed, polled);
  // The delay() loop resumed at idle ticks; poll() resumed only to work.
  EXPECT_GT(delayed.idle_resumes, 30u);
  EXPECT_EQ(polled.idle_resumes, 0u);
  EXPECT_EQ(polled.events + delayed.idle_resumes, delayed.events);
  EXPECT_EQ(polled.clock_on_grid, 1'000u);
  // 36 mails, each seen by one wake-up, each but the last six with an echo.
  EXPECT_EQ(std::count_if(polled.log.begin(), polled.log.end(),
                          [](const auto& d) { return std::get<1>(d) == 'W'; }),
            36);
}

TEST(PollLane, UnderATieBreakerPollIsADelay) {
  // poll() sleeps with delay() under a breaker, so both runs offer the
  // breaker the same candidates and it permutes them alike.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    ScheduleExplorer for_delay = ScheduleExplorer::permutation(seed);
    ScheduleExplorer for_poll = ScheduleExplorer::permutation(seed);
    for_delay.begin_run();
    for_poll.begin_run();
    const PollRun delayed = run_pollers(false, &for_delay);
    const PollRun polled = run_pollers(true, &for_poll);
    SCOPED_TRACE(seed);
    expect_same_run(delayed, polled);
    EXPECT_EQ(polled.idle_resumes, delayed.idle_resumes);
    EXPECT_GT(polled.idle_resumes, 30u);
  }
}

// ------------------------------------------------------------ channel ----

TEST(Channel, FifoDelivery) {
  Scheduler sched;
  Channel<int> ch(sched);
  std::vector<int> got;
  sched.spawn([](Channel<int>& c, std::vector<int>& out) -> Task<> {
    for (int i = 0; i < 3; ++i) {
      auto v = co_await c.recv();
      EXPECT_TRUE(v.has_value());
      if (v) out.push_back(*v);
    }
  }(ch, got));
  sched.call_at(10, [&] { ch.send(1); });
  sched.call_at(20, [&] {
    ch.send(2);
    ch.send(3);
  });
  sched.run();
  EXPECT_EQ(got, (std::vector<int>{1, 2, 3}));
}

TEST(Channel, RecvBeforeSendSuspends) {
  Scheduler sched;
  Channel<std::string> ch(sched);
  Time got_at = 0;
  sched.spawn([](Scheduler& s, Channel<std::string>& c, Time& t) -> Task<> {
    auto v = co_await c.recv();
    EXPECT_EQ(*v, "hi");
    t = s.now();
  }(sched, ch, got_at));
  sched.call_at(77, [&] { ch.send("hi"); });
  sched.run();
  EXPECT_EQ(got_at, 77u);
}

TEST(Channel, CloseWakesWaitersWithNullopt) {
  Scheduler sched;
  Channel<int> ch(sched);
  bool closed_seen = false;
  sched.spawn([](Channel<int>& c, bool& f) -> Task<> {
    auto v = co_await c.recv();
    f = !v.has_value();
  }(ch, closed_seen));
  sched.call_at(5, [&] { ch.close(); });
  sched.run();
  EXPECT_TRUE(closed_seen);
}

TEST(Channel, DrainAfterCloseDeliversQueued) {
  Scheduler sched;
  Channel<int> ch(sched);
  ch.send(9);
  ch.close();
  std::vector<int> got;
  bool end_seen = false;
  sched.spawn([](Channel<int>& c, std::vector<int>& out, bool& end) -> Task<> {
    while (true) {
      auto v = co_await c.recv();
      if (!v) {
        end = true;
        co_return;
      }
      out.push_back(*v);
    }
  }(ch, got, end_seen));
  sched.run();
  EXPECT_EQ(got, std::vector<int>{9});
  EXPECT_TRUE(end_seen);
}

TEST(Channel, TryRecvNonBlocking) {
  Scheduler sched;
  Channel<int> ch(sched);
  EXPECT_FALSE(ch.try_recv().has_value());
  ch.send(4);
  auto v = ch.try_recv();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 4);
}

TEST(Channel, MoveOnlyPayloads) {
  Scheduler sched;
  Channel<std::unique_ptr<int>> ch(sched);
  ch.send(std::make_unique<int>(31));
  int got = 0;
  sched.spawn([](Channel<std::unique_ptr<int>>& c, int& out) -> Task<> {
    auto v = co_await c.recv();
    out = **v;
  }(ch, got));
  sched.run();
  EXPECT_EQ(got, 31);
}

TEST(Channel, TwoConsumersShareStream) {
  Scheduler sched;
  Channel<int> ch(sched);
  std::vector<int> a, b;
  auto consumer = [](Channel<int>& c, std::vector<int>& out) -> Task<> {
    while (true) {
      auto v = co_await c.recv();
      if (!v) co_return;
      out.push_back(*v);
    }
  };
  sched.spawn(consumer(ch, a));
  sched.spawn(consumer(ch, b));
  sched.call_at(1, [&] { ch.send(1); });
  sched.call_at(2, [&] { ch.send(2); });
  sched.call_at(3, [&] { ch.close(); });
  sched.run();
  EXPECT_EQ(a.size() + b.size(), 2u);
}

// ---------------------------------------------------------------- cpu ----

TEST(Cpu, SingleCoreSerializes) {
  Scheduler sched;
  CpuResource cpu(sched, 1);
  std::vector<Time> done;
  for (int i = 0; i < 3; ++i) {
    sched.spawn([](Scheduler& s, CpuResource& c, std::vector<Time>& out) -> Task<> {
      co_await c.consume(100);
      out.push_back(s.now());
    }(sched, cpu, done));
  }
  sched.run();
  EXPECT_EQ(done, (std::vector<Time>{100, 200, 300}));
  EXPECT_EQ(cpu.busy_ns(), 300u);
}

TEST(Cpu, MultiCoreRunsInParallel) {
  Scheduler sched;
  CpuResource cpu(sched, 4);
  std::vector<Time> done;
  for (int i = 0; i < 4; ++i) {
    sched.spawn([](Scheduler& s, CpuResource& c, std::vector<Time>& out) -> Task<> {
      co_await c.consume(100);
      out.push_back(s.now());
    }(sched, cpu, done));
  }
  sched.run();
  for (Time t : done) EXPECT_EQ(t, 100u);
}

TEST(Cpu, ZeroCostIsFree) {
  Scheduler sched;
  CpuResource cpu(sched, 1);
  bool ran = false;
  sched.spawn([](CpuResource& c, bool& f) -> Task<> {
    co_await c.consume(0);
    f = true;
  }(cpu, ran));
  sched.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sched.now(), 0u);
}

TEST(Cpu, OversubscribedQueuesFairly) {
  Scheduler sched;
  CpuResource cpu(sched, 2);
  std::vector<Time> done;
  for (int i = 0; i < 6; ++i) {
    sched.spawn([](Scheduler& s, CpuResource& c, std::vector<Time>& out) -> Task<> {
      co_await c.consume(50);
      out.push_back(s.now());
    }(sched, cpu, done));
  }
  sched.run();
  // 6 jobs x 50ns over 2 cores -> completion waves at 50, 100, 150.
  EXPECT_EQ(done, (std::vector<Time>{50, 50, 100, 100, 150, 150}));
}

// ------------------------------------------------------------- fabric ----

struct TestPacket : Packet {
  int tag;
  TestPacket(NicAddr s, NicAddr d, std::uint64_t bytes, int t)
      : Packet(s, d, bytes), tag(t) {}
};

TEST(Fabric, DeliversWithLatencyAndBandwidth) {
  Scheduler sched;
  Host h0(sched, 0, "n0", 8), h1(sched, 1, "n1", 8);
  Fabric fabric(sched, LinkParams{.bandwidth_Bpns = 1.0, .wire_latency = 1000,
                                  .per_message_overhead_bytes = 0});
  Nic& a = fabric.add_nic(h0);
  Nic& b = fabric.add_nic(h1);

  Time delivered_at = 0;
  int tag = 0;
  sched.spawn([](Scheduler& s, Nic& nic, Time& t, int& tg) -> Task<> {
    auto p = co_await nic.inbox.recv();
    t = s.now();
    tg = static_cast<TestPacket&>(**p).tag;
  }(sched, b, delivered_at, tag));

  fabric.transmit(std::make_unique<TestPacket>(a.addr(), b.addr(), 4000, 7));
  sched.run();
  // 4000 B at 1 B/ns + 1000 ns wire = 5000 ns.
  EXPECT_EQ(delivered_at, 5000u);
  EXPECT_EQ(tag, 7);
  EXPECT_EQ(a.tx_messages(), 1u);
  EXPECT_EQ(b.rx_messages(), 1u);
}

TEST(Fabric, SenderSerializationQueuesBackToBack) {
  Scheduler sched;
  Host h0(sched, 0, "n0", 8), h1(sched, 1, "n1", 8);
  Fabric fabric(sched, LinkParams{.bandwidth_Bpns = 1.0, .wire_latency = 100,
                                  .per_message_overhead_bytes = 0});
  Nic& a = fabric.add_nic(h0);
  Nic& b = fabric.add_nic(h1);

  std::vector<Time> arrivals;
  sched.spawn([](Scheduler& s, Nic& nic, std::vector<Time>& out) -> Task<> {
    for (int i = 0; i < 2; ++i) {
      (void)co_await nic.inbox.recv();
      out.push_back(s.now());
    }
  }(sched, b, arrivals));

  fabric.transmit(std::make_unique<TestPacket>(a.addr(), b.addr(), 1000, 0));
  fabric.transmit(std::make_unique<TestPacket>(a.addr(), b.addr(), 1000, 1));
  sched.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], 1100u);  // 1000 tx + 100 wire
  EXPECT_EQ(arrivals[1], 2100u);  // second waits for the first to serialize
}

TEST(Fabric, ReceiverCongestionFromManySenders) {
  Scheduler sched;
  Host server_host(sched, 0, "server", 8);
  Fabric fabric(sched, LinkParams{.bandwidth_Bpns = 1.0, .wire_latency = 100,
                                  .per_message_overhead_bytes = 0});
  Nic& server = fabric.add_nic(server_host);

  std::vector<std::unique_ptr<Host>> hosts;
  std::vector<Time> arrivals;
  sched.spawn([](Scheduler& s, Nic& nic, std::vector<Time>& out) -> Task<> {
    for (int i = 0; i < 4; ++i) {
      (void)co_await nic.inbox.recv();
      out.push_back(s.now());
    }
  }(sched, server, arrivals));

  for (int i = 0; i < 4; ++i) {
    hosts.push_back(std::make_unique<Host>(sched, i + 1, "c", 8));
    Nic& cnic = fabric.add_nic(*hosts.back());
    fabric.transmit(std::make_unique<TestPacket>(cnic.addr(), server.addr(), 1000, i));
  }
  sched.run();
  ASSERT_EQ(arrivals.size(), 4u);
  // All four senders transmit concurrently, but the server's receive link
  // serializes: deliveries are 1000 ns apart.
  EXPECT_EQ(arrivals[0], 1100u);
  EXPECT_EQ(arrivals[1], 2100u);
  EXPECT_EQ(arrivals[2], 3100u);
  EXPECT_EQ(arrivals[3], 4100u);
}

TEST(Fabric, LoopbackSkipsWire) {
  Scheduler sched;
  Host h(sched, 0, "n0", 8);
  Fabric fabric(sched, one_gige_link());
  Nic& a = fabric.add_nic(h);
  Time at = 0;
  sched.spawn([](Scheduler& s, Nic& nic, Time& t) -> Task<> {
    (void)co_await nic.inbox.recv();
    t = s.now();
  }(sched, a, at));
  fabric.transmit(std::make_unique<TestPacket>(a.addr(), a.addr(), 100, 0));
  sched.run();
  EXPECT_LT(at, one_gige_link().wire_latency);
}

TEST(Fabric, PresetsAreOrderedByBandwidth) {
  EXPECT_GT(ib_qdr_link().bandwidth_Bpns, ib_ddr_link().bandwidth_Bpns);
  EXPECT_GT(ib_ddr_link().bandwidth_Bpns, ten_gige_link().bandwidth_Bpns);
  EXPECT_GT(ten_gige_link().bandwidth_Bpns, one_gige_link().bandwidth_Bpns);
}

// ---------------------------------------------------- unique_function ----

TEST(UniqueFunction, InvokesInlineClosure) {
  int x = 0;
  UniqueFunction f([&x] { x = 5; });
  f();
  EXPECT_EQ(x, 5);
}

TEST(UniqueFunction, OwnsMoveOnlyCapture) {
  auto p = std::make_unique<int>(11);
  int got = 0;
  UniqueFunction f([p = std::move(p), &got] { got = *p; });
  f();
  EXPECT_EQ(got, 11);
}

TEST(UniqueFunction, MoveTransfersOwnership) {
  int calls = 0;
  UniqueFunction f([&calls] { ++calls; });
  UniqueFunction g(std::move(f));
  EXPECT_FALSE(static_cast<bool>(f));  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(static_cast<bool>(g));
  g();
  EXPECT_EQ(calls, 1);
}

TEST(UniqueFunction, LargeClosureGoesToHeap) {
  std::array<char, 256> big{};
  big[0] = 'a';
  char got = 0;
  UniqueFunction f([big, &got] { got = big[0]; });
  UniqueFunction g(std::move(f));
  g();
  EXPECT_EQ(got, 'a');
}

TEST(UniqueFunction, DestroysCaptureExactlyOnce) {
  auto counter = std::make_shared<int>(0);
  {
    UniqueFunction f([counter] { (void)counter; });
    EXPECT_EQ(counter.use_count(), 2);
    UniqueFunction g(std::move(f));
    EXPECT_EQ(counter.use_count(), 2);
  }
  EXPECT_EQ(counter.use_count(), 1);
}

}  // namespace
}  // namespace rmc::sim
