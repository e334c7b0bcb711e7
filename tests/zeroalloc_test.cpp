// The hot-path allocation budget, verified end to end: once warm, a GET
// over UCR performs ZERO heap allocations per request — client
// marshalling, verbs transmit/receive, scheduler dispatch, the timed reply
// wait at the default op_timeout, server worker, store lookup, eager reply,
// and the client-side landing of the value are all pooled, intrusive, or
// on the stack.
//
// This TU replaces the global operator new/delete with counting wrappers;
// the steady-state loop asserts the counter does not move. A completed
// wait forgets its timeout, so a timeout lane's ring holds only the
// timeouts still armed and reaches its high-water size in the first few
// ops. Each warm-up still ends by idling one op_timeout of sim time, so
// the counted loop starts from a quiet scheduler.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <string>

#include "core/testbed.hpp"
#include "memcached/client.hpp"
#include "memcached/server.hpp"
#include "obs/profiler.hpp"
#include "onesided/publisher.hpp"
#include "rfp/ring_server.hpp"
#include "simnet/netparams.hpp"

namespace {
// Not atomic on purpose: the simulation is single-threaded, and the counter
// must not perturb codegen on the hot path.
long long g_news = 0;

// Every replacement below allocates and frees through this one out-of-line
// pair, so no inlined path ever pairs a call to operator new with free().
[[gnu::noinline]] void* counted_alloc(std::size_t n, std::size_t align) {
  ++g_news;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(n)
                : std::aligned_alloc(align, (n + align - 1) & ~(align - 1));
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}
[[gnu::noinline]] void counted_free(void* p) noexcept { std::free(p); }

constexpr std::size_t kDefaultAlign = alignof(std::max_align_t);
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n, kDefaultAlign); }
void* operator new[](std::size_t n) { return counted_alloc(n, kDefaultAlign); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { counted_free(p); }

namespace rmc::mc {
namespace {

using sim::Scheduler;
using sim::Task;

std::span<const std::byte> val(const std::string& s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

/// Idle time after each warm-up: one default op_timeout plus 1 ns, so every
/// timeout the warm-up armed has expired.
const sim::Time kDrainTimeouts = ClientBehavior{}.op_timeout + 1;

// Spawning a root allocates nothing beyond its pooled frame: the
// scheduler threads its live roots through their promises, and a root
// that finishes unlinks itself and leaves nothing behind.
TEST(ZeroAlloc, SpawnedRootsAllocateNothing) {
  Scheduler sched;
  int finished = 0;
  auto round = [&] {
    for (int i = 0; i < 1000; ++i) {
      sched.spawn([](Scheduler& s, int& n) -> Task<> {
        co_await s.delay(1);
        ++n;
      }(sched, finished));
    }
    sched.run();
  };
  round();  // warm: frame pool, event heap and closure slots

  const long long before = g_news;
  for (int r = 0; r < 10; ++r) round();
  const long long delta = g_news - before;

  EXPECT_EQ(finished, 11000);
  EXPECT_EQ(delta, 0) << "heap allocations per spawned root";
}

TEST(ZeroAlloc, SteadyStateUcrGetAllocatesNothing) {
  Scheduler sched;
  sim::Fabric ib{sched, sim::ib_qdr_link()};
  sim::Host server_host{sched, 0, "server", 8};
  sim::Host client_host{sched, 1, "client", 8};
  verbs::Hca server_hca{sched, ib, server_host};
  verbs::Hca client_hca{sched, ib, client_host};
  ucr::Runtime server_ucr{server_hca};
  ucr::Runtime client_ucr{client_hca};
  Server server{sched, server_host, {}};
  server.attach_ucr_frontend(server_ucr);

  Client client{sched, client_host, {}};
  client.add_server_ucr(client_ucr, server_ucr.addr(), server.config().port);

  bool done = false;
  long long delta = -1;
  long long failures = 0;

  sched.spawn([](Scheduler& s, Client& cli, bool& fin, long long& delta2,
                 long long& failures2) -> Task<> {
    // ASSERT_* expands to `return;`, ill-formed in a coroutine — check by hand.
    if (!(co_await cli.connect_all()).ok()) { ADD_FAILURE() << "connect"; co_return; }
    const std::string value(64, 'v');
    if (!(co_await cli.set("hot-key", val(value), 7)).ok()) {
      ADD_FAILURE() << "set";
      co_return;
    }

    std::array<std::byte, 256> dest;
    // Warm-up: fill every pool and free list (scheduler heap, timeout lane
    // ring, packet and frame pools, staging slots, slot maps, worker
    // queues, metrics).
    for (int i = 0; i < 12000; ++i) {
      auto r = co_await cli.get_into("hot-key", dest);
      if (!r.ok() || r->value_len != 64) { ADD_FAILURE() << "warm-up get"; co_return; }
    }
    co_await s.delay(kDrainTimeouts);

    // Steady state: 10k GETs, zero allocations. No gtest macros inside the
    // loop — even their success paths are not audited for allocation.
    const long long before = g_news;
    for (int i = 0; i < 10000; ++i) {
      auto r = co_await cli.get_into("hot-key", dest);
      if (!r.ok() || r->value_len != 64 || r->flags != 7) ++failures2;
    }
    delta2 = g_news - before;
    fin = true;
  }(sched, client, done, delta, failures));
  sched.run();

  EXPECT_TRUE(done);
  EXPECT_EQ(failures, 0);
  EXPECT_EQ(delta, 0) << "heap allocations on the steady-state GET path";
}

// A small UCR SET over RPC: the server's header handler allocates the item
// and notes it until the eager value lands in its slab chunk, in a
// per-connection vector that keeps its capacity. Once warm, a SET
// allocates nothing at either end.
TEST(ZeroAlloc, SteadyStateUcrSetAllocatesNothing) {
  Scheduler sched;
  sim::Fabric ib{sched, sim::ib_qdr_link()};
  sim::Host server_host{sched, 0, "server", 8};
  sim::Host client_host{sched, 1, "client", 8};
  verbs::Hca server_hca{sched, ib, server_host};
  verbs::Hca client_hca{sched, ib, client_host};
  ucr::Runtime server_ucr{server_hca};
  ucr::Runtime client_ucr{client_hca};
  Server server{sched, server_host, {}};
  server.attach_ucr_frontend(server_ucr);

  Client client{sched, client_host, {}};
  client.add_server_ucr(client_ucr, server_ucr.addr(), server.config().port);

  bool done = false;
  long long delta = -1;
  long long failures = 0;

  sched.spawn([](Scheduler& s, Client& cli, bool& fin, long long& delta2,
                 long long& failures2) -> Task<> {
    if (!(co_await cli.connect_all()).ok()) { ADD_FAILURE() << "connect"; co_return; }
    const std::string value(64, 'v');
    for (int i = 0; i < 12000; ++i) {
      if (!(co_await cli.set("hot-key", val(value), 7)).ok()) {
        ADD_FAILURE() << "warm-up set";
        co_return;
      }
    }
    co_await s.delay(kDrainTimeouts);

    const long long before = g_news;
    for (int i = 0; i < 10000; ++i) {
      if (!(co_await cli.set("hot-key", val(value), 7)).ok()) ++failures2;
    }
    delta2 = g_news - before;
    fin = true;
  }(sched, client, done, delta, failures));
  sched.run();

  EXPECT_TRUE(done);
  EXPECT_EQ(failures, 0);
  EXPECT_EQ(delta, 0) << "heap allocations on the steady-state SET path";
}

// The batched multiget inherits the property: one mget_into round — key
// block pack, doorbell-batched sub-request issue, server-side single-pass
// lookup + scatter-gather chunking, batch-drained reply, slot scatter —
// allocates nothing once warm. Slots and key views live on this frame;
// values land in the client arena.
TEST(ZeroAlloc, SteadyStateUcrMgetAllocatesNothing) {
  Scheduler sched;
  sim::Fabric ib{sched, sim::ib_qdr_link()};
  sim::Host server_host{sched, 0, "server", 8};
  sim::Host client_host{sched, 1, "client", 8};
  verbs::Hca server_hca{sched, ib, server_host};
  verbs::Hca client_hca{sched, ib, client_host};
  ucr::Runtime server_ucr{server_hca};
  ucr::Runtime client_ucr{client_hca};
  Server server{sched, server_host, {}};
  server.attach_ucr_frontend(server_ucr);

  Client client{sched, client_host, {}};
  client.add_server_ucr(client_ucr, server_ucr.addr(), server.config().port);

  bool done = false;
  long long delta = -1;
  long long failures = 0;

  sched.spawn([](Scheduler& s, Client& cli, bool& fin, long long& delta2,
                 long long& failures2) -> Task<> {
    if (!(co_await cli.connect_all()).ok()) { ADD_FAILURE() << "connect"; co_return; }
    constexpr std::size_t kWidth = 16;
    std::array<std::string, kWidth> keys;
    std::array<std::string_view, kWidth> views;
    std::array<mc::MgetSlot, kWidth> slots;
    const std::string value(64, 'v');
    for (std::size_t i = 0; i < kWidth; ++i) {
      keys[i] = "mget-key-" + std::to_string(i);
      views[i] = keys[i];
      if (!(co_await cli.set(keys[i], val(value), 7)).ok()) {
        ADD_FAILURE() << "set " << i;
        co_return;
      }
    }

    // Warm-up: pools, counter free list, timeout lane ring, slot maps,
    // worker scratch, the server's chunk plan vectors, metrics and
    // latency-span registrations.
    for (int i = 0; i < 2500; ++i) {
      auto st = co_await cli.mget_into(views, slots);
      if (!st.ok()) { ADD_FAILURE() << "warm-up mget"; co_return; }
    }
    co_await s.delay(kDrainTimeouts);

    const long long before = g_news;
    for (int i = 0; i < 2000; ++i) {
      auto st = co_await cli.mget_into(views, slots);
      if (!st.ok()) ++failures2;
      for (std::size_t k = 0; k < kWidth; ++k) {
        if (!slots[k].hit || slots[k].value_len != 64 || slots[k].flags != 7) ++failures2;
      }
    }
    delta2 = g_news - before;
    fin = true;
  }(sched, client, done, delta, failures));
  sched.run();

  EXPECT_TRUE(done);
  EXPECT_EQ(failures, 0);
  EXPECT_EQ(delta, 0) << "heap allocations on the steady-state mget path";
}

// A one-sided GET hit is one RDMA Read the server CPU never sees: the
// runtime's in-flight record for it recycles a slot, so once warm the
// read, its completion and the client-side checks allocate nothing.
TEST(ZeroAlloc, SteadyStateOneSidedGetAllocatesNothing) {
  Scheduler sched;
  sim::Fabric ib{sched, sim::ib_qdr_link()};
  sim::Host server_host{sched, 0, "server", 8};
  sim::Host client_host{sched, 1, "client", 8};
  verbs::Hca server_hca{sched, ib, server_host};
  verbs::Hca client_hca{sched, ib, client_host};
  ucr::Runtime server_ucr{server_hca};
  ucr::Runtime client_ucr{client_hca};
  Server server{sched, server_host, {}};
  server.attach_ucr_frontend(server_ucr);
  onesided::Publisher publisher{server_ucr, server_host, server.store()};

  ClientBehavior behavior;
  behavior.mode = ClientBehavior::Mode::onesided_get;
  Client client{sched, client_host, behavior};
  client.add_server_ucr(client_ucr, server_ucr.addr(), server.config().port);

  bool done = false;
  long long delta = -1;
  long long failures = 0;
  std::uint64_t reads = 0;

  sched.spawn([](Scheduler& s, Client& cli, bool& fin, long long& delta2,
                 long long& failures2, std::uint64_t& reads2) -> Task<> {
    if (!(co_await cli.connect_all()).ok()) { ADD_FAILURE() << "connect"; co_return; }
    const std::string value(64, 'v');
    if (!(co_await cli.set("hot-key", val(value), 7)).ok()) {
      ADD_FAILURE() << "set";
      co_return;
    }

    std::array<std::byte, 256> dest;
    for (int i = 0; i < 12000; ++i) {
      auto r = co_await cli.get_into("hot-key", dest);
      if (!r.ok() || r->value_len != 64) { ADD_FAILURE() << "warm-up get"; co_return; }
    }
    co_await s.delay(kDrainTimeouts);

    obs::Counter& read_metric = obs::registry().counter("mc.oneside.reads");
    const std::uint64_t reads_before = read_metric.value();
    const long long before = g_news;
    for (int i = 0; i < 10000; ++i) {
      auto r = co_await cli.get_into("hot-key", dest);
      if (!r.ok() || r->value_len != 64 || r->flags != 7) ++failures2;
    }
    delta2 = g_news - before;
    reads2 = read_metric.value() - reads_before;
    fin = true;
  }(sched, client, done, delta, failures, reads));
  sched.run();

  EXPECT_TRUE(done);
  EXPECT_EQ(failures, 0);
  EXPECT_GE(reads, 10000u) << "the GETs did not ride RDMA Reads";
  EXPECT_EQ(delta, 0) << "heap allocations on the steady-state one-sided GET path";
}

// One-sided GETs with a SET every tenth op: each SET republishes the key
// in the index and charges the publish work through the publisher's
// charge loop, which is spawned again whenever it has drained. Once warm,
// neither the republish nor the re-spawned loop allocates.
TEST(ZeroAlloc, SteadyStateOneSidedGetWithSetsAllocatesNothing) {
  Scheduler sched;
  sim::Fabric ib{sched, sim::ib_qdr_link()};
  sim::Host server_host{sched, 0, "server", 8};
  sim::Host client_host{sched, 1, "client", 8};
  verbs::Hca server_hca{sched, ib, server_host};
  verbs::Hca client_hca{sched, ib, client_host};
  ucr::Runtime server_ucr{server_hca};
  ucr::Runtime client_ucr{client_hca};
  Server server{sched, server_host, {}};
  server.attach_ucr_frontend(server_ucr);
  onesided::Publisher publisher{server_ucr, server_host, server.store()};

  ClientBehavior behavior;
  behavior.mode = ClientBehavior::Mode::onesided_get;
  Client client{sched, client_host, behavior};
  client.add_server_ucr(client_ucr, server_ucr.addr(), server.config().port);

  bool done = false;
  long long delta = -1;
  long long failures = 0;
  std::uint64_t publishes = 0;

  sched.spawn([](Scheduler& s, Client& cli, bool& fin, long long& delta2,
                 long long& failures2, std::uint64_t& publishes2) -> Task<> {
    if (!(co_await cli.connect_all()).ok()) { ADD_FAILURE() << "connect"; co_return; }
    const std::string value(64, 'v');
    std::array<std::byte, 256> dest;
    auto op = [&](int i) -> Task<bool> {
      if (i % 10 == 9) co_return (co_await cli.set("hot-key", val(value), 7)).ok();
      auto r = co_await cli.get_into("hot-key", dest);
      co_return r.ok() && r->value_len == 64 && r->flags == 7;
    };
    if (!(co_await cli.set("hot-key", val(value), 7)).ok()) {
      ADD_FAILURE() << "set";
      co_return;
    }
    for (int i = 0; i < 12000; ++i) {
      if (!co_await op(i)) { ADD_FAILURE() << "warm-up op"; co_return; }
    }
    co_await s.delay(kDrainTimeouts);

    obs::Counter& publish_metric = obs::registry().counter("mc.oneside.publishes");
    const std::uint64_t publishes_before = publish_metric.value();
    const long long before = g_news;
    for (int i = 0; i < 10000; ++i) {
      if (!co_await op(i)) ++failures2;
    }
    delta2 = g_news - before;
    publishes2 = publish_metric.value() - publishes_before;
    fin = true;
  }(sched, client, done, delta, failures, publishes));
  sched.run();

  EXPECT_TRUE(done);
  EXPECT_EQ(failures, 0);
  EXPECT_GE(publishes, 1000u) << "the SETs did not republish the key";
  EXPECT_EQ(delta, 0) << "heap allocations on one-sided GETs with SETs running";
}

// A GET whose value exceeds the eager limit, through the server: the reply
// is a rendezvous straight out of the slab, and the item stays pinned
// until the origin counter reports the client's RDMA Read. The server
// recycles the counters of finished replies, so once warm a 32 KiB GET
// allocates nothing at either end.
TEST(ZeroAlloc, SteadyStateRendezvousGetAllocatesNothing) {
  Scheduler sched;
  sim::Fabric ib{sched, sim::ib_qdr_link()};
  sim::Host server_host{sched, 0, "server", 8};
  sim::Host client_host{sched, 1, "client", 8};
  verbs::Hca server_hca{sched, ib, server_host};
  verbs::Hca client_hca{sched, ib, client_host};
  ucr::Runtime server_ucr{server_hca};
  ucr::Runtime client_ucr{client_hca};
  Server server{sched, server_host, {}};
  server.attach_ucr_frontend(server_ucr);

  Client client{sched, client_host, {}};
  client.add_server_ucr(client_ucr, server_ucr.addr(), server.config().port);

  constexpr std::size_t kValue = 32 * 1024;
  std::vector<std::byte> dest(kValue);
  bool done = false;
  long long delta = -1;
  long long failures = 0;
  std::uint64_t rendezvous = 0;

  sched.spawn([](Scheduler& s, Client& cli, std::vector<std::byte>& out, bool& fin,
                 long long& delta2, long long& failures2, std::uint64_t& rendezvous2) -> Task<> {
    if (!(co_await cli.connect_all()).ok()) { ADD_FAILURE() << "connect"; co_return; }
    const std::string value(kValue, 'v');
    if (!(co_await cli.set("big-key", val(value), 7)).ok()) {
      ADD_FAILURE() << "set";
      co_return;
    }
    for (int i = 0; i < 3000; ++i) {
      auto r = co_await cli.get_into("big-key", out);
      if (!r.ok() || r->value_len != kValue) { ADD_FAILURE() << "warm-up get"; co_return; }
    }
    co_await s.delay(kDrainTimeouts);

    obs::Counter& rendezvous_metric = obs::registry().counter("ucr.rendezvous.sends");
    const std::uint64_t rendezvous_before = rendezvous_metric.value();
    const long long before = g_news;
    for (int i = 0; i < 3000; ++i) {
      auto r = co_await cli.get_into("big-key", out);
      if (!r.ok() || r->value_len != kValue || r->flags != 7) ++failures2;
    }
    delta2 = g_news - before;
    rendezvous2 = rendezvous_metric.value() - rendezvous_before;
    fin = true;
  }(sched, client, dest, done, delta, failures, rendezvous));
  sched.run();

  EXPECT_TRUE(done);
  EXPECT_EQ(failures, 0);
  EXPECT_EQ(rendezvous, 3000u) << "the replies did not ride the rendezvous path";
  EXPECT_EQ(delta, 0) << "heap allocations on the steady-state rendezvous GET path";
}

// A rendezvous active message with origin and completion counters: the
// origin's record awaiting its acks, the target's pull record and the
// user header it keeps until the pull completes all recycle storage, so
// once warm a message allocates nothing on either runtime.
TEST(ZeroAlloc, SteadyStateRendezvousMessagesAllocateNothing) {
  Scheduler sched;
  sim::Fabric ib{sched, sim::ib_qdr_link()};
  sim::Host server_host{sched, 0, "server", 8};
  sim::Host client_host{sched, 1, "client", 8};
  verbs::Hca server_hca{sched, ib, server_host};
  verbs::Hca client_hca{sched, ib, client_host};
  ucr::Runtime server_ucr{server_hca};
  ucr::Runtime client_ucr{client_hca};
  constexpr std::uint16_t kMsg = 40;
  std::vector<std::byte> dest(32 * 1024);
  std::vector<std::byte> payload(dest.size(), std::byte{0x42});
  server_ucr.register_region(dest);
  client_ucr.register_region(payload);
  long long completions = 0;
  server_ucr.register_handler(
      kMsg, {.on_header = [&dest](ucr::Endpoint&, std::span<const std::byte>,
                                  std::uint32_t) { return std::span<std::byte>(dest); },
             .on_complete = [&completions](ucr::Endpoint&, std::span<const std::byte> header,
                                           std::span<std::byte> data) {
               if (header.size() == 96 && data.size() == 32 * 1024) ++completions;
             }});
  server_ucr.listen(7000, [](ucr::Endpoint&) {});
  ucr::Endpoint* ep = nullptr;
  sched.spawn([](ucr::Runtime& rt, sim::NicAddr dst, ucr::Endpoint*& out) -> Task<> {
    auto r = co_await rt.connect(dst, 7000);
    if (r.ok()) out = *r;
  }(client_ucr, server_ucr.addr(), ep));
  sched.run();
  ASSERT_NE(ep, nullptr);

  sim::Counter origin{sched};
  sim::Counter completion{sched};
  bool done = false;
  long long delta = -1;
  long long failures = 0;
  sched.spawn([](ucr::Runtime& rt, ucr::Endpoint& e, std::vector<std::byte>& data,
                 sim::Counter& org, sim::Counter& cpl, bool& fin, long long& delta2,
                 long long& failures2) -> Task<> {
    const std::array<std::byte, 96> header{};
    std::uint64_t sent = 0;
    auto one = [&]() -> Task<bool> {
      if (!rt.send_message(e, kMsg, header, data, &org, {}, &cpl).ok()) co_return false;
      ++sent;
      co_return (co_await org.wait_geq(sent)) && (co_await cpl.wait_geq(sent));
    };
    for (int i = 0; i < 2000; ++i) {
      if (!co_await one()) { ADD_FAILURE() << "warm-up message"; co_return; }
    }
    const long long before = g_news;
    for (int i = 0; i < 2000; ++i) {
      if (!co_await one()) ++failures2;
    }
    delta2 = g_news - before;
    fin = true;
  }(client_ucr, *ep, payload, origin, completion, done, delta, failures));
  sched.run();

  EXPECT_TRUE(done);
  EXPECT_EQ(failures, 0);
  EXPECT_EQ(completions, 4000);
  EXPECT_EQ(client_ucr.pending_op_count(), 0u);
  EXPECT_EQ(server_ucr.pending_op_count(), 0u);
  EXPECT_EQ(delta, 0) << "heap allocations on the steady-state rendezvous path";
}

// The RFP rings inherit the property for GET *and* SET: framing the
// request into the registered staging slot, the one-sided write out, the
// server's sweep + execute + response write, and the client's local
// response poll are all pooled or in-place. Request and response frames
// live in arenas sized at bootstrap; slot epochs replace clearing writes.
TEST(ZeroAlloc, SteadyStateRfpGetAndSetAllocateNothing) {
  Scheduler sched;
  sim::Fabric ib{sched, sim::ib_qdr_link()};
  sim::Host server_host{sched, 0, "server", 8};
  sim::Host client_host{sched, 1, "client", 8};
  verbs::Hca server_hca{sched, ib, server_host};
  verbs::Hca client_hca{sched, ib, client_host};
  ucr::Runtime server_ucr{server_hca};
  ucr::Runtime client_ucr{client_hca};
  Server server{sched, server_host, {}};
  server.attach_ucr_frontend(server_ucr);
  rfp::RingServer ring{server_ucr, server_host, server, {}};

  ClientBehavior behavior;
  behavior.mode = ClientBehavior::Mode::rfp;
  Client client{sched, client_host, behavior};
  client.add_server_ucr(client_ucr, server_ucr.addr(), server.config().port);

  bool done = false;
  long long get_delta = -1;
  long long set_delta = -1;
  long long failures = 0;

  sched.spawn([](Scheduler& s, Client& cli, bool& fin, long long& get_delta2,
                 long long& set_delta2, long long& failures2) -> Task<> {
    if (!(co_await cli.connect_all()).ok()) { ADD_FAILURE() << "connect"; co_return; }
    const std::string value(64, 'v');
    if (!(co_await cli.set("hot-key", val(value), 7)).ok()) {
      ADD_FAILURE() << "set";
      co_return;
    }

    std::array<std::byte, 256> dest;
    // Warm-up: rings bootstrapped, poll loop resident, every pool filled.
    // The idle between the two rounds parks the server's poll loop; the
    // second round wakes it and runs it back to its steady state.
    for (int round = 0; round < 2; ++round) {
      if (round == 1) co_await s.delay(kDrainTimeouts);
      for (int i = 0; i < 2000; ++i) {
        auto r = co_await cli.get_into("hot-key", dest);
        if (!r.ok() || r->value_len != 64) { ADD_FAILURE() << "warm-up get"; co_return; }
        if (!(co_await cli.set("hot-key", val(value), 7)).ok()) {
          ADD_FAILURE() << "warm-up set";
          co_return;
        }
      }
    }

    const long long get_before = g_news;
    for (int i = 0; i < 10000; ++i) {
      auto r = co_await cli.get_into("hot-key", dest);
      if (!r.ok() || r->value_len != 64 || r->flags != 7) ++failures2;
    }
    get_delta2 = g_news - get_before;

    const long long set_before = g_news;
    for (int i = 0; i < 10000; ++i) {
      if (!(co_await cli.set("hot-key", val(value), 7)).ok()) ++failures2;
    }
    set_delta2 = g_news - set_before;
    fin = true;
  }(sched, client, done, get_delta, set_delta, failures));
  sched.run();

  EXPECT_TRUE(done);
  EXPECT_EQ(failures, 0);
  EXPECT_EQ(get_delta, 0) << "heap allocations on the steady-state RFP GET path";
  EXPECT_EQ(set_delta, 0) << "heap allocations on the steady-state RFP SET path";
  // The ops above actually rode the rings (one bootstrapped client).
  EXPECT_EQ(ring.ring_count(), 1u);
  EXPECT_GT(obs::registry().counter("mc.rfp.ops").value(), 20000u);
}

// The text protocol over IPoIB, both ends of a GET and a SET: the client
// encodes the request into its connection's scratch and lands the value
// out of the parser's receive buffer; the server parses the request into
// views of its receive buffer, copies the key and value into the work's
// inline bytes, and renders the reply into its worker's scratch.
TEST(ZeroAlloc, SteadyStateTextGetAndSetOverIpoibAllocateNothing) {
  core::TestBed tb({.transport = core::TransportKind::ipoib});

  bool done = false;
  long long delta = -1;
  long long set_delta = -1;
  long long failures = 0;

  tb.scheduler().spawn([](Scheduler& s, core::TestBed& bed, bool& fin, long long& delta2,
                          long long& set_delta2, long long& failures2) -> Task<> {
    if (!(co_await bed.connect_all()).ok()) { ADD_FAILURE() << "connect"; co_return; }
    Client& cli = bed.client(0);
    const std::string value(64, 'v');
    if (!(co_await cli.set("hot-key", val(value), 7)).ok()) {
      ADD_FAILURE() << "set";
      co_return;
    }

    std::array<std::byte, 256> dest;
    for (int i = 0; i < 2000; ++i) {
      auto r = co_await cli.get_into("hot-key", dest);
      if (!r.ok() || r->value_len != 64) { ADD_FAILURE() << "warm-up get"; co_return; }
      if (!(co_await cli.set("hot-key", val(value), 7)).ok()) {
        ADD_FAILURE() << "warm-up set";
        co_return;
      }
    }
    co_await s.delay(kDrainTimeouts);

    const long long before = g_news;
    for (int i = 0; i < 10000; ++i) {
      auto r = co_await cli.get_into("hot-key", dest);
      if (!r.ok() || r->value_len != 64 || r->flags != 7) ++failures2;
    }
    delta2 = g_news - before;

    const long long set_before = g_news;
    for (int i = 0; i < 10000; ++i) {
      if (!(co_await cli.set("hot-key", val(value), 7)).ok()) ++failures2;
    }
    set_delta2 = g_news - set_before;
    fin = true;
  }(tb.scheduler(), tb, done, delta, set_delta, failures));
  tb.scheduler().run();

  EXPECT_TRUE(done);
  EXPECT_EQ(failures, 0);
  EXPECT_EQ(delta, 0) << "heap allocations on the steady-state text GET path";
  EXPECT_EQ(set_delta, 0) << "heap allocations on the steady-state text SET path";
}

// Same property with the attribution profiler ON: ProfScope push/pop and
// the latency-span timers are fixed-array / pre-registered writes, so
// profiling a run must not reintroduce per-request allocations — otherwise
// the profiler would distort the very hot path it measures.
TEST(ZeroAlloc, SteadyStateUcrGetWithProfilingAllocatesNothing) {
  Scheduler sched;
  sim::Fabric ib{sched, sim::ib_qdr_link()};
  sim::Host server_host{sched, 0, "server", 8};
  sim::Host client_host{sched, 1, "client", 8};
  verbs::Hca server_hca{sched, ib, server_host};
  verbs::Hca client_hca{sched, ib, client_host};
  ucr::Runtime server_ucr{server_hca};
  ucr::Runtime client_ucr{client_hca};
  Server server{sched, server_host, {}};
  server.attach_ucr_frontend(server_ucr);

  Client client{sched, client_host, {}};
  client.add_server_ucr(client_ucr, server_ucr.addr(), server.config().port);

  obs::profiler().reset();
  obs::profiler().enable();

  bool done = false;
  long long delta = -1;
  long long failures = 0;

  sched.spawn([](Scheduler& s, Client& cli, bool& fin, long long& delta2,
                 long long& failures2) -> Task<> {
    if (!(co_await cli.connect_all()).ok()) { ADD_FAILURE() << "connect"; co_return; }
    const std::string value(64, 'v');
    if (!(co_await cli.set("hot-key", val(value), 7)).ok()) {
      ADD_FAILURE() << "set";
      co_return;
    }

    std::array<std::byte, 256> dest;
    for (int i = 0; i < 12000; ++i) {
      auto r = co_await cli.get_into("hot-key", dest);
      if (!r.ok() || r->value_len != 64) { ADD_FAILURE() << "warm-up get"; co_return; }
    }
    co_await s.delay(kDrainTimeouts);

    const long long before = g_news;
    for (int i = 0; i < 10000; ++i) {
      auto r = co_await cli.get_into("hot-key", dest);
      if (!r.ok() || r->value_len != 64 || r->flags != 7) ++failures2;
    }
    delta2 = g_news - before;
    fin = true;
  }(sched, client, done, delta, failures));
  sched.run();

  obs::profiler().disable();
  EXPECT_TRUE(done);
  EXPECT_EQ(failures, 0);
  EXPECT_EQ(delta, 0) << "profiling reintroduced allocations on the GET path";
  EXPECT_GT(obs::profiler().sample_count(), 0u) << "profiler saw no scopes";
  obs::profiler().reset();
}

}  // namespace
}  // namespace rmc::mc
