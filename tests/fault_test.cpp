// Fault injection and failure recovery across the stack.
//
// Covers the failure semantics end to end: the FaultInjector's scripted
// link/node/partition faults at the fabric, RC retransmission and retry
// exhaustion at the verbs layer, fail_endpoint / keepalive / deferred
// reclamation at the UCR layer, and client retry + ketama ejection at the
// memcached layer. The governing invariant everywhere: endpoint failure
// is an *event*, never a silent hang — every in-flight operation resolves
// within its timeout budget.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "memcached/client.hpp"
#include "memcached/server.hpp"
#include "obs/metrics.hpp"
#include "simnet/faults.hpp"
#include "simnet/netparams.hpp"
#include "ucr/runtime.hpp"

namespace rmc {
namespace {

using namespace rmc::literals;
using sim::Scheduler;
using sim::Task;

constexpr std::uint16_t kMsgData = 7;

std::uint64_t metric(const char* name) { return obs::registry().counter(name).value(); }

std::span<const std::byte> bytes_view(const std::string& s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

/// Client/server pair over one fabric, with configurable client-side UCR
/// config (keepalive tests).
struct World {
  Scheduler sched;
  sim::Fabric fabric{sched, sim::ib_qdr_link()};
  sim::Host host_client{sched, 0, "client", 8};
  sim::Host host_server{sched, 1, "server", 8};
  verbs::Hca hca_client{sched, fabric, host_client};
  verbs::Hca hca_server{sched, fabric, host_server};
  ucr::Runtime client;
  ucr::Runtime server;

  ucr::Endpoint* client_ep = nullptr;
  ucr::Endpoint* server_ep = nullptr;
  int arrivals = 0;  ///< kMsgData messages delivered at the server

  explicit World(ucr::UcrConfig client_config = {})
      : client(hca_client, client_config), server(hca_server) {
    server.register_handler(
        kMsgData, {.on_complete = [this](ucr::Endpoint&, std::span<const std::byte>,
                                         std::span<std::byte>) { ++arrivals; }});
  }

  void establish(std::uint16_t port = 7000) {
    server.listen(port, [this](ucr::Endpoint& ep) { server_ep = &ep; });
    sched.spawn([](World& w, std::uint16_t port2) -> Task<> {
      auto r = co_await w.client.connect(w.server.addr(), port2);
      EXPECT_TRUE(r.ok());
      if (r.ok()) w.client_ep = *r;
    }(*this, port));
    // run_until, not run(): with keepalive enabled the prober loop keeps
    // the event queue non-empty forever.
    sched.run_until(sched.now() + 5_ms);
    ASSERT_NE(client_ep, nullptr);
    ASSERT_NE(server_ep, nullptr);
  }

  Status send_data(const std::string& payload, sim::Counter* completion = nullptr) {
    return client.send_message(*client_ep, kMsgData, bytes_view("h"), bytes_view(payload),
                               nullptr, {}, completion);
  }
};

// ------------------------------------------------- fabric fault hooks ----

TEST(FaultInjector, LinkDownDropsUntilLinkUp) {
  World w;
  w.establish();
  const std::uint64_t drops_before = metric("sim.fault.drops");
  const std::uint64_t rexmit_before = metric("verbs.rc.retransmits");

  w.fabric.faults().set_link_down(w.client.addr(), w.server.addr(), true);
  ASSERT_TRUE(w.send_data("hello").ok());
  w.sched.run_until(w.sched.now() + 2_ms);
  EXPECT_EQ(w.arrivals, 0);  // severed link: nothing got through
  EXPECT_GT(metric("sim.fault.drops"), drops_before);

  // Restore the link before the RC retry budget runs out: the pending
  // send is retransmitted and delivered — reliable transport heals.
  w.fabric.faults().set_link_down(w.client.addr(), w.server.addr(), false);
  w.sched.run();
  EXPECT_EQ(w.arrivals, 1);
  EXPECT_GT(metric("verbs.rc.retransmits"), rexmit_before);
}

TEST(FaultInjector, NodeDownSilencesBothDirections) {
  World w;
  w.establish();
  w.fabric.faults().set_node_down(w.server.addr(), true);
  ASSERT_TRUE(w.send_data("into the void").ok());
  w.sched.run_until(w.sched.now() + 2_ms);
  EXPECT_EQ(w.arrivals, 0);
  w.fabric.faults().set_node_down(w.server.addr(), false);
  w.sched.run();
  EXPECT_EQ(w.arrivals, 1);  // revived node receives the retransmit
}

TEST(FaultInjector, ScheduledPlanFiresAtTheScriptedTimes) {
  World w;
  w.establish();
  const sim::Time t0 = w.sched.now();
  w.fabric.faults().schedule({
      {t0 + 1_ms, {.kind = sim::Fault::Kind::node_down, .a = w.server.addr()}},
      {t0 + 2_ms, {.kind = sim::Fault::Kind::node_up, .a = w.server.addr()}},
  });
  EXPECT_FALSE(w.fabric.faults().node_down(w.server.addr()));
  w.sched.run_until(t0 + 1500_us);
  EXPECT_TRUE(w.fabric.faults().node_down(w.server.addr()));
  w.sched.run_until(t0 + 2500_us);
  EXPECT_FALSE(w.fabric.faults().node_down(w.server.addr()));
}

// ------------------------------------- RC reliability under link loss ----

TEST(RcReliability, LossWindowNeverLosesReliableMessages) {
  World w;
  w.establish();
  const std::uint64_t rexmit_before = metric("verbs.rc.retransmits");

  // 10% loss on the client<->server link, enabled only after the CM
  // handshake so the connection itself is never at risk.
  w.fabric.faults().set_link_loss(w.client.addr(), w.server.addr(), 100'000);
  constexpr int kMessages = 200;
  for (int i = 0; i < kMessages; ++i) {
    ASSERT_TRUE(w.send_data("payload-" + std::to_string(i)).ok());
  }
  w.sched.run();
  // Every single message arrived: drops were retransmitted underneath.
  EXPECT_EQ(w.arrivals, kMessages);
  EXPECT_GT(metric("verbs.rc.retransmits"), rexmit_before);
}

TEST(RcReliability, RetryExhaustionFailsTheEndpointInsteadOfHanging) {
  World w;
  w.establish();
  const std::uint64_t failures_before = metric("ucr.ep.failures");
  const std::uint64_t exhausted_before = metric("verbs.rc.retry_exhausted");
  int notified = 0;
  w.client.on_endpoint_down([&](ucr::Endpoint& ep, Errc) {
    EXPECT_EQ(ep.state(), ucr::EpState::failed);
    ++notified;
  });

  w.fabric.faults().set_node_down(w.server.addr(), true);
  sim::Counter completion(w.sched);
  bool woke = false, ok = true;
  ASSERT_TRUE(w.send_data("doomed", &completion).ok());
  w.sched.spawn([](sim::Counter& c, bool& woke2, bool& ok2) -> Task<> {
    ok2 = co_await c.wait_geq(1);  // no timeout: only failure can wake us
    woke2 = true;
  }(completion, woke, ok));

  w.sched.run();  // drains: retries exhaust, endpoint fails, waiter wakes
  EXPECT_TRUE(woke);
  EXPECT_FALSE(ok);
  EXPECT_EQ(notified, 1);
  EXPECT_EQ(w.client.endpoint_count(), 0u);  // reaped after the failure
  EXPECT_EQ(w.client.pending_op_count(), 0u);
  EXPECT_EQ(metric("ucr.ep.failures"), failures_before + 1);
  EXPECT_GT(metric("verbs.rc.retry_exhausted"), exhausted_before);
}

// ------------------------------------------- UCR failure as an event ----

TEST(EndpointFailure, FailEndpointWakesAllPendingWaitersImmediately) {
  World w;
  w.establish();
  // Server unreachable: the completion ack can never come back, so the
  // operation stays pending until something fails it.
  w.fabric.faults().set_node_down(w.server.addr(), true);

  sim::Counter completion(w.sched);
  ASSERT_TRUE(w.send_data("waiting forever", &completion).ok());
  ASSERT_GT(w.client.pending_op_count(), 0u);
  const sim::Time failed_at = w.sched.now() + 50_us;
  bool woke = false, ok = true;
  sim::Time woke_at = 0;
  w.sched.spawn([](World& wk, sim::Counter& c, bool& woke2, bool& ok2,
                   sim::Time& woke_at2) -> Task<> {
    ok2 = co_await c.wait_geq(1, 1_s);
    woke2 = true;
    woke_at2 = wk.sched.now();
  }(w, completion, woke, ok, woke_at));
  w.sched.call_at(failed_at, [&w] { w.client.fail_endpoint(*w.client_ep); });

  w.sched.run();
  EXPECT_TRUE(woke);
  EXPECT_FALSE(ok);
  // The waiter woke at the instant of failure, not after riding out the
  // 1 s timeout — failure is an event, not a timeout.
  EXPECT_EQ(woke_at, failed_at);
  EXPECT_EQ(w.client.pending_op_count(), 0u);
}

/// A waiter parked on `counter` with no timeout: only the counter or a
/// failure can wake it. Records whether it woke, how, and when.
struct Waiter {
  bool woke = false;
  bool ok = true;
  sim::Time at = 0;
};

void park(Scheduler& sched, sim::Counter& counter, Waiter& out) {
  sched.spawn([](Scheduler& s, sim::Counter& c, Waiter& w) -> Task<> {
    w.ok = co_await c.wait_geq(1);
    w.woke = true;
    w.at = s.now();
  }(sched, counter, out));
}

void expect_failed_at(const Waiter& w, sim::Time failed_at) {
  EXPECT_TRUE(w.woke);
  EXPECT_FALSE(w.ok);
  EXPECT_EQ(w.at, failed_at);
}

TEST(EndpointFailure, RendezvousOriginAwaitingItsAckWakesItsWaiters) {
  World w;
  w.establish();
  // The server never hears the rendezvous header, so the origin waits for
  // its ack until the endpoint fails.
  w.fabric.faults().set_node_down(w.server.addr(), true);
  std::vector<std::byte> payload(64 * 1024, std::byte{0x42});
  w.client.register_region(payload);
  sim::Counter origin(w.sched);
  sim::Counter completion(w.sched);
  ASSERT_TRUE(w.client
                  .send_message(*w.client_ep, kMsgData, bytes_view("h"), payload, &origin, {},
                                &completion)
                  .ok());
  EXPECT_EQ(w.client.pending_op_count(), 1u);
  Waiter origin_waiter, completion_waiter;
  park(w.sched, origin, origin_waiter);
  park(w.sched, completion, completion_waiter);
  const sim::Time failed_at = w.sched.now() + 50_us;
  w.sched.call_at(failed_at, [&w] { w.client.fail_endpoint(*w.client_ep); });

  w.sched.run();
  expect_failed_at(origin_waiter, failed_at);
  expect_failed_at(completion_waiter, failed_at);
  EXPECT_EQ(origin.value(), 0u);
  EXPECT_EQ(completion.value(), 0u);
  EXPECT_EQ(w.arrivals, 0);
  EXPECT_EQ(w.client.pending_op_count(), 0u);
  EXPECT_EQ(w.server.pending_op_count(), 0u);
}

TEST(EndpointFailure, TargetPullInFlightDeliversNothing) {
  World w;
  // The target names a destination, so it pulls the payload with an RDMA
  // Read; both endpoints fail while that Read is in flight.
  std::vector<std::byte> dest(256 * 1024);
  w.server.register_region(dest);
  int completions = 0;
  sim::Time failed_at = 0;
  std::size_t server_pending_at_failure = 0;
  std::size_t client_pending_at_failure = 0;
  w.server.register_handler(
      kMsgData,
      {.on_header =
           [&](ucr::Endpoint&, std::span<const std::byte>, std::uint32_t) {
             failed_at = w.sched.now() + 5_us;
             w.sched.call_at(failed_at, [&] {
               server_pending_at_failure = w.server.pending_op_count();
               client_pending_at_failure = w.client.pending_op_count();
               w.server.fail_endpoint(*w.server_ep);
               w.client.fail_endpoint(*w.client_ep);
             });
             return std::span<std::byte>(dest);
           },
       .on_complete = [&](ucr::Endpoint&, std::span<const std::byte>,
                          std::span<std::byte>) { ++completions; }});
  auto target = w.server.make_counter();
  const ucr::CounterRef target_ref = w.server.export_counter(*target);
  w.establish();
  const std::uint64_t failures_before = metric("ucr.ep.failures");

  std::vector<std::byte> payload(dest.size(), std::byte{0x42});
  w.client.register_region(payload);
  sim::Counter origin(w.sched);
  sim::Counter completion(w.sched);
  ASSERT_TRUE(w.client
                  .send_message(*w.client_ep, kMsgData, bytes_view("h"), payload, &origin,
                                target_ref, &completion)
                  .ok());
  Waiter origin_waiter, completion_waiter, target_waiter;
  park(w.sched, origin, origin_waiter);
  park(w.sched, completion, completion_waiter);
  park(w.sched, *target, target_waiter);

  // The Read's flushed completion arrives after the failure and must find
  // nothing to deliver.
  w.sched.run();
  ASSERT_GT(failed_at, 0);
  EXPECT_EQ(server_pending_at_failure, 1u);  // the pull
  EXPECT_EQ(client_pending_at_failure, 1u);  // the origin awaiting its ack
  expect_failed_at(origin_waiter, failed_at);
  expect_failed_at(completion_waiter, failed_at);
  EXPECT_EQ(completions, 0);
  EXPECT_FALSE(target_waiter.woke);
  EXPECT_EQ(target->value(), 0u);
  EXPECT_EQ(metric("ucr.ep.failures"), failures_before + 2);
  EXPECT_EQ(w.client.pending_op_count(), 0u);
  EXPECT_EQ(w.server.pending_op_count(), 0u);
}

TEST(EndpointFailure, TargetPullFailedDuringItsDispatchDeliversNothing) {
  // The simulation is deterministic: a first run finds when the pulled
  // message is delivered, and a second fails the target's endpoint 1 ns
  // before that, after the Read completed but inside the dispatch charge.
  sim::Time delivered_at = 0;
  for (const bool fail : {false, true}) {
    World w;
    std::vector<std::byte> dest(64 * 1024);
    w.server.register_region(dest);
    int completions = 0;
    w.server.register_handler(
        kMsgData,
        {.on_header = [&](ucr::Endpoint&, std::span<const std::byte>,
                          std::uint32_t) { return std::span<std::byte>(dest); },
         .on_complete = [&](ucr::Endpoint&, std::span<const std::byte>,
                            std::span<std::byte>) {
           ++completions;
           delivered_at = w.sched.now();
         }});
    auto target = w.server.make_counter();
    const ucr::CounterRef target_ref = w.server.export_counter(*target);
    w.establish();
    std::vector<std::byte> payload(dest.size(), std::byte{0x42});
    w.client.register_region(payload);
    sim::Counter completion(w.sched);
    ASSERT_TRUE(w.client
                    .send_message(*w.client_ep, kMsgData, bytes_view("h"), payload, nullptr,
                                  target_ref, &completion)
                    .ok());
    std::size_t pending_at_failure = 0;
    if (fail) {
      w.sched.call_at(delivered_at - 1, [&] {
        pending_at_failure = w.server.pending_op_count();
        w.server.fail_endpoint(*w.server_ep);
      });
    }
    w.sched.run();
    if (!fail) {
      ASSERT_EQ(completions, 1);
      EXPECT_EQ(target->value(), 1u);
      continue;
    }
    EXPECT_EQ(pending_at_failure, 1u);  // the pull, its Read complete
    EXPECT_EQ(completions, 0);
    EXPECT_EQ(target->value(), 0u);
    EXPECT_EQ(completion.value(), 0u);
    EXPECT_EQ(w.client.pending_op_count(), 0u);
    EXPECT_EQ(w.server.pending_op_count(), 0u);
  }
}

/// A put (write = true) or a get with a done counter, failed in flight.
void one_sided_fails_in_flight(bool write) {
  World w;
  std::vector<std::byte> window(256 * 1024, std::byte{0x17});
  const auto remote = w.server.expose_memory(window);
  w.establish();
  std::vector<std::byte> local(window.size(), std::byte{0x42});
  w.client.register_region(local);
  sim::Counter done(w.sched);
  const Status posted = write ? w.client.put(*w.client_ep, local, remote, 0, &done)
                              : w.client.get(*w.client_ep, local, remote, 0, &done);
  ASSERT_TRUE(posted.ok());
  EXPECT_EQ(w.client.pending_op_count(), 1u);
  Waiter waiter;
  park(w.sched, done, waiter);
  const sim::Time failed_at = w.sched.now() + 5_us;
  std::size_t pending_at_failure = 0;
  w.sched.call_at(failed_at, [&] {
    pending_at_failure = w.client.pending_op_count();
    w.client.fail_endpoint(*w.client_ep);
  });

  w.sched.run();
  EXPECT_EQ(pending_at_failure, 1u);  // still in flight when it failed
  expect_failed_at(waiter, failed_at);
  EXPECT_EQ(done.value(), 0u);
  EXPECT_EQ(w.client.pending_op_count(), 0u);
  EXPECT_EQ(w.server.pending_op_count(), 0u);
}

TEST(EndpointFailure, GetInFlightWakesItsWaiter) { one_sided_fails_in_flight(false); }

TEST(EndpointFailure, PutInFlightWakesItsWaiter) { one_sided_fails_in_flight(true); }

TEST(EndpointFailure, DownHandlerFiresOncePerEndpoint) {
  World w;
  w.establish();
  int notified = 0;
  const std::uint64_t id = w.client.on_endpoint_down(
      [&](ucr::Endpoint& ep, Errc reason) {
        EXPECT_EQ(&ep, w.client_ep);
        EXPECT_EQ(reason, Errc::disconnected);
        ++notified;
      });
  w.client.fail_endpoint(*w.client_ep);
  w.client.fail_endpoint(*w.client_ep);  // idempotent: already failed
  w.sched.run();
  EXPECT_EQ(notified, 1);
  w.client.remove_endpoint_handler(id);
}

TEST(EndpointFailure, KeepaliveDetectsASilentPeer) {
  ucr::UcrConfig config;
  config.keepalive_interval = 100_us;
  World w(config);
  w.establish();
  const std::uint64_t timeouts_before = metric("ucr.keepalive.timeouts");

  w.fabric.faults().set_node_down(w.server.addr(), true);
  // No traffic at all: only the keepalive prober can notice.
  w.sched.run_until(w.sched.now() + 2_ms);
  EXPECT_EQ(w.client_ep->state(), ucr::EpState::failed);
  EXPECT_GT(metric("ucr.keepalive.timeouts"), timeouts_before);
}

TEST(EndpointChurn, ClosedEndpointsAreReclaimedOnBothSides) {
  World w;
  w.server.listen(7000, [&](ucr::Endpoint&) {});

  const std::size_t client_base = w.client.endpoint_count();
  const std::size_t server_base = w.server.endpoint_count();
  constexpr int kCycles = 10;
  for (int i = 0; i < kCycles; ++i) {
    ucr::Endpoint* ep = nullptr;
    w.sched.spawn([](World& wk, ucr::Endpoint*& out) -> Task<> {
      auto r = co_await wk.client.connect(wk.server.addr(), 7000);
      EXPECT_TRUE(r.ok());
      if (r.ok()) out = *r;
    }(w, ep));
    w.sched.run();
    ASSERT_NE(ep, nullptr);
    w.client.close(*ep);
    // Drains everything, including the close notification to the peer and
    // both sides' deferred reapers (ep_reclaim_delay later).
    w.sched.run();
  }
  EXPECT_EQ(w.client.endpoint_count(), client_base);
  EXPECT_EQ(w.server.endpoint_count(), server_base);
  EXPECT_EQ(w.client.pending_op_count(), 0u);
  EXPECT_EQ(w.server.pending_op_count(), 0u);
}

// ------------------------------------------ memcached-level recovery ----

struct McPool {
  Scheduler sched;
  sim::Fabric fabric{sched, sim::ib_qdr_link()};
  std::vector<std::unique_ptr<sim::Host>> hosts;
  std::vector<std::unique_ptr<verbs::Hca>> hcas;
  std::vector<std::unique_ptr<ucr::Runtime>> runtimes;
  std::vector<std::unique_ptr<mc::Server>> servers;

  sim::Host client_host{sched, 100, "client", 8};
  verbs::Hca client_hca{sched, fabric, client_host};
  std::unique_ptr<ucr::Runtime> client_ucr;
  std::unique_ptr<mc::Client> client;

  McPool(int n, mc::ClientBehavior behavior) {
    ucr::UcrConfig config;
    config.keepalive_interval = 100_us;
    client_ucr = std::make_unique<ucr::Runtime>(client_hca, config);
    client = std::make_unique<mc::Client>(sched, client_host, behavior);
    for (int i = 0; i < n; ++i) {
      hosts.push_back(std::make_unique<sim::Host>(sched, i, "mc" + std::to_string(i), 8));
      hcas.push_back(std::make_unique<verbs::Hca>(sched, fabric, *hosts.back()));
      runtimes.push_back(std::make_unique<ucr::Runtime>(*hcas.back()));
      servers.push_back(
          std::make_unique<mc::Server>(sched, *hosts.back(), mc::ServerConfig{}));
      servers.back()->attach_ucr_frontend(*runtimes.back());
      client->add_server_ucr(*client_ucr, runtimes.back()->addr(), 11211);
    }
  }

  /// Run one coroutine to completion under a horizon (the keepalive
  /// prober keeps the event queue non-empty forever, so a plain run()
  /// would never return).
  void drive(Task<> task, sim::Time horizon = 3_s) {
    bool done = false;
    sched.spawn([](Task<> inner, bool& fin) -> Task<> {
      co_await std::move(inner);
      fin = true;
    }(std::move(task), done));
    const sim::Time deadline = sched.now() + horizon;
    while (!done && sched.now() < deadline) {
      const sim::Time before = sched.now();
      sched.run_until(std::min(deadline, before + 1_ms));
      if (sched.now() == before) break;  // queue drained: no progress possible
    }
    ASSERT_TRUE(done) << "scenario hung past its horizon";
  }
};

mc::ClientBehavior recovery_behavior() {
  mc::ClientBehavior b;
  b.distribution = mc::Distribution::ketama;
  b.op_timeout = 300_us;
  b.max_retries = 2;
  b.retry_backoff = 20_us;
  b.eject_after_failures = 2;
  return b;
}

TEST(McRecovery, NodeCrashEjectsHostAndSurvivorsKeepServing) {
  McPool pool(3, recovery_behavior());
  const std::uint64_t ejected_before = metric("mc.pool.ejected");
  constexpr int kKeys = 60;

  pool.drive([](McPool& pool2) -> Task<> {
    mc::Client& client = *pool2.client;
    EXPECT_TRUE((co_await client.connect_all()).ok());
    std::vector<std::size_t> owner(kKeys);  // pre-crash ownership
    for (int i = 0; i < kKeys; ++i) {
      const std::string key = "k" + std::to_string(i);
      owner[i] = client.server_index(key);
      EXPECT_TRUE((co_await client.set(key, bytes_view("v" + std::to_string(i)))).ok());
    }

    pool2.fabric.faults().set_node_down(pool2.runtimes[1]->addr(), true);

    // Every read resolves — as a hit, or as a bounded miss for keys whose
    // owner died and got re-routed — within the retry budget. No hangs,
    // no errors.
    int errors = 0;
    sim::Time slowest = 0;
    for (int i = 0; i < kKeys; ++i) {
      const sim::Time begin = pool2.sched.now();
      auto got = co_await client.get("k" + std::to_string(i));
      slowest = std::max(slowest, pool2.sched.now() - begin);
      if (!got.ok() && got.error() != Errc::not_found) ++errors;
    }
    EXPECT_EQ(errors, 0);
    // Budget: (max_retries + 1) op timeouts plus backoffs, with margin.
    EXPECT_LT(slowest, 2_ms);
    EXPECT_TRUE(client.server_ejected(1));

    // Keys owned by the survivors are served as if nothing happened.
    for (int i = 0; i < kKeys; ++i) {
      if (owner[i] == 1) continue;
      auto got = co_await client.get("k" + std::to_string(i));
      EXPECT_TRUE(got.ok()) << "survivor key k" << i << " lost";
    }
  }(pool));
  EXPECT_EQ(metric("mc.pool.ejected"), ejected_before + 1);
}

TEST(McRecovery, PartitionHealsAndClientReconnects) {
  mc::ClientBehavior behavior = recovery_behavior();
  behavior.max_retries = 1;
  McPool pool(1, behavior);
  const std::uint64_t reconnects_before = metric("mc.client.reconnects");

  pool.drive([](McPool& pool2) -> Task<> {
    mc::Client& client = *pool2.client;
    EXPECT_TRUE((co_await client.connect_all()).ok());
    EXPECT_TRUE((co_await client.set("island", bytes_view("castaway"))).ok());

    // Cut the client off from everything.
    pool2.fabric.faults().partition({pool2.client_ucr->addr()});
    auto lost = co_await client.get("island");
    EXPECT_FALSE(lost.ok());  // bounded failure, not a hang

    // Give the keepalive prober time to declare the endpoint dead.
    co_await pool2.sched.delay(1_ms);

    pool2.fabric.faults().heal();
    // The retry path reconnects and the data is still there: only the
    // network died, not the server.
    auto back = co_await client.get("island");
    EXPECT_TRUE(back.ok());
    if (back.ok()) {
      EXPECT_EQ(std::string(reinterpret_cast<const char*>(back->data.data()),
                            back->data.size()),
                "castaway");
    }
  }(pool));
  EXPECT_GT(metric("mc.client.reconnects"), reconnects_before);
}

// A rendezvous GET reply keeps its item pinned until the origin counter
// reports the client's RDMA Read. When the client is cut off before the
// reply reaches it, the server's endpoint failure wakes that wait: the pin
// drops, and the counter goes back to the server's free list, from which
// the replies after the client reconnects take it.
TEST(McRecovery, RendezvousReplyUnpinsWhenItsReadNeverComes) {
  mc::ClientBehavior behavior = recovery_behavior();
  behavior.max_retries = 1;
  McPool pool(1, behavior);
  const std::uint64_t failures_before = metric("ucr.ep.failures");

  pool.drive([](McPool& pool2) -> Task<> {
    mc::Client& client = *pool2.client;
    const std::string value(32 * 1024, 'v');
    EXPECT_TRUE((co_await client.connect_all()).ok());
    EXPECT_TRUE((co_await client.set("big", bytes_view(value))).ok());
    const mc::ItemHeader* item = pool2.servers[0]->store().get("big");
    if (item == nullptr) {
      ADD_FAILURE() << "set did not store";
      co_return;
    }

    // Cut the client off the moment the server pins the item for its
    // reply, before the reply's header can reach the client.
    pool2.sched.spawn([](McPool& p, const mc::ItemHeader* it) -> Task<> {
      while (it->refcount == 0) co_await p.sched.delay(1);
      p.fabric.faults().partition({p.client_ucr->addr()});
    }(pool2, item));
    auto lost = co_await client.get("big");
    EXPECT_FALSE(lost.ok());
    EXPECT_EQ(item->refcount, 1) << "the reply still awaits its Read";

    // The server's retransmits of the reply back off and run out after
    // about 2 s, which fails its endpoint.
    co_await pool2.sched.delay(3_s);
    EXPECT_EQ(item->refcount, 0) << "the pin outlived the dead endpoint";

    // Each later reply holds its pin until its Read's ack is back at the
    // server, on a counter recycled after a failure and after a Read.
    pool2.fabric.faults().heal();
    for (int i = 0; i < 2; ++i) {
      auto back = co_await client.get("big");
      EXPECT_TRUE(back.ok() && back->data.size() == value.size());
      EXPECT_EQ(item->refcount, 1) << "unpinned before the Read's ack";
      co_await pool2.sched.delay(100_us);
      EXPECT_EQ(item->refcount, 0);
    }
  }(pool), 5_s);
  EXPECT_GT(metric("ucr.ep.failures"), failures_before);
}

}  // namespace
}  // namespace rmc
