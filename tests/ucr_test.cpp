// Tests for the Unified Communication Runtime: endpoint establishment,
// eager and rendezvous active messages, all three counters, timeouts,
// fault isolation, credit flow control, and the zero-copy property of the
// rendezvous path.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "simnet/netparams.hpp"
#include "ucr/runtime.hpp"

namespace rmc::ucr {
namespace {

using namespace rmc::literals;
using sim::Scheduler;
using sim::Task;

constexpr std::uint16_t kMsgPing = 1;
constexpr std::uint16_t kMsgData = 2;

std::span<const std::byte> bytes_view(const std::string& s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

struct World {
  Scheduler sched;
  sim::Fabric fabric{sched, sim::ib_qdr_link()};
  sim::Host host_client{sched, 0, "client", 8};
  sim::Host host_server{sched, 1, "server", 8};
  verbs::Hca hca_client{sched, fabric, host_client};
  verbs::Hca hca_server{sched, fabric, host_server};
  Runtime client{hca_client};
  Runtime server{hca_server};

  Endpoint* client_ep = nullptr;  ///< client's endpoint to the server
  Endpoint* server_ep = nullptr;  ///< server's endpoint to the client

  void establish(std::uint16_t port = 7000) {
    server.listen(port, [this](Endpoint& ep) { server_ep = &ep; });
    sched.spawn([](World& w, std::uint16_t port2) -> Task<> {
      auto r = co_await w.client.connect(w.server.addr(), port2);
      EXPECT_TRUE(r.ok());
      w.client_ep = *r;
    }(*this, port));
    sched.run();
    ASSERT_NE(client_ep, nullptr);
    ASSERT_NE(server_ep, nullptr);
  }
};

// --------------------------------------------------------- connection ----

TEST(Connection, EndpointEstablished) {
  World w;
  w.establish();
  EXPECT_EQ(w.client_ep->state(), EpState::ready);
  EXPECT_EQ(w.server_ep->state(), EpState::ready);
  EXPECT_EQ(w.client_ep->send_credits(), UcrConfig{}.credits_per_ep);
}

// ----------------------------------------- unreliable endpoints (UD) ----

/// Establish an unreliable (UD) endpoint pair on a World.
void establish_ud(World& w, std::uint16_t port = 7100) {
  w.server.listen(port, [&w](Endpoint& ep) { w.server_ep = &ep; });
  w.sched.spawn([](World& wk, std::uint16_t port2) -> Task<> {
    auto r = co_await wk.client.connect(wk.server.addr(), port2, EpType::unreliable);
    EXPECT_TRUE(r.ok());
    if (r.ok()) wk.client_ep = *r;
  }(w, port));
  w.sched.run();
}

TEST(Unreliable, EndpointEstablishes) {
  World w;
  establish_ud(w);
  ASSERT_NE(w.client_ep, nullptr);
  ASSERT_NE(w.server_ep, nullptr);
  EXPECT_EQ(w.client_ep->type(), EpType::unreliable);
  EXPECT_EQ(w.server_ep->type(), EpType::unreliable);
  EXPECT_EQ(w.client_ep->state(), EpState::ready);
}

TEST(Unreliable, EagerMessagesFlowBothWays) {
  World w;
  std::string got;
  w.server.register_handler(
      kMsgData,
      {.on_header = nullptr,
       .on_complete = [&](Endpoint& ep, std::span<const std::byte> header,
                          std::span<std::byte>) {
         got.assign(reinterpret_cast<const char*>(header.data()), header.size());
         // Reply over the same unreliable endpoint.
         EXPECT_TRUE(
             ep.runtime().send_message(ep, kMsgData + 1, bytes_view("pong"), {}, nullptr, {},
                                       nullptr)
                 .ok());
       }});
  std::string reply;
  w.client.register_handler(
      kMsgData + 1, {.on_complete = [&](Endpoint&, std::span<const std::byte> header,
                                        std::span<std::byte>) {
        reply.assign(reinterpret_cast<const char*>(header.data()), header.size());
      }});
  establish_ud(w);
  ASSERT_NE(w.client_ep, nullptr);

  EXPECT_TRUE(w.client
                  .send_message(*w.client_ep, kMsgData, bytes_view("ping"), {}, nullptr, {},
                                nullptr)
                  .ok());
  w.sched.run();
  EXPECT_EQ(got, "ping");
  EXPECT_EQ(reply, "pong");
}

TEST(Unreliable, CountersWorkOverDatagrams) {
  World w;
  w.server.register_handler(kMsgPing, {});
  auto target = w.server.make_counter();
  const CounterRef target_ref = w.server.export_counter(*target);
  establish_ud(w);
  ASSERT_NE(w.client_ep, nullptr);

  auto completion = w.client.make_counter();
  bool done = false;
  w.sched.spawn([](World& wk, CounterRef ref, sim::Counter& completion2, bool& fin) -> Task<> {
    EXPECT_TRUE(
        wk.client.send_message(*wk.client_ep, kMsgPing, {}, {}, nullptr, ref, &completion2)
            .ok());
    fin = co_await completion2.wait_geq(1, 1_ms);
  }(w, target_ref, *completion, done));
  w.sched.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(target->value(), 1u);
}

TEST(Unreliable, LargePayloadsRejected) {
  // No RC connection, no RDMA read: rendezvous is impossible, and eager is
  // bounded by the UD MTU.
  World w;
  establish_ud(w);
  ASSERT_NE(w.client_ep, nullptr);
  std::vector<std::byte> big(16_KiB);
  EXPECT_EQ(
      w.client.send_message(*w.client_ep, kMsgData, {}, big, nullptr, {}, nullptr).error(),
      Errc::invalid_argument);
  // Even "eager-sized" payloads fail if they exceed the datagram MTU.
  std::vector<std::byte> over_mtu(4096);
  EXPECT_EQ(w.client.send_message(*w.client_ep, kMsgData, {}, over_mtu, nullptr, {}, nullptr)
                .error(),
            Errc::invalid_argument);
}

TEST(Unreliable, SharedUdQpAcrossEndpoints) {
  // Many unreliable endpoints, one server: the server side must not grow
  // per-client QPs — the §VII scalability motivation.
  sim::Scheduler sched;
  sim::Fabric fabric{sched, sim::ib_qdr_link()};
  sim::Host server_host{sched, 0, "server", 8};
  verbs::Hca server_hca{sched, fabric, server_host};
  Runtime server{server_hca};
  int pings = 0;
  server.register_handler(kMsgPing, {.on_complete = [&](Endpoint&, std::span<const std::byte>,
                                                        std::span<std::byte>) { ++pings; }});
  server.listen(7100, nullptr);

  constexpr int kClients = 12;
  std::vector<std::unique_ptr<sim::Host>> hosts;
  std::vector<std::unique_ptr<verbs::Hca>> hcas;
  std::vector<std::unique_ptr<Runtime>> runtimes;
  for (int i = 0; i < kClients; ++i) {
    hosts.push_back(std::make_unique<sim::Host>(sched, i + 1, "c", 8));
    hcas.push_back(std::make_unique<verbs::Hca>(sched, fabric, *hosts.back()));
    runtimes.push_back(std::make_unique<Runtime>(*hcas.back()));
    sched.spawn([](Runtime& rt, Runtime& srv) -> Task<> {
      auto r = co_await rt.connect(srv.addr(), 7100, EpType::unreliable);
      EXPECT_TRUE(r.ok());
      if (r.ok()) {
        EXPECT_TRUE(rt.send_message(**r, kMsgPing, {}, {}, nullptr, {}, nullptr).ok());
      }
    }(*runtimes.back(), server));
  }
  sched.run();
  EXPECT_EQ(pings, kClients);
}

TEST(Unreliable, FabricLossIsSilentAndTimedOut) {
  // Inject 20% packet loss: some requests or replies vanish; the client's
  // counter timeout detects it (the Facebook-UDP operating mode, §III).
  sim::Scheduler sched;
  auto link = sim::ib_qdr_link();
  link.drop_per_million = 200000;  // 20%
  sim::Fabric fabric{sched, link};
  sim::Host server_host{sched, 0, "server", 8};
  sim::Host client_host{sched, 1, "client", 8};
  verbs::Hca server_hca{sched, fabric, server_host};
  verbs::Hca client_hca{sched, fabric, client_host};
  Runtime server{server_hca};
  Runtime client{client_hca};
  server.register_handler(kMsgPing, {});
  auto target = server.make_counter();
  const CounterRef ref = server.export_counter(*target);
  server.listen(7100, nullptr);

  int delivered = 0, lost = 0;
  sched.spawn([](sim::Scheduler& sch, Runtime& cli, Runtime& srv, CounterRef ref2,
                 sim::Counter& target2, int& delivered2, int& lost2) -> Task<> {
    auto r = co_await cli.connect(srv.addr(), 7100, EpType::unreliable);
    if (!r.ok()) co_return;  // even the handshake can be lost2; that's UD life
    for (int i = 0; i < 50; ++i) {
      const std::uint64_t before = target2.value();
      (void)cli.send_message(**r, kMsgPing, {}, {}, nullptr, ref2, nullptr);
      const bool ok = co_await target2.wait_geq(before + 1, 50_us);
      (ok ? delivered2 : lost2)++;
      (void)sch;
    }
  }(sched, client, server, ref, *target, delivered, lost));
  sched.run();
  // With 20% loss both outcomes must occur, and the run must terminate.
  EXPECT_GT(delivered, 0);
  EXPECT_GT(lost, 0);
  EXPECT_EQ(delivered + lost, 50);
}

TEST(Connection, ConnectTimesOutAgainstDeadPort) {
  World w;
  Errc err = Errc::ok;
  w.sched.spawn([](World& wk, Errc& ec) -> Task<> {
    auto r = co_await wk.client.connect(wk.server.addr(), 9090);
    ec = r.error();
  }(w, err));
  w.sched.run();
  EXPECT_EQ(err, Errc::refused);
}

// -------------------------------------------------------------- eager ----

TEST(Eager, HeaderAndDataDelivered) {
  World w;
  std::string got_header, got_data;
  int completions = 0;
  std::vector<std::byte> dest(64);
  w.server.register_handler(
      kMsgData,
      {.on_header =
           [&](Endpoint&, std::span<const std::byte> header, std::uint32_t data_len) {
             got_header.assign(reinterpret_cast<const char*>(header.data()), header.size());
             EXPECT_EQ(data_len, 5u);
             return std::span<std::byte>(dest);
           },
       .on_complete =
           [&](Endpoint&, std::span<const std::byte>, std::span<std::byte> data) {
             got_data.assign(reinterpret_cast<const char*>(data.data()), data.size());
             ++completions;
           }});
  w.establish();

  const std::string header = "hdr";
  const std::string data = "12345";
  EXPECT_TRUE(w.client
                  .send_message(*w.client_ep, kMsgData, bytes_view(header), bytes_view(data),
                                nullptr, {}, nullptr)
                  .ok());
  w.sched.run();
  EXPECT_EQ(got_header, "hdr");
  EXPECT_EQ(got_data, "12345");
  EXPECT_EQ(completions, 1);
  EXPECT_EQ(w.client.eager_sent(), 1u);
  EXPECT_EQ(w.client.rendezvous_sent(), 0u);
}

TEST(Eager, OriginCounterBumpsImmediately) {
  World w;
  w.server.register_handler(kMsgPing, {});
  w.establish();
  auto origin = w.client.make_counter();
  EXPECT_TRUE(w.client
                  .send_message(*w.client_ep, kMsgPing, {}, {}, origin.get(), {}, nullptr)
                  .ok());
  // Eager local completion: staged copy means instant reuse.
  EXPECT_EQ(origin->value(), 1u);
}

TEST(Eager, TargetCounterFiresAtTarget) {
  World w;
  w.server.register_handler(kMsgPing, {});
  auto server_counter = w.server.make_counter();
  const CounterRef ref = w.server.export_counter(*server_counter);
  w.establish();

  EXPECT_TRUE(
      w.client.send_message(*w.client_ep, kMsgPing, {}, {}, nullptr, ref, nullptr).ok());
  w.sched.run();
  EXPECT_EQ(server_counter->value(), 1u);
}

TEST(Eager, CompletionCounterFiresAtOrigin) {
  World w;
  w.server.register_handler(kMsgPing, {});
  w.establish();
  auto completion = w.client.make_counter();
  bool reached = false;
  w.sched.spawn([](World& wk, sim::Counter& completion2, bool& reached2) -> Task<> {
    EXPECT_TRUE(wk.client
                    .send_message(*wk.client_ep, kMsgPing, {}, {}, nullptr, {}, &completion2)
                    .ok());
    reached2 = co_await completion2.wait_geq(1, 1_ms);
  }(w, *completion, reached));
  w.sched.run();
  EXPECT_TRUE(reached);
}

TEST(Eager, RoundTripRequestResponse) {
  // The §V pattern: client AM1 carries a counter ref; server replies with
  // AM2 naming that ref as target counter; client waits on the counter.
  World w;
  auto reply_counter = w.client.make_counter();
  const CounterRef reply_ref = w.client.export_counter(*reply_counter);

  w.server.register_handler(
      kMsgPing, {.on_header = nullptr,
                 .on_complete = [&](Endpoint& ep, std::span<const std::byte> header,
                                    std::span<std::byte>) {
                   CounterRef ref{};
                   std::memcpy(&ref.id, header.data(), sizeof(ref.id));
                   EXPECT_TRUE(ep.runtime()
                                   .send_message(ep, kMsgPing + 100, {}, {}, nullptr, ref,
                                                 nullptr)
                                   .ok());
                 }});
  w.client.register_handler(kMsgPing + 100, {});
  w.establish();

  bool done = false;
  sim::Time latency = 0;
  w.sched.spawn([](World& wk, CounterRef ref, sim::Counter& counter, bool& fin,
                   sim::Time& latency2) -> Task<> {
    std::vector<std::byte> header(sizeof(ref.id));
    std::memcpy(header.data(), &ref.id, sizeof(ref.id));
    const sim::Time start = wk.sched.now();
    EXPECT_TRUE(
        wk.client.send_message(*wk.client_ep, kMsgPing, header, {}, nullptr, {}, nullptr).ok());
    fin = co_await counter.wait_geq(1, 1_ms);
    latency2 = wk.sched.now() - start;
  }(w, reply_ref, *reply_counter, done, latency));
  w.sched.run();
  EXPECT_TRUE(done);
  // Small AM round trip on QDR verbs: a handful of microseconds.
  EXPECT_LT(latency, 10_us);
  EXPECT_GT(latency, 1_us);
}

// --------------------------------------------------------- rendezvous ----

TEST(Rendezvous, LargePayloadViaRdmaRead) {
  World w;
  std::vector<std::byte> dest(256_KiB);
  std::string got_header;
  int completions = 0;
  w.server.register_handler(
      kMsgData,
      {.on_header =
           [&](Endpoint&, std::span<const std::byte> header, std::uint32_t data_len) {
             got_header.assign(reinterpret_cast<const char*>(header.data()), header.size());
             EXPECT_EQ(data_len, 256_KiB);
             return std::span<std::byte>(dest);
           },
       .on_complete = [&](Endpoint&, std::span<const std::byte>,
                          std::span<std::byte> data) {
         EXPECT_EQ(data.size(), 256_KiB);
         ++completions;
       }});
  w.server.register_region(dest);
  w.establish();

  std::vector<std::byte> payload(256_KiB);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::byte>(i * 7);
  }
  w.client.register_region(payload);

  auto origin = w.client.make_counter();
  EXPECT_TRUE(w.client
                  .send_message(*w.client_ep, kMsgData, bytes_view("big"), payload,
                                origin.get(), {}, nullptr)
                  .ok());
  // Rendezvous: origin buffer NOT reusable yet.
  EXPECT_EQ(origin->value(), 0u);
  w.sched.run();
  EXPECT_EQ(origin->value(), 1u);
  EXPECT_EQ(completions, 1);
  EXPECT_EQ(got_header, "big");
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(), dest.begin()));
  EXPECT_EQ(w.client.rendezvous_sent(), 1u);
}

TEST(Rendezvous, DataBypassesTargetCpuCopy) {
  // Eager copies data out of the network buffer (memcpy cost on target
  // CPU); rendezvous RDMA-reads straight into the destination. Comparing
  // per-byte target CPU for 4 KiB (eager) vs 32 KiB (rendezvous) around
  // the default 8 KiB threshold shows the copy disappearing.
  for (bool rndz : {false, true}) {
    World w;
    const std::size_t size = rndz ? 32_KiB : 4_KiB;
    std::vector<std::byte> dest(size);
    w.server.register_handler(
        kMsgData, {.on_header = [&](Endpoint&, std::span<const std::byte>, std::uint32_t) {
          return std::span<std::byte>(dest);
        }});
    w.server.register_region(dest);
    w.establish();
    std::vector<std::byte> payload(size);
    w.client.register_region(payload);
    const auto cpu_before = w.host_server.cpu().busy_ns();
    ASSERT_TRUE(
        w.client.send_message(*w.client_ep, kMsgData, {}, payload, nullptr, {}, nullptr)
            .ok());
    w.sched.run();
    const double per_byte =
        static_cast<double>(w.host_server.cpu().busy_ns() - cpu_before) /
        static_cast<double>(size);
    if (rndz) {
      EXPECT_LT(per_byte, 0.05);  // no per-byte target CPU on the RDMA path
    } else {
      EXPECT_GT(per_byte, 0.05);  // eager pays the memcpy
    }
  }
}

TEST(Rendezvous, AllThreeCountersFire) {
  World w;
  std::vector<std::byte> dest(32_KiB);
  w.server.register_handler(
      kMsgData, {.on_header = [&](Endpoint&, std::span<const std::byte>, std::uint32_t) {
        return std::span<std::byte>(dest);
      }});
  w.server.register_region(dest);
  auto target = w.server.make_counter();
  const CounterRef target_ref = w.server.export_counter(*target);
  w.establish();

  std::vector<std::byte> payload(32_KiB);
  w.client.register_region(payload);
  auto origin = w.client.make_counter();
  auto completion = w.client.make_counter();
  bool both = false;
  w.sched.spawn([](World& wk, std::vector<std::byte>& pl, sim::Counter& org,
                   sim::Counter& completion2, CounterRef target_ref2, bool& both2) -> Task<> {
    EXPECT_TRUE(wk.client
                    .send_message(*wk.client_ep, kMsgData, {}, pl, &org, target_ref2,
                                  &completion2)
                    .ok());
    const bool o = co_await org.wait_geq(1, 1_ms);
    const bool c = co_await completion2.wait_geq(1, 1_ms);
    both2 = o && c;
  }(w, payload, *origin, *completion, target_ref, both));
  w.sched.run();
  EXPECT_TRUE(both);
  EXPECT_EQ(target->value(), 1u);
}

TEST(Rendezvous, DroppedPayloadStillReleasesOrigin) {
  // No handler registered: the target cannot name a destination buffer.
  // The origin's counters must not hang (§IV-A fault model).
  World w;
  w.establish();
  std::vector<std::byte> payload(64_KiB);
  w.client.register_region(payload);
  auto origin = w.client.make_counter();
  bool released = false;
  w.sched.spawn([](World& wk, std::vector<std::byte>& pl, sim::Counter& org,
                   bool& released2) -> Task<> {
    EXPECT_TRUE(wk.client
                    .send_message(*wk.client_ep, kMsgData, {}, pl, &org, {}, nullptr)
                    .ok());
    released2 = co_await org.wait_geq(1, 1_ms);
  }(w, payload, *origin, released));
  w.sched.run();
  EXPECT_TRUE(released);
}

TEST(Rendezvous, OversizedHeaderRejected) {
  World w;
  w.establish();
  std::vector<std::byte> header(9000);  // > eager_limit
  std::vector<std::byte> payload(64_KiB);
  EXPECT_EQ(w.client
                .send_message(*w.client_ep, kMsgData, header, payload, nullptr, {}, nullptr)
                .error(),
            Errc::invalid_argument);
}

// ------------------------------------------------------- flow control ----

TEST(FlowControl, BacklogDrainsUnderCreditPressure) {
  World w;
  int received = 0;
  w.server.register_handler(
      kMsgPing, {.on_complete = [&](Endpoint&, std::span<const std::byte>,
                                    std::span<std::byte>) { ++received; }});
  w.establish();

  // Fire 4x the credit window at once; everything must still arrive.
  const int total = static_cast<int>(UcrConfig{}.credits_per_ep) * 4;
  for (int i = 0; i < total; ++i) {
    ASSERT_TRUE(
        w.client.send_message(*w.client_ep, kMsgPing, {}, {}, nullptr, {}, nullptr).ok());
  }
  EXPECT_GT(w.client_ep->backlog_size(), 0u);  // window exceeded -> queued
  w.sched.run();
  EXPECT_EQ(received, total);
  EXPECT_EQ(w.client_ep->backlog_size(), 0u);
}

TEST(FlowControl, CreditsRecoverAfterDrain) {
  World w;
  w.server.register_handler(kMsgPing, {});
  w.establish();
  const auto window = UcrConfig{}.credits_per_ep;
  for (std::uint32_t i = 0; i < window * 2; ++i) {
    ASSERT_TRUE(
        w.client.send_message(*w.client_ep, kMsgPing, {}, {}, nullptr, {}, nullptr).ok());
  }
  w.sched.run();
  // After everything settles the window must be restored up to the credits
  // the peer may still be holding below its return threshold (half the
  // window): leaked credits would strangle a long-lived memcached
  // connection.
  EXPECT_TRUE(w.client_ep->backlog_size() == 0);
  EXPECT_GE(w.client_ep->send_credits(), window - window / 2);
}

TEST(FlowControl, BidirectionalFloodDoesNotDeadlock) {
  // Both sides blast eager messages at each other, exceeding both credit
  // windows simultaneously. Credits piggyback on opposing traffic; if the
  // piggyback path were broken, both backlogs would starve forever.
  World w;
  int server_got = 0, client_got = 0;
  w.server.register_handler(
      kMsgPing, {.on_complete = [&](Endpoint&, std::span<const std::byte>,
                                    std::span<std::byte>) { ++server_got; }});
  w.client.register_handler(
      kMsgPing, {.on_complete = [&](Endpoint&, std::span<const std::byte>,
                                    std::span<std::byte>) { ++client_got; }});
  w.establish();

  const int total = static_cast<int>(UcrConfig{}.credits_per_ep) * 6;
  for (int i = 0; i < total; ++i) {
    ASSERT_TRUE(
        w.client.send_message(*w.client_ep, kMsgPing, {}, {}, nullptr, {}, nullptr).ok());
    ASSERT_TRUE(
        w.server.send_message(*w.server_ep, kMsgPing, {}, {}, nullptr, {}, nullptr).ok());
  }
  w.sched.run();
  EXPECT_EQ(server_got, total);
  EXPECT_EQ(client_got, total);
}

// ----------------------------------------------------- fault isolation ----

TEST(Faults, WaitWithTimeoutDetectsUnresponsivePeer) {
  // §IV-A: a client blocked on a counter uses a timeout to conclude the
  // server is gone instead of hanging forever. Model an application-dead
  // server: the request handler runs but never produces the reply AM the
  // client's counter is waiting for.
  World w;
  w.server.register_handler(kMsgPing, {});  // swallows the request silently
  auto reply = w.client.make_counter();
  const CounterRef reply_ref = w.client.export_counter(*reply);
  w.establish();

  bool timed_out = false;
  sim::Time woke_at = 0;
  w.sched.spawn([](World& wk, CounterRef ref, sim::Counter& reply2, bool& timed_out2,
                   sim::Time& woke_at2) -> Task<> {
    std::vector<std::byte> header(sizeof(ref.id));
    std::memcpy(header.data(), &ref.id, sizeof(ref.id));
    (void)wk.client.send_message(*wk.client_ep, kMsgPing, header, {}, nullptr, {}, nullptr);
    const bool ok = co_await reply2.wait_geq(1, 100_us);
    timed_out2 = !ok;
    woke_at2 = wk.sched.now();
  }(w, reply_ref, *reply, timed_out, woke_at));
  w.sched.run();
  EXPECT_TRUE(timed_out);
  EXPECT_GE(woke_at, 100_us);  // woke at the timeout, not before
}

TEST(Faults, OneEndpointFailureDoesNotAffectOthers) {
  // Two clients on one server; killing one endpoint leaves the other live.
  Scheduler sched;
  sim::Fabric fabric{sched, sim::ib_qdr_link()};
  sim::Host h_server{sched, 0, "server", 8};
  sim::Host h_c1{sched, 1, "c1", 8};
  sim::Host h_c2{sched, 2, "c2", 8};
  verbs::Hca hca_server{sched, fabric, h_server};
  verbs::Hca hca_c1{sched, fabric, h_c1};
  verbs::Hca hca_c2{sched, fabric, h_c2};
  Runtime server{hca_server};
  Runtime c1{hca_c1};
  Runtime c2{hca_c2};

  int pings = 0;
  server.register_handler(kMsgPing, {.on_complete = [&](Endpoint&, std::span<const std::byte>,
                                                        std::span<std::byte>) { ++pings; }});
  server.listen(7000, nullptr);

  Endpoint* ep1 = nullptr;
  Endpoint* ep2 = nullptr;
  sched.spawn([](Runtime& rt, Runtime& srv, Endpoint*& out) -> Task<> {
    auto r = co_await rt.connect(srv.addr(), 7000);
    out = *r;
  }(c1, server, ep1));
  sched.spawn([](Runtime& rt, Runtime& srv, Endpoint*& out) -> Task<> {
    auto r = co_await rt.connect(srv.addr(), 7000);
    out = *r;
  }(c2, server, ep2));
  sched.run();
  ASSERT_NE(ep1, nullptr);
  ASSERT_NE(ep2, nullptr);

  // Client 1 dies.
  c1.close(*ep1);
  sched.run();

  // Client 2 keeps working.
  ASSERT_TRUE(c2.send_message(*ep2, kMsgPing, {}, {}, nullptr, {}, nullptr).ok());
  sched.run();
  EXPECT_EQ(pings, 1);
}

TEST(Faults, SendOnClosedEndpointFails) {
  World w;
  w.establish();
  w.client.close(*w.client_ep);
  EXPECT_EQ(
      w.client.send_message(*w.client_ep, kMsgPing, {}, {}, nullptr, {}, nullptr).error(),
      Errc::disconnected);
}

// ------------------------------------------------- one-sided put/get ----

TEST(OneSided, PutPlacesBytesWithoutRemoteCpu) {
  World w;
  w.establish();
  std::vector<std::byte> window(4_KiB, std::byte{0});
  const auto remote = w.server.expose_memory(window);
  // Ship the descriptor to the client out-of-band (the app's job).
  std::vector<std::byte> src(1_KiB, std::byte{0x5c});
  const auto server_cpu_before = w.host_server.cpu().busy_ns();

  bool done = false;
  w.sched.spawn([](World& wk, Runtime::RemoteMemory remote2, std::vector<std::byte>& src2,
                   bool& fin) -> Task<> {
    auto counter = wk.client.make_counter();
    EXPECT_TRUE(wk.client.put(*wk.client_ep, src2, remote2, 256, counter.get()).ok());
    fin = co_await counter->wait_geq(1, 1_ms);
  }(w, remote, src, done));
  w.sched.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(window[255], std::byte{0});
  EXPECT_EQ(window[256], std::byte{0x5c});
  EXPECT_EQ(window[256 + 1023], std::byte{0x5c});
  EXPECT_EQ(w.host_server.cpu().busy_ns(), server_cpu_before);  // OS bypass
}

TEST(OneSided, GetPullsBytes) {
  World w;
  w.establish();
  std::vector<std::byte> window(2_KiB);
  for (std::size_t i = 0; i < window.size(); ++i) window[i] = static_cast<std::byte>(i);
  const auto remote = w.server.expose_memory(window);
  std::vector<std::byte> dst(512);
  bool done = false;
  w.sched.spawn([](World& wk, Runtime::RemoteMemory remote2, std::vector<std::byte>& dst2,
                   bool& fin) -> Task<> {
    auto counter = wk.client.make_counter();
    EXPECT_TRUE(wk.client.get(*wk.client_ep, dst2, remote2, 1024, counter.get()).ok());
    fin = co_await counter->wait_geq(1, 1_ms);
  }(w, remote, dst, done));
  w.sched.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(dst[0], static_cast<std::byte>(1024 & 0xff));
  EXPECT_EQ(dst[511], static_cast<std::byte>((1024 + 511) & 0xff));
}

TEST(OneSided, WindowBoundsEnforcedLocally) {
  World w;
  w.establish();
  std::vector<std::byte> window(1_KiB);
  const auto remote = w.server.expose_memory(window);
  std::vector<std::byte> src(512);
  // offset + len past the window: rejected before touching the wire.
  EXPECT_EQ(w.client.put(*w.client_ep, src, remote, 600, nullptr).error(),
            Errc::invalid_argument);
  EXPECT_EQ(w.client.put(*w.client_ep, src, remote, 2000, nullptr).error(),
            Errc::invalid_argument);
  EXPECT_TRUE(w.client.put(*w.client_ep, src, remote, 512, nullptr).ok());
  w.sched.run();
}

TEST(OneSided, RejectedOnUnreliableEndpoints) {
  World w;
  establish_ud(w);
  ASSERT_NE(w.client_ep, nullptr);
  std::vector<std::byte> window(1_KiB);
  const auto remote = w.server.expose_memory(window);
  std::vector<std::byte> src(64);
  EXPECT_EQ(w.client.put(*w.client_ep, src, remote, 0, nullptr).error(),
            Errc::invalid_argument);
}

// ------------------------------------------------- registration cache ----

TEST(RegistrationCache, RepeatSendsReuseTheRegion) {
  // Rendezvous registers the source buffer on first use; repeat sends of
  // the same (or contained) buffers must hit the cache — no extra MRs, no
  // extra pin cost.
  World w;
  std::vector<std::byte> dest(64_KiB);
  w.server.register_handler(
      kMsgData, {.on_header = [&](Endpoint&, std::span<const std::byte>, std::uint32_t) {
        return std::span<std::byte>(dest);
      }});
  w.server.register_region(dest);
  w.establish();

  std::vector<std::byte> payload(64_KiB);
  const std::size_t regions_before = w.hca_client.pd().region_count();
  auto origin = w.client.make_counter();
  w.sched.spawn([](World& wk, std::vector<std::byte>& pl, sim::Counter& org) -> Task<> {
    for (int i = 0; i < 10; ++i) {
      EXPECT_TRUE(wk.client
                      .send_message(*wk.client_ep, kMsgData, {}, pl, &org, {}, nullptr)
                      .ok());
      (void)co_await org.wait_geq(static_cast<std::uint64_t>(i + 1), 10_ms);
    }
    // A sub-span of the registered buffer must also hit the cache.
    EXPECT_TRUE(wk.client
                    .send_message(*wk.client_ep, kMsgData, {},
                                  std::span<const std::byte>(pl.data() + 100, 32_KiB),
                                  &org, {}, nullptr)
                    .ok());
    (void)co_await org.wait_geq(11, 10_ms);
  }(w, payload, *origin));
  w.sched.run();
  // Exactly one new region for the payload, despite 11 sends.
  EXPECT_EQ(w.hca_client.pd().region_count(), regions_before + 1);
}

TEST(RegistrationCache, CpuCostPaidOnceNotPerSend) {
  World w;
  std::vector<std::byte> dest(64_KiB);
  w.server.register_handler(
      kMsgData, {.on_header = [&](Endpoint&, std::span<const std::byte>, std::uint32_t) {
        return std::span<std::byte>(dest);
      }});
  w.server.register_region(dest);
  w.establish();

  std::vector<std::byte> payload(256_KiB);
  auto origin = w.client.make_counter();
  std::uint64_t first_send_cpu = 0, later_send_cpu = 0;
  w.sched.spawn([](World& wk, std::vector<std::byte>& pl, sim::Counter& org,
                   std::uint64_t& first, std::uint64_t& later) -> Task<> {
    std::uint64_t before = wk.host_client.cpu().busy_ns();
    (void)wk.client.send_message(*wk.client_ep, kMsgData, {}, pl, &org, {}, nullptr);
    first = wk.host_client.cpu().busy_ns() - before;
    (void)co_await org.wait_geq(1, 10_ms);
    before = wk.host_client.cpu().busy_ns();
    (void)wk.client.send_message(*wk.client_ep, kMsgData, {}, pl, &org, {}, nullptr);
    later = wk.host_client.cpu().busy_ns() - before;
    (void)co_await org.wait_geq(2, 10_ms);
  }(w, payload, *origin, first_send_cpu, later_send_cpu));
  w.sched.run();
  // First send pays registration (pin per page); later sends do not.
  EXPECT_GT(first_send_cpu, later_send_cpu + 4000);
}

// ------------------------------------------------------- many messages ----

TEST(Stress, ThousandMixedMessagesAllComplete) {
  World w;
  std::vector<std::byte> dest(64_KiB);
  std::uint64_t bytes_received = 0;
  int count = 0;
  w.server.register_handler(
      kMsgData,
      {.on_header =
           [&](Endpoint&, std::span<const std::byte>, std::uint32_t) {
             return std::span<std::byte>(dest);
           },
       .on_complete =
           [&](Endpoint&, std::span<const std::byte>, std::span<std::byte> data) {
             bytes_received += data.size();
             ++count;
           }});
  w.server.register_region(dest);
  w.establish();

  std::vector<std::byte> payload(64_KiB);
  w.client.register_region(payload);
  std::uint64_t sent_bytes = 0;
  auto origin = w.client.make_counter();
  w.sched.spawn([](World& wk, std::vector<std::byte>& pl, sim::Counter& org,
                   std::uint64_t& sent_bytes2) -> Task<> {
    Rng rng(5);
    for (int i = 0; i < 1000; ++i) {
      const std::size_t size = 1 + rng.below(48_KiB);
      sent_bytes2 += size;
      EXPECT_EQ(wk.client
                    .send_message(*wk.client_ep, kMsgData, {},
                                  std::span<const std::byte>(pl.data(), size), &org,
                                  {}, nullptr)
                    .error(),
                Errc::ok);
      // Wait for org release so the pl buffer can be reused.
      const bool ok = co_await org.wait_geq(static_cast<std::uint64_t>(i + 1), 10_ms);
      EXPECT_TRUE(ok);
    }
  }(w, payload, *origin, sent_bytes));
  w.sched.run();
  EXPECT_EQ(count, 1000);
  EXPECT_EQ(bytes_received, sent_bytes);
}

}  // namespace
}  // namespace rmc::ucr
