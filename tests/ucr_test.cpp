// Tests for the Unified Communication Runtime: endpoint establishment,
// eager and rendezvous active messages, all three counters, timeouts,
// fault isolation, credit flow control, and the zero-copy property of the
// rendezvous path.
#include <gtest/gtest.h>

#include <algorithm>
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

TEST(Rendezvous, HeaderOutlivesItsReusedReceiveBuffer) {
  // Eight receive buffers at the target. The rendezvous header's buffer
  // is reposted once the pull is posted; the pull crosses a slow link,
  // and meanwhile a second client's eager flood reuses every buffer. The
  // completion handler must still see the header it was sent.
  Scheduler sched;
  sim::Fabric fabric{sched, sim::ib_qdr_link()};
  sim::Host host_server{sched, 0, "server", 8};
  sim::Host host_client{sched, 1, "client", 8};
  sim::Host host_flood{sched, 2, "flood", 8};
  verbs::Hca hca_server{sched, fabric, host_server};
  verbs::Hca hca_client{sched, fabric, host_client};
  verbs::Hca hca_flood{sched, fabric, host_flood};
  UcrConfig config;
  config.recv_buffers = 8;
  config.credits_per_ep = 4;  // two endpoints fill the eight buffers
  Runtime server{hca_server, config};
  Runtime client{hca_client, config};
  Runtime flood{hca_flood, config};
  constexpr int kBuffers = 8;
  constexpr int kFlood = 64;

  std::string rndz_header(200, '\0');
  for (std::size_t i = 0; i < rndz_header.size(); ++i) {
    rndz_header[i] = static_cast<char>('a' + i % 26);
  }
  const std::string flood_header(200, '#');
  const std::string small(64, 's');
  std::vector<std::byte> dest(256_KiB);
  server.register_region(dest);
  Endpoint* client_ep = nullptr;
  Endpoint* flood_ep = nullptr;
  int eager_arrivals = 0;
  int eager_arrivals_at_pull = -1;
  std::string header_at_pull;
  server.register_handler(
      kMsgData,
      {.on_header =
           [&](Endpoint&, std::span<const std::byte>, std::uint32_t data_len) {
             if (data_len <= 8_KiB) return std::span<std::byte>{};
             // The pull is about to be posted: start the flood.
             sched.call_at(sched.now(), [&] {
               for (int i = 0; i < kFlood; ++i) {
                 EXPECT_TRUE(flood
                                 .send_message(*flood_ep, kMsgData, bytes_view(flood_header),
                                               bytes_view(small), nullptr, {}, nullptr)
                                 .ok());
               }
             });
             return std::span<std::byte>(dest);
           },
       .on_complete =
           [&](Endpoint&, std::span<const std::byte> header, std::span<std::byte> data) {
             if (data.size() <= 8_KiB) {
               ++eager_arrivals;
               return;
             }
             eager_arrivals_at_pull = eager_arrivals;
             header_at_pull.assign(reinterpret_cast<const char*>(header.data()),
                                   header.size());
           }});
  server.listen(7000, [](Endpoint&) {});
  for (auto [rt, out] : {std::pair{&client, &client_ep}, std::pair{&flood, &flood_ep}}) {
    sched.spawn([](Runtime& r, sim::NicAddr dst, Endpoint*& ep) -> Task<> {
      auto c = co_await r.connect(dst, 7000);
      EXPECT_TRUE(c.ok());
      if (c.ok()) ep = *c;
    }(*rt, server.addr(), *out));
  }
  sched.run();
  ASSERT_NE(client_ep, nullptr);
  ASSERT_NE(flood_ep, nullptr);

  // One millisecond each way between the client and the server: the pull
  // takes over two, and the flood is done in far less.
  fabric.faults().set_link_delay(client.addr(), server.addr(), 1_ms);
  std::vector<std::byte> payload(dest.size(), std::byte{0x42});
  client.register_region(payload);
  ASSERT_TRUE(client
                  .send_message(*client_ep, kMsgData, bytes_view(rndz_header), payload, nullptr,
                                {}, nullptr)
                  .ok());
  sched.run();
  EXPECT_EQ(eager_arrivals, kFlood);
  // Every receive buffer was reused before the pull completed.
  EXPECT_GE(eager_arrivals_at_pull, kBuffers);
  EXPECT_EQ(header_at_pull, rndz_header);
  EXPECT_EQ(std::count(dest.begin(), dest.end(), std::byte{0x42}),
            static_cast<std::ptrdiff_t>(dest.size()));
}

TEST(Rendezvous, ASpanIntoARepostedReceiveBufferShowsTheNextMessage) {
  // The flip side of the test above. A receive buffer is reposted as soon
  // as its message is delivered, and the SRQ hands out the buffer posted
  // most recently, so the next message lands in the same buffer. A header
  // span kept past its handler shows that next message: a handler must
  // copy what it keeps.
  World w;
  std::span<const std::byte> kept;
  std::vector<std::string> seen;
  w.server.register_handler(
      kMsgData, {.on_complete = [&](Endpoint&, std::span<const std::byte> header,
                                    std::span<std::byte>) {
        seen.emplace_back(reinterpret_cast<const char*>(header.data()), header.size());
        if (kept.empty()) kept = header;
      }});
  w.establish();
  for (const char fill : {'1', '2'}) {
    const std::string header(64, fill);
    ASSERT_TRUE(w.client
                    .send_message(*w.client_ep, kMsgData, bytes_view(header), {}, nullptr, {},
                                  nullptr)
                    .ok());
    w.sched.run();
  }
  ASSERT_EQ(seen, (std::vector<std::string>{std::string(64, '1'), std::string(64, '2')}));
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(kept.data()), kept.size()),
            std::string(64, '2'));
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

TEST(Faults, CloseFailsPendingSendsToADownedNode) {
  // An eager send whose ack can never come, then close(): its record goes
  // with the endpoint, and a waiter with no timeout wakes with failure
  // instead of sleeping forever.
  World w;
  w.establish();
  w.fabric.faults().set_node_down(w.server.addr(), true);
  sim::Counter completion{w.sched};
  ASSERT_TRUE(
      w.client.send_message(*w.client_ep, kMsgPing, {}, {}, nullptr, {}, &completion).ok());
  int woke = -1;  // -1 while waiting, then 1 for success and 0 for failure
  w.sched.spawn([](sim::Counter& c, int& out) -> Task<> {
    out = (co_await c.wait_geq(1)) ? 1 : 0;
  }(completion, woke));
  w.sched.run_until(w.sched.now() + 100_us);
  ASSERT_EQ(woke, -1);
  ASSERT_GT(w.client.pending_op_count(), 0u);

  w.client.close(*w.client_ep);
  EXPECT_EQ(w.client.pending_op_count(), 0u);
  w.sched.run_until(w.sched.now() + 100_us);
  EXPECT_EQ(woke, 0);
}

// --------------------------------------------------- untrusted peers ----

/// A bare verbs QP connected to a listening runtime. It sends hand-built
/// AmWire messages, as a faulty or hostile peer could, and reads what the
/// runtime sends back.
class RawPeer {
 public:
  static constexpr std::size_t kSlot = 8_KiB;
  static constexpr std::uint32_t kRecvs = 8;
  static constexpr std::uint32_t kSends = 32;

  explicit RawPeer(verbs::Hca& hca)
      : hca_(&hca), cq_(hca.create_cq()), send_buf_(kSlot * kSends), recv_buf_(kSlot * kRecvs) {
    send_mr_ = &hca.reg_mr(send_buf_);
    recv_mr_ = &hca.reg_mr(recv_buf_);
  }

  void connect(Scheduler& sched, sim::NicAddr dst, std::uint16_t port) {
    sched.spawn([](RawPeer& p, sim::NicAddr d, std::uint16_t pt) -> Task<> {
      auto qp = co_await p.hca_->connect(d, pt, *p.cq_, *p.cq_);
      EXPECT_TRUE(qp.ok());
      if (qp.ok()) p.qp_ = *qp;
    }(*this, dst, port));
    sched.run();
    ASSERT_NE(qp_, nullptr);
    for (std::uint32_t i = 0; i < kRecvs; ++i) repost(i);
  }

  /// SEND the first `len` bytes of `am` followed by `body` (zero-padded).
  void send(const wire::AmWire& am, std::size_t len, const std::string& body = {}) {
    const std::span<std::byte> slot =
        std::span(send_buf_).subspan(next_send_++ % kSends * kSlot, kSlot);
    std::fill(slot.begin(), slot.end(), std::byte{0});
    am.encode(slot.data());
    std::memcpy(slot.data() + wire::AmWire::kSize, body.data(), body.size());
    EXPECT_TRUE(qp_->post_send({.opcode = verbs::Opcode::send,
                                .local = slot.first(len),
                                .lkey = send_mr_->lkey()})
                    .ok());
  }

  /// The wire header of every message the runtime sent here since the
  /// last call.
  std::vector<wire::AmWire> received() {
    std::vector<wire::AmWire> out;
    while (auto wc = cq_->poll()) {
      if (wc->opcode != verbs::Opcode::recv) continue;
      out.push_back(wire::AmWire::decode(recv_buf_.data() + wc->wr_id * kSlot));
      repost(static_cast<std::uint32_t>(wc->wr_id));
    }
    return out;
  }

 private:
  void repost(std::uint32_t slot) {
    EXPECT_TRUE(qp_->post_recv({.wr_id = slot,
                                .buffer = std::span(recv_buf_).subspan(slot * kSlot, kSlot),
                                .lkey = recv_mr_->lkey()})
                    .ok());
  }

  verbs::Hca* hca_;
  std::unique_ptr<verbs::CompletionQueue> cq_;
  std::vector<std::byte> send_buf_;
  std::vector<std::byte> recv_buf_;
  verbs::MemoryRegion* send_mr_ = nullptr;
  verbs::MemoryRegion* recv_mr_ = nullptr;
  verbs::QueuePair* qp_ = nullptr;
  std::size_t next_send_ = 0;
};

TEST(UntrustedPeer, MalformedMessagesAreDroppedAndCredited) {
  World w;
  int delivered = 0;
  std::string header_seen, data_seen;
  std::vector<std::byte> dest(8_KiB);
  w.server.register_handler(
      kMsgData,
      {.on_header = [&](Endpoint&, std::span<const std::byte>,
                        std::uint32_t) { return std::span<std::byte>(dest); },
       .on_complete = [&](Endpoint&, std::span<const std::byte> header,
                          std::span<std::byte> data) {
         ++delivered;
         header_seen.assign(reinterpret_cast<const char*>(header.data()), header.size());
         data_seen.assign(reinterpret_cast<const char*>(data.data()), data.size());
       }});
  w.server.listen(7000, [](Endpoint&) {});
  RawPeer peer(w.hca_client);
  peer.connect(w.sched, w.server.addr(), 7000);

  wire::AmWire am;
  am.msg_id = kMsgData;
  // Four lies, four times each: half the credit window.
  for (int i = 0; i < 4; ++i) {
    wire::AmWire lie = am;
    lie.kind = i % 2 == 0 ? wire::Kind::eager : wire::Kind::rendezvous;
    lie.header_len = 4000;  // a header that never arrived
    peer.send(lie, wire::AmWire::kSize);
    lie = am;
    lie.header_len = 8;
    lie.data_len = 5000;  // eager data that never arrived
    peer.send(lie, wire::AmWire::kSize + 8);
    lie = am;
    lie.kind = static_cast<wire::Kind>(0x7f);  // no such kind
    peer.send(lie, wire::AmWire::kSize);
    peer.send(am, wire::AmWire::kSize - 8);  // shorter than the wire header
  }
  w.sched.run();
  EXPECT_EQ(delivered, 0);
  // Each drop returned its credit: half a window comes back at once.
  std::uint32_t credits = 0;
  for (const wire::AmWire& got : peer.received()) credits += got.credits;
  EXPECT_EQ(credits, UcrConfig{}.credits_per_ep / 2);

  // The endpoint still carries well-formed messages.
  am.header_len = 4;
  am.data_len = 4;
  peer.send(am, wire::AmWire::kSize + 8, "headdata");
  w.sched.run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(header_seen, "head");
  EXPECT_EQ(data_seen, "data");
}

TEST(UntrustedPeer, AnAckCompletesOnlyARecordOfItsOwnEndpoint) {
  World w;
  std::vector<Endpoint*> eps;
  w.server.listen(7000, [&](Endpoint& ep) { eps.push_back(&ep); });
  RawPeer owner(w.hca_client);
  RawPeer other(w.hca_client);
  owner.connect(w.sched, w.server.addr(), 7000);
  other.connect(w.sched, w.server.addr(), 7000);
  ASSERT_EQ(eps.size(), 2u);

  sim::Counter completion(w.sched);
  ASSERT_TRUE(
      w.server.send_message(*eps[0], kMsgData, bytes_view("h"), {}, nullptr, {}, &completion)
          .ok());
  w.sched.run();
  const std::vector<wire::AmWire> got = owner.received();
  ASSERT_EQ(got.size(), 1u);
  ASSERT_EQ(got[0].want_flags, wire::kAckCompletion);
  wire::AmWire ack;
  ack.kind = wire::Kind::internal_ack;
  ack.token = got[0].token;
  ack.ack_flags = wire::kAckCompletion;

  // The other peer acks a token it was never sent: nothing happens.
  other.send(ack, wire::AmWire::kSize);
  w.sched.run();
  EXPECT_EQ(completion.value(), 0u);
  EXPECT_EQ(w.server.pending_op_count(), 1u);

  owner.send(ack, wire::AmWire::kSize);
  w.sched.run();
  EXPECT_EQ(completion.value(), 1u);
  EXPECT_EQ(w.server.pending_op_count(), 0u);
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
