// RFP server-bypass RPC: request/response rings for the full command set.
//
// Covers the frame layer (seal/read, epoch staleness, torn detection),
// the bootstrap handshake, the whole command set served through the
// rings, slot-epoch reuse (wrap-around without clearing writes), the
// ring-full / oversize / reply-overflow backpressure ladders into classic
// RPC, torn-frame handling on both sides of the fabric, lost-slot
// reclamation, the client's poll ticks (what a warm op costs in events,
// and the instants at which a timeout or a failure ends an op), and — the
// governing invariant, inherited from the one-sided suite — that under
// scripted link loss an RFP client never surfaces a torn value.
#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "memcached/client.hpp"
#include "memcached/server.hpp"
#include "obs/metrics.hpp"
#include "rfp/channel.hpp"
#include "rfp/ring_server.hpp"
#include "simnet/faults.hpp"
#include "simnet/netparams.hpp"
#include "ucr/frame.hpp"
#include "ucr/runtime.hpp"

namespace rmc {
namespace {

using namespace rmc::literals;
namespace ucrp = mc::ucrp;
using sim::Scheduler;
using sim::Task;

std::uint64_t metric(const char* name) { return obs::registry().counter(name).value(); }

std::span<const std::byte> bytes_view(const std::string& s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

// --------------------------------------------------- frame layer (pure) ----

TEST(RfpFrame, SealReadRoundTripEpochsAndTearing) {
  std::vector<std::byte> slot(256);
  std::span<const std::byte> body;

  // A zeroed slot is empty for a consumer at epoch 1 (seq 0 != 1).
  EXPECT_EQ(ucr::read_frame(slot, 1, body), ucr::FrameState::empty);

  std::span<std::byte> payload = ucr::frame_body(slot);
  for (int i = 0; i < 32; ++i) payload[i] = static_cast<std::byte>(i);
  ucr::seal_frame(slot, 1, 32);

  ASSERT_EQ(ucr::read_frame(slot, 1, body), ucr::FrameState::ready);
  EXPECT_EQ(body.size(), 32u);
  EXPECT_EQ(body.data(), payload.data());  // aliases the slot, no copy

  // Epoch advance makes the same bytes invisible — reuse needs no clear.
  EXPECT_EQ(ucr::read_frame(slot, 2, body), ucr::FrameState::empty);

  // A body byte flipped while carrying the expected seq = torn, not ready.
  payload[5] ^= std::byte{0xff};
  EXPECT_EQ(ucr::read_frame(slot, 1, body), ucr::FrameState::torn);
  payload[5] ^= std::byte{0xff};
  EXPECT_EQ(ucr::read_frame(slot, 1, body), ucr::FrameState::ready);

  // A missing tail (header landed, tail not yet) = torn as well.
  const std::uint32_t zero = 0;
  std::memcpy(slot.data() + ucr::FrameHeader::kSize + 32, &zero, sizeof(zero));
  EXPECT_EQ(ucr::read_frame(slot, 1, body), ucr::FrameState::torn);
}

TEST(RfpFrame, BootstrapStructsRoundTripAndValidity) {
  rfp::RingDescriptor d;
  EXPECT_FALSE(d.valid());  // the zeroed descriptor = "stay on RPC"
  d.slot_count = 4;
  d.slot_size = 512;
  EXPECT_TRUE(d.valid());
  d.slot_size = 8;  // can't even frame an empty body
  EXPECT_FALSE(d.valid());
}

// -------------------------------------------------------------- worlds ----

/// One server (UCR frontend + RingServer) and one rfp-mode client.
struct RfpWorld {
  Scheduler sched;
  sim::Fabric fabric{sched, sim::ib_qdr_link()};

  sim::Host server_host{sched, 0, "server", 8};
  verbs::Hca server_hca{sched, fabric, server_host};
  ucr::Runtime server_ucr{server_hca};
  mc::Server server{sched, server_host, mc::ServerConfig{}};
  std::unique_ptr<rfp::RingServer> ring;

  sim::Host client_host{sched, 1, "client", 8};
  verbs::Hca client_hca{sched, fabric, client_host};
  ucr::Runtime client_ucr{client_hca};
  std::unique_ptr<mc::Client> client;

  explicit RfpWorld(mc::ClientBehavior behavior = {},
                    rfp::RingServerConfig ring_cfg = {}) {
    server.attach_ucr_frontend(server_ucr);
    ring = std::make_unique<rfp::RingServer>(server_ucr, server_host, server, ring_cfg);
    behavior.mode = mc::ClientBehavior::Mode::rfp;
    client = std::make_unique<mc::Client>(sched, client_host, behavior);
    client->add_server_ucr(client_ucr, server_ucr.addr(), 11211);
  }

  void drive(Task<> task, sim::Time horizon = 5_s) {
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

/// Server side plus a *raw* Channel — for tests that need the channel's
/// staging/arena hooks (forged torn frames, slot epoch assertions).
struct ChannelWorld {
  Scheduler sched;
  sim::Fabric fabric{sched, sim::ib_qdr_link()};

  sim::Host server_host{sched, 0, "server", 8};
  verbs::Hca server_hca{sched, fabric, server_host};
  ucr::Runtime server_ucr{server_hca};
  mc::Server server{sched, server_host, mc::ServerConfig{}};
  std::unique_ptr<rfp::RingServer> ring;

  sim::Host client_host{sched, 1, "client", 8};
  verbs::Hca client_hca{sched, fabric, client_host};
  ucr::Runtime client_ucr{client_hca};
  std::unique_ptr<rfp::Channel> channel;
  ucr::Endpoint* ep = nullptr;

  explicit ChannelWorld(rfp::ChannelConfig cfg = {}, rfp::RingServerConfig srv_cfg = {}) {
    server.attach_ucr_frontend(server_ucr);
    ring = std::make_unique<rfp::RingServer>(server_ucr, server_host, server, srv_cfg);
    channel = std::make_unique<rfp::Channel>(client_ucr, client_host, cfg);
  }

  Task<Status> connect_and_bootstrap() {
    auto r = co_await client_ucr.connect(server_ucr.addr(), 11211);
    if (!r.ok()) co_return r.error();
    ep = *r;
    co_return co_await channel->bootstrap(*ep);
  }

  /// One GET through the raw channel; returns the op result status (the
  /// response status is checked by the caller via out).
  Task<Result<rfp::OpResult>> raw_get(std::string_view key, sim::Time timeout = 1 * kNsPerSec) {
    ucrp::RequestHeader hdr;
    hdr.op = ucrp::Op::get;
    hdr.key_len = static_cast<std::uint16_t>(key.size());
    co_return co_await channel->execute(
        *ep, hdr, std::as_bytes(std::span<const char>(key.data(), key.size())), {}, timeout);
  }

  Task<Result<rfp::OpResult>> raw_set(std::string_view key, const std::string& value) {
    ucrp::RequestHeader hdr;
    hdr.op = ucrp::Op::set;
    hdr.key_len = static_cast<std::uint16_t>(key.size());
    co_return co_await channel->execute(
        *ep, hdr, std::as_bytes(std::span<const char>(key.data(), key.size())),
        bytes_view(value), 1 * kNsPerSec);
  }

  void drive(Task<> task, sim::Time horizon = 5_s) {
    bool done = false;
    sched.spawn([](Task<> inner, bool& fin) -> Task<> {
      co_await std::move(inner);
      fin = true;
    }(std::move(task), done));
    const sim::Time deadline = sched.now() + horizon;
    while (!done && sched.now() < deadline) {
      const sim::Time before = sched.now();
      sched.run_until(std::min(deadline, before + 1_ms));
      if (sched.now() == before) break;
    }
    ASSERT_TRUE(done) << "scenario hung past its horizon";
  }
};

/// Seal a deliberately-corrupt frame at `seq` into `slot`: header and tail
/// are consistent but one body byte is flipped after checksumming, so any
/// consumer expecting `seq` reads torn until a genuine frame lands.
void forge_torn_frame(std::span<std::byte> slot, std::uint32_t seq) {
  std::span<std::byte> body = ucr::frame_body(slot);
  const std::uint32_t body_len = 24;
  for (std::uint32_t i = 0; i < body_len; ++i) body[i] = static_cast<std::byte>(0x5a);
  ucr::seal_frame(slot, seq, body_len);
  body[3] ^= std::byte{0xff};
}

// -------------------------------------------- the full command set ----

TEST(Rfp, FullCommandSetRidesTheRingsWithoutFallback) {
  RfpWorld w;
  const std::uint64_t ops0 = metric("mc.rfp.ops");
  const std::uint64_t falls0 = metric("mc.rfp.fallbacks");
  const std::uint64_t boots0 = metric("mc.rfp.bootstraps");
  const std::uint64_t sweeps0 = metric("mc.rfp.poll.sweeps");
  const std::uint64_t frames0 = metric("mc.rfp.poll.frames");

  w.drive([](RfpWorld& wk) -> Task<> {
    EXPECT_TRUE((co_await wk.client->connect_all()).ok());

    // Storage family.
    EXPECT_TRUE((co_await wk.client->set("alpha", bytes_view("value-one"), 7)).ok());
    EXPECT_FALSE((co_await wk.client->add("alpha", bytes_view("x"))).ok());
    EXPECT_TRUE((co_await wk.client->replace("alpha", bytes_view("value-two"), 9)).ok());
    EXPECT_TRUE((co_await wk.client->append("alpha", bytes_view("!"))).ok());

    // GET / gets / get_into.
    auto hit = co_await wk.client->get("alpha");
    EXPECT_TRUE(hit.ok());
    if (hit.ok()) {
      EXPECT_EQ(std::string(reinterpret_cast<const char*>(hit->data.data()),
                            hit->data.size()),
                "value-two!");
    }
    auto with_cas = co_await wk.client->gets("alpha");
    EXPECT_TRUE(with_cas.ok());
    if (with_cas.ok()) {
      EXPECT_GT(with_cas->cas, 0u);
    }
    std::vector<std::byte> dest(64);
    auto direct = co_await wk.client->get_into("alpha", dest);
    EXPECT_TRUE(direct.ok());
    if (direct.ok()) {
      EXPECT_EQ(direct->value_len, 10u);
    }
    auto miss = co_await wk.client->get("never-stored");
    EXPECT_EQ(miss.error(), Errc::not_found);

    // INCR / DECR.
    EXPECT_TRUE((co_await wk.client->set("ctr", bytes_view("41"))).ok());
    auto up = co_await wk.client->incr("ctr", 1);
    EXPECT_TRUE(up.ok());
    if (up.ok()) {
      EXPECT_EQ(*up, 42u);
    }
    auto down = co_await wk.client->decr("ctr", 2);
    EXPECT_TRUE(down.ok());
    if (down.ok()) {
      EXPECT_EQ(*down, 40u);
    }

    // TOUCH / DELETE.
    EXPECT_TRUE((co_await wk.client->touch("ctr", 3600)).ok());
    EXPECT_TRUE((co_await wk.client->del("alpha")).ok());
    EXPECT_EQ((co_await wk.client->get("alpha")).error(), Errc::not_found);

    // Multiget: one request frame, one chunked reply frame.
    const std::vector<std::string> keys = {"m0", "m1", "m2", "m3"};
    for (const auto& k : keys) {
      EXPECT_TRUE((co_await wk.client->set(k, bytes_view("v-" + k), 5)).ok());
    }
    auto many = co_await wk.client->mget(keys);
    EXPECT_TRUE(many.ok());
    if (many.ok() && many->size() == 4) {
      for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_TRUE((*many)[i].has_value()) << "mget miss at " << i;
        if (!(*many)[i].has_value()) continue;
        EXPECT_EQ(std::string(reinterpret_cast<const char*>((*many)[i]->data.data()),
                              (*many)[i]->data.size()),
                  "v-" + keys[i]);
      }
    } else if (many.ok()) {
      ADD_FAILURE() << "mget returned " << many->size() << " results";
    }

    // flush_all stays on the RPC path (fallback matrix) but still works.
    EXPECT_TRUE((co_await wk.client->flush_all()).ok());
    EXPECT_EQ((co_await wk.client->get("m0")).error(), Errc::not_found);
  }(w));

  EXPECT_GE(metric("mc.rfp.bootstraps") - boots0, 1u);
  EXPECT_GE(metric("mc.rfp.ops") - ops0, 15u);
  // Every command above that the rings can serve was served there.
  EXPECT_EQ(metric("mc.rfp.fallbacks") - falls0, 0u);
  EXPECT_GT(metric("mc.rfp.poll.sweeps") - sweeps0, 0u);
  EXPECT_GT(metric("mc.rfp.poll.frames") - frames0, 0u);
  EXPECT_EQ(w.ring->ring_count(), 1u);
}

// ------------------------------------- wrap-around / epoch lockstep ----

TEST(Rfp, SlotEpochsAdvanceAcrossWrapAroundWithoutClearing) {
  rfp::ChannelConfig cfg;
  cfg.slot_count = 2;
  ChannelWorld w(cfg);

  w.drive([](ChannelWorld& wk) -> Task<> {
    EXPECT_TRUE((co_await wk.connect_and_bootstrap()).ok());
    EXPECT_EQ(wk.channel->descriptor().slot_count, 2u);

    auto stored = co_await wk.raw_set("wrap", std::string(48, 'w'));
    EXPECT_TRUE(stored.ok());
    if (!stored.ok()) co_return;
    EXPECT_EQ(stored->header.status, ucrp::RStatus::stored);
    wk.channel->release(stored->slot);

    // 10 sequential GETs over a 2-slot ring: every op claims slot 0, so
    // its epoch must climb once per op — stale response frames from prior
    // epochs are invisible by seq alone (nothing is ever cleared).
    for (int i = 0; i < 10; ++i) {
      auto r = co_await wk.raw_get("wrap");
      EXPECT_TRUE(r.ok()) << "op " << i;
      if (!r.ok()) co_return;
      EXPECT_EQ(r->header.status, ucrp::RStatus::value);
      EXPECT_EQ(r->slot, 0u);
      EXPECT_EQ(r->body.size(), 48u);
      wk.channel->release(r->slot);
    }
    // set (epoch 1) + 10 gets: slot 0 sits at epoch 12 for the next op.
    EXPECT_EQ(wk.channel->slot_seq_for_test(0), 12u);
    EXPECT_EQ(wk.channel->slots_in_flight(), 0u);
  }(w));
}

TEST(Rfp, ReBootstrapStartsFromZeroedRings) {
  // A channel that re-bootstraps (here onto a second endpoint) keeps its
  // arenas' addresses, so their registrations hold, but must start from
  // zeroed slots: a stale response frame of the old epoch whose seq the
  // new ring reuses would otherwise read as ready.
  ChannelWorld w;
  w.drive([](ChannelWorld& wk) -> Task<> {
    EXPECT_TRUE((co_await wk.connect_and_bootstrap()).ok());
    auto stored = co_await wk.raw_set("again", std::string(48, 'a'));
    EXPECT_TRUE(stored.ok());
    if (!stored.ok()) co_return;
    wk.channel->release(stored->slot);
    const std::span<std::byte> arena = wk.channel->response_arena_for_test();
    EXPECT_NE(std::count(arena.begin(), arena.end(), std::byte{0}),
              static_cast<std::ptrdiff_t>(arena.size()));

    EXPECT_TRUE((co_await wk.connect_and_bootstrap()).ok());
    const std::span<std::byte> fresh = wk.channel->response_arena_for_test();
    EXPECT_EQ(fresh.data(), arena.data());
    EXPECT_EQ(std::count(fresh.begin(), fresh.end(), std::byte{0}),
              static_cast<std::ptrdiff_t>(fresh.size()));

    auto r = co_await wk.raw_get("again");
    EXPECT_TRUE(r.ok());
    if (!r.ok()) co_return;
    EXPECT_EQ(r->header.status, ucrp::RStatus::value);
    EXPECT_EQ(r->body.size(), 48u);
    wk.channel->release(r->slot);
  }(w));
}

// ------------------------------------------------- backpressure ladders ----

TEST(Rfp, RingFullBackpressureFallsBackToRpcAndRecovers) {
  mc::ClientBehavior behavior;
  behavior.rfp.slot_count = 2;  // tiny ring: concurrency must overflow it
  RfpWorld w(behavior);
  const std::uint64_t full0 = metric("mc.rfp.ring_full");
  const std::uint64_t falls0 = metric("mc.rfp.fallbacks");

  w.drive([](RfpWorld& wk) -> Task<> {
    EXPECT_TRUE((co_await wk.client->connect_all()).ok());
    constexpr int kKeys = 8;
    for (int i = 0; i < kKeys; ++i) {
      EXPECT_TRUE((co_await wk.client->set("k" + std::to_string(i),
                                           bytes_view("v" + std::to_string(i))))
                      .ok());
    }
    // 8 concurrent GETs against 2 slots: the overflow must transparently
    // run over RPC — all 8 succeed either way.
    int done = 0, ok = 0;
    for (int i = 0; i < kKeys; ++i) {
      wk.sched.spawn([](RfpWorld& w2, int i2, int& done2, int& ok2) -> Task<> {
        auto r = co_await w2.client->get("k" + std::to_string(i2));
        if (r.ok()) ++ok2;
        ++done2;
      }(wk, i, done, ok));
    }
    while (done < kKeys) co_await wk.sched.delay(10_us);
    EXPECT_EQ(ok, kKeys);

    // The ring is usable again once the burst drains.
    EXPECT_TRUE((co_await wk.client->get("k0")).ok());
  }(w));

  EXPECT_GT(metric("mc.rfp.ring_full") - full0, 0u);
  EXPECT_GT(metric("mc.rfp.fallbacks") - falls0, 0u);
}

TEST(Rfp, OversizeRequestsAndOverflowingRepliesFallBackToRpc) {
  mc::ClientBehavior behavior;
  behavior.rfp.slot_size = 512;  // bodies near/over 512 B cannot be framed
  RfpWorld w(behavior);
  const std::uint64_t over0 = metric("mc.rfp.oversize");
  const std::uint64_t falls0 = metric("mc.rfp.fallbacks");

  w.drive([](RfpWorld& wk) -> Task<> {
    EXPECT_TRUE((co_await wk.client->connect_all()).ok());

    // Request too big for a slot: client-side oversize gate, RPC serves it.
    const std::string big(2000, 'b');
    EXPECT_TRUE((co_await wk.client->set("big", bytes_view(big))).ok());

    // Request fits (a bare key) but the reply cannot: the server seals a
    // server_error frame and the client re-runs the GET over RPC.
    auto r = co_await wk.client->get("big");
    EXPECT_TRUE(r.ok());
    if (r.ok()) {
      EXPECT_EQ(r->data.size(), big.size());
    }

    // Small values still ride the rings end to end.
    EXPECT_TRUE((co_await wk.client->set("small", bytes_view("tiny"))).ok());
    auto s = co_await wk.client->get("small");
    EXPECT_TRUE(s.ok());
  }(w));

  EXPECT_GT(metric("mc.rfp.oversize") - over0, 0u);
  EXPECT_GE(metric("mc.rfp.fallbacks") - falls0, 2u);
}

// ------------------------------------------------ request checking ----

TEST(Rfp, RingRequestsAreCheckedLikeText) {
  // The ring server checks a frame body with the parser the AM path uses,
  // and answers the same three bad requests client_error.
  ChannelWorld w;
  const std::string prefix(mc::proto::Request::kMaxKeyLen, 'k');
  ASSERT_TRUE(
      w.server.store().store(mc::SetMode::set, prefix, bytes_view("prefix value"), 0, 0).ok());

  w.drive([](ChannelWorld& wk, const std::string& stored_key) -> Task<> {
    EXPECT_TRUE((co_await wk.connect_and_bootstrap()).ok());

    // A 251-byte key whose 250-byte prefix is stored.
    const std::string long_key = stored_key + "x";
    auto overlong = co_await wk.raw_get(long_key);
    EXPECT_TRUE(overlong.ok());
    if (!overlong.ok()) co_return;
    EXPECT_EQ(overlong->header.status, ucrp::RStatus::client_error);
    wk.channel->release(overlong->slot);

    // An op byte that names no op.
    ucrp::RequestHeader no_op;
    no_op.op = static_cast<ucrp::Op>(200);
    auto unknown = co_await wk.channel->execute(*wk.ep, no_op, bytes_view("abc"), {},
                                                1 * kNsPerSec);
    EXPECT_TRUE(unknown.ok());
    if (!unknown.ok()) co_return;
    EXPECT_EQ(unknown->header.status, ucrp::RStatus::client_error);
    wk.channel->release(unknown->slot);

    // A key_len that claims more bytes than the frame carries. execute()
    // sets key_len from the key it frames, so this request is forged:
    // sealed at idle slot 1's epoch (sequential ops use slot 0) and
    // written straight into the request ring. Its answer lands in
    // response slot 1 at the same epoch.
    constexpr std::uint32_t kSlot = 1;
    const std::uint32_t slot_size = wk.channel->descriptor().slot_size;
    const std::uint32_t seq = wk.channel->slot_seq_for_test(kSlot);
    std::vector<std::byte> frame(slot_size);
    wk.client_ucr.register_region(frame);
    ucrp::RequestHeader lying;
    lying.op = ucrp::Op::get;
    lying.key_len = 100;
    lying.req_id = 7;
    const std::string key = "short";
    const std::span<std::byte> body = ucr::frame_body(frame);
    lying.encode(body.data());
    std::memcpy(body.data() + ucrp::RequestHeader::kSize, key.data(), key.size());
    const auto body_len = static_cast<std::uint32_t>(ucrp::RequestHeader::kSize + key.size());
    ucr::seal_frame(frame, seq, body_len);
    const auto framed = std::span<const std::byte>(frame).first(ucr::framed_size(body_len));
    EXPECT_TRUE(wk.client_ucr
                    .put(*wk.ep, framed, wk.channel->descriptor().request_ring,
                         kSlot * slot_size, nullptr)
                    .ok());
    const auto response =
        wk.channel->response_arena_for_test().subspan(kSlot * slot_size, slot_size);
    std::span<const std::byte> answer;
    for (int i = 0; i < 100 && ucr::read_frame(response, seq, answer) != ucr::FrameState::ready;
         ++i) {
      co_await wk.sched.delay(1_us);
    }
    EXPECT_EQ(ucr::read_frame(response, seq, answer), ucr::FrameState::ready);
    if (answer.size() < ucrp::ResponseHeader::kSize) co_return;
    const auto resp = ucrp::ResponseHeader::decode(answer.data());
    EXPECT_EQ(resp.status, ucrp::RStatus::client_error);
    EXPECT_EQ(resp.req_id, 7u);
  }(w, prefix));
}

// ----------------------------------------------------- torn frames ----

TEST(Rfp, ServerSkipsTornRequestFrameUntilItHeals) {
  ChannelWorld w;
  const std::uint64_t torn0 = metric("mc.rfp.torn_frames");

  w.drive([](ChannelWorld& wk) -> Task<> {
    EXPECT_TRUE((co_await wk.connect_and_bootstrap()).ok());
    auto stored = co_await wk.raw_set("whole", "intact-value");
    EXPECT_TRUE(stored.ok());
    if (!stored.ok()) co_return;
    wk.channel->release(stored->slot);

    // Forge a torn frame directly into the server's request ring at slot
    // 1's expected epoch (slot 1 is idle: sequential ops reuse slot 0).
    // The sweep must flag it torn — and never execute it.
    const std::uint32_t slot_size = wk.channel->descriptor().slot_size;
    std::vector<std::byte> garbage(slot_size);
    wk.client_ucr.register_region(garbage);
    forge_torn_frame(garbage, /*seq=*/1);
    const auto& win = wk.channel->descriptor().request_ring;
    const ucr::Runtime::RemoteMemory target{win.addr, win.rkey, win.length};
    EXPECT_TRUE(wk.client_ucr
                    .put(*wk.ep, std::span<const std::byte>(garbage),
                         target, /*offset=*/1 * slot_size, nullptr)
                    .ok());
    co_await wk.sched.delay(30_us);  // several sweeps observe the tear

    // The healthy slots keep serving ops the whole time.
    auto r = co_await wk.raw_get("whole");
    EXPECT_TRUE(r.ok());
    if (!r.ok()) co_return;
    EXPECT_EQ(r->header.status, ucrp::RStatus::value);
    wk.channel->release(r->slot);
  }(w));

  EXPECT_GT(metric("mc.rfp.torn_frames") - torn0, 0u);
}

TEST(Rfp, ClientRetriesTornResponseFrameUntilTheRealOneLands) {
  rfp::ChannelConfig cfg;
  cfg.max_torn_retries = 64;  // ride out the tear until the response lands
  ChannelWorld w(cfg);
  const std::uint64_t torn0 = metric("mc.rfp.torn_retries");

  w.drive([](ChannelWorld& wk) -> Task<> {
    EXPECT_TRUE((co_await wk.connect_and_bootstrap()).ok());
    auto stored = co_await wk.raw_set("heal", "healed-value");
    EXPECT_TRUE(stored.ok());
    if (!stored.ok()) co_return;
    wk.channel->release(stored->slot);

    // Pre-corrupt slot 0's response frame at the epoch the next op will
    // use: the poll loop must observe torn (a concurrent write, as far as
    // it can tell) and keep polling until the genuine response overwrites.
    const std::uint32_t slot_size = wk.channel->descriptor().slot_size;
    const std::uint32_t next_seq = wk.channel->slot_seq_for_test(0);
    forge_torn_frame(wk.channel->response_arena_for_test().subspan(0, slot_size),
                     next_seq);

    auto r = co_await wk.raw_get("heal");
    EXPECT_TRUE(r.ok());
    if (!r.ok()) co_return;
    EXPECT_EQ(r->header.status, ucrp::RStatus::value);
    EXPECT_EQ(std::string(reinterpret_cast<const char*>(r->body.data()), r->body.size()),
              "healed-value");
    wk.channel->release(r->slot);
  }(w));

  // One torn read per tick until the genuine response overwrites the forgery.
  EXPECT_EQ(metric("mc.rfp.torn_retries") - torn0, 36u);
}

// ------------------------------------------------------ poll ticks ----
//
// The client polls its response slot through the scheduler's poll lane:
// a tick that finds the slot empty costs no event, and every outcome is
// still seen at the tick where a delay() loop saw it. The request leaves
// kRequestBuildNs (300 ns) after execute() starts, on an idle client CPU;
// the slot is read at once and then every kPollNs (200 ns).

TEST(Rfp, WarmGetAndSetCostExactEventCounts) {
  // With one client, most of these are the server's sweeps, which bill its
  // CPU; the client's ticks that find the slot empty add none.
  RfpWorld w;
  std::uint64_t get_events = 0;
  std::uint64_t set_events = 0;
  w.drive([](RfpWorld& wk, std::uint64_t& get_n, std::uint64_t& set_n) -> Task<> {
    EXPECT_TRUE((co_await wk.client->connect_all()).ok());
    const std::string value(64, 'v');
    for (int i = 0; i < 10; ++i) {
      EXPECT_TRUE((co_await wk.client->set("warm", bytes_view(value))).ok());
      EXPECT_TRUE((co_await wk.client->get("warm")).ok());
    }
    std::uint64_t before = wk.sched.events_processed();
    EXPECT_TRUE((co_await wk.client->get("warm")).ok());
    get_n = wk.sched.events_processed() - before;
    before = wk.sched.events_processed();
    EXPECT_TRUE((co_await wk.client->set("warm", bytes_view(value))).ok());
    set_n = wk.sched.events_processed() - before;
  }(w, get_events, set_events));
  EXPECT_EQ(get_events, 52u);
  EXPECT_EQ(set_events, 53u);
}

TEST(Rfp, TimedOutOpReturnsAtTheFirstTickAtOrAfterItsDeadline) {
  ChannelWorld w;
  w.drive([](ChannelWorld& wk) -> Task<> {
    EXPECT_TRUE((co_await wk.connect_and_bootstrap()).ok());
    auto stored = co_await wk.raw_set("slow", "value");
    EXPECT_TRUE(stored.ok());
    if (!stored.ok()) co_return;
    wk.channel->release(stored->slot);

    // The deadline, 1030 ns after the post, falls between the ticks at
    // 1000 and 1200 ns; the response needs several microseconds.
    const std::uint32_t seq = wk.channel->slot_seq_for_test(0);
    const sim::Time start = wk.sched.now();
    auto r = co_await wk.raw_get("slow", 1'030);
    EXPECT_EQ(r.error(), Errc::timed_out);
    EXPECT_EQ(wk.sched.now() - start, 300u + 1'200u);
    EXPECT_EQ(wk.channel->slots_in_flight(), 0u);
    // Lost, not free: its epoch stays open, and the next op, issued before
    // the late response lands, takes the next slot.
    EXPECT_EQ(wk.channel->slot_seq_for_test(0), seq);
    auto next = co_await wk.raw_get("slow");
    EXPECT_TRUE(next.ok());
    if (!next.ok()) co_return;
    EXPECT_EQ(next->slot, 1u);
    wk.channel->release(next->slot);
  }(w));
}

TEST(Rfp, EndpointFailureMidPollReturnsDisconnectedAtTheNextTick) {
  ChannelWorld w;
  w.drive([](ChannelWorld& wk) -> Task<> {
    EXPECT_TRUE((co_await wk.connect_and_bootstrap()).ok());
    auto stored = co_await wk.raw_set("doomed", "value");
    EXPECT_TRUE(stored.ok());
    if (!stored.ok()) co_return;
    wk.channel->release(stored->slot);

    // The endpoint fails 1050 ns after the post, between two ticks.
    const sim::Time start = wk.sched.now();
    wk.sched.call_at(start + 300 + 1'050, [&wk] { wk.client_ucr.fail_endpoint(*wk.ep); });
    auto r = co_await wk.raw_get("doomed");
    EXPECT_EQ(r.error(), Errc::disconnected);
    EXPECT_EQ(wk.sched.now() - start, 300u + 1'200u);
    EXPECT_FALSE(wk.channel->ready());
    EXPECT_EQ(wk.channel->slots_in_flight(), 0u);
  }(w));
}

TEST(Rfp, TornBudgetExhaustionQuarantinesAndReclaimsTheSlot) {
  rfp::ChannelConfig cfg;
  cfg.max_torn_retries = 1;  // give up long before the real response lands
  ChannelWorld w(cfg);

  w.drive([](ChannelWorld& wk) -> Task<> {
    EXPECT_TRUE((co_await wk.connect_and_bootstrap()).ok());
    auto stored = co_await wk.raw_set("quarantine", "qv");
    EXPECT_TRUE(stored.ok());
    if (!stored.ok()) co_return;
    wk.channel->release(stored->slot);

    const std::uint32_t slot_size = wk.channel->descriptor().slot_size;
    const std::uint32_t seq = wk.channel->slot_seq_for_test(0);
    forge_torn_frame(wk.channel->response_arena_for_test().subspan(0, slot_size), seq);

    // The op exhausts its torn budget and falls back; the slot is lost,
    // not free — its epoch is still open.
    auto r = co_await wk.raw_get("quarantine");
    EXPECT_EQ(r.error(), Errc::protocol_error);
    EXPECT_EQ(wk.channel->slots_in_flight(), 0u);

    // The real response lands later and closes the epoch; the next op
    // reclaims the slot and runs on the advanced epoch.
    co_await wk.sched.delay(30_us);
    auto again = co_await wk.raw_get("quarantine");
    EXPECT_TRUE(again.ok());
    if (!again.ok()) co_return;
    EXPECT_EQ(again->header.status, ucrp::RStatus::value);
    EXPECT_EQ(again->slot, 0u);
    wk.channel->release(again->slot);
    EXPECT_EQ(wk.channel->slot_seq_for_test(0), seq + 2);
  }(w));
}

// ------------------------------------------------------------- chaos ----

/// Generation-stamped value (the one-sided suite's scheme): any stitch of
/// two generations fails the consistency check.
std::string gen_value(int gen, int key, std::size_t len) {
  std::string v = std::to_string(gen) + ":";
  v.append(len, static_cast<char>('a' + (gen * 7 + key * 3) % 26));
  return v;
}

bool value_consistent(const std::string& v, int key, std::size_t len) {
  const auto colon = v.find(':');
  if (colon == std::string::npos) return false;
  int gen = -1;
  auto [ptr, ec] = std::from_chars(v.data(), v.data() + colon, gen);
  if (ec != std::errc{} || ptr != v.data() + colon) return false;
  return v == gen_value(gen, key, len);
}

TEST(Rfp, NeverServesTornValuesUnderLinkLoss) {
  mc::ClientBehavior behavior;
  behavior.op_timeout = 300_us;
  behavior.max_retries = 2;
  behavior.eject_after_failures = 0;  // pool of one: keep retrying it
  RfpWorld w(behavior);

  constexpr int kKeys = 6;
  constexpr int kGens = 30;
  constexpr std::size_t kLen = 256;

  const sim::Time t0 = w.sched.now();
  w.fabric.faults().schedule({
      {t0 + 200_us, {.kind = sim::Fault::Kind::loss,
                     .a = 1 /* client */, .b = 0 /* server */,
                     .drop_per_million = 30'000}},
      {t0 + 2_ms, {.kind = sim::Fault::Kind::loss, .a = 1, .b = 0,
                   .drop_per_million = 0}},
  });

  int hits = 0, misses = 0, transport_errors = 0, torn = 0;

  w.drive([](RfpWorld& wk, int& hits2, int& misses2, int& errors2, int& torn2) -> Task<> {
    EXPECT_TRUE((co_await wk.client->connect_all()).ok());
    for (int k = 0; k < kKeys; ++k) {
      EXPECT_TRUE((co_await wk.client->set("key" + std::to_string(k),
                                           bytes_view(gen_value(0, k, kLen))))
                      .ok());
    }

    // Interleave republishes and reads across the lossy window: every GET
    // must surface a whole generation or an error — never a stitch.
    Rng rng(7);
    for (int gen = 1; gen <= kGens; ++gen) {
      const int wk_key = static_cast<int>(rng.below(kKeys));
      (void)co_await wk.client->set("key" + std::to_string(wk_key),
                                    bytes_view(gen_value(gen, wk_key, kLen)));
      for (int i = 0; i < 8; ++i) {
        const int k = static_cast<int>(rng.below(kKeys));
        auto r = co_await wk.client->get("key" + std::to_string(k));
        if (r.ok()) {
          const std::string v(reinterpret_cast<const char*>(r->data.data()),
                              r->data.size());
          if (value_consistent(v, k, kLen)) {
            ++hits2;
          } else {
            ++torn2;
            ADD_FAILURE() << "torn value for key" << k << ": " << v.substr(0, 32);
          }
        } else if (r.error() == Errc::not_found) {
          ++misses2;
        } else {
          ++errors2;  // lossy window: bounded failures are fine
        }
      }
    }
  }(w, hits, misses, transport_errors, torn));

  EXPECT_EQ(torn, 0);
  EXPECT_GT(hits, 0);
}

// ------------------------------------------------- bootstrap stragglers ----

TEST(Rfp, LateBootstrapRepliesWakeNothing) {
  ChannelWorld w;

  w.drive([](ChannelWorld& wk) -> Task<> {
    auto conn = co_await wk.client_ucr.connect(wk.server_ucr.addr(), 11211);
    EXPECT_TRUE(conn.ok());
    if (!conn.ok()) co_return;
    wk.ep = *conn;

    // Each reply needs 100 us to come back; each call gives up after 20.
    wk.fabric.faults().set_link_delay(1, 0, 50_us);
    EXPECT_EQ((co_await wk.channel->bootstrap(*wk.ep, 20_us)).error(), Errc::timed_out);
    EXPECT_EQ((co_await wk.channel->bootstrap(*wk.ep, 20_us)).error(), Errc::timed_out);
    co_await wk.sched.delay(1_ms);  // both stragglers land here
    EXPECT_FALSE(wk.channel->ready());

    wk.fabric.faults().set_link_delay(1, 0, 0);
    EXPECT_TRUE((co_await wk.channel->bootstrap(*wk.ep)).ok());
    EXPECT_TRUE(wk.channel->ready());
    auto stored = co_await wk.raw_set("late", "straggler");
    EXPECT_TRUE(stored.ok());
    if (!stored.ok()) co_return;
    EXPECT_EQ(stored->header.status, ucrp::RStatus::stored);
    wk.channel->release(stored->slot);
  }(w));
}

// --------------------------------------------------- park / wake cycle ----

TEST(Rfp, PollLoopParksWhenIdleAndWakesForTheNextOp) {
  rfp::RingServerConfig srv;
  srv.park_after_ns = 20'000;  // park fast so the test sees a full cycle
  ChannelWorld w({}, srv);
  const std::uint64_t parks0 = metric("mc.rfp.poll.parks");
  const std::uint64_t wakes0 = metric("mc.rfp.wakes");

  w.drive([](ChannelWorld& wk) -> Task<> {
    EXPECT_TRUE((co_await wk.connect_and_bootstrap()).ok());
    auto stored = co_await wk.raw_set("nap", "zzz");
    EXPECT_TRUE(stored.ok());
    if (!stored.ok()) co_return;
    wk.channel->release(stored->slot);

    // Go quiet long past the park threshold, then issue another op: the
    // channel must nudge the parked loop awake and the op must complete.
    co_await wk.sched.delay(200_us);
    EXPECT_FALSE(wk.ring->polling());
    auto r = co_await wk.raw_get("nap");
    EXPECT_TRUE(r.ok());
    if (!r.ok()) co_return;
    EXPECT_EQ(r->header.status, ucrp::RStatus::value);
    wk.channel->release(r->slot);
  }(w));

  EXPECT_GT(metric("mc.rfp.poll.parks") - parks0, 0u);
  EXPECT_GT(metric("mc.rfp.wakes") - wakes0, 0u);
}

}  // namespace
}  // namespace rmc
