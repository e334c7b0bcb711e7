// Owning and zero-copy reads share one primitive per transport. One
// scripted op stream is replayed through text and binary over sockets and
// UCR rpc / onesided / rfp, each with one- and two-server pools. The
// owning forms (get, gets, mget) must agree with get_into / mget_into on
// hit/miss, bytes, flags and CAS; every configuration must give the same
// answers; and the landing rule must hold (a fitting `dest` receives the
// bytes, a too-small one is too_large for get_into and lands elsewhere
// for mget_into).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "memcached/client.hpp"
#include "memcached/server.hpp"
#include "onesided/publisher.hpp"
#include "rfp/ring_server.hpp"
#include "simnet/netparams.hpp"

namespace rmc::mc {
namespace {

using namespace rmc::literals;
using sim::Scheduler;
using sim::Task;

enum class Transport { text, binary, ucr_rpc, ucr_onesided, ucr_rfp };

const char* transport_label(Transport t) {
  switch (t) {
    case Transport::text: return "text";
    case Transport::binary: return "binary";
    case Transport::ucr_rpc: return "ucr-rpc";
    case Transport::ucr_onesided: return "ucr-onesided";
    case Transport::ucr_rfp: return "ucr-rfp";
  }
  return "?";
}

std::span<const std::byte> val(const std::string& s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

std::string str(std::span<const std::byte> bytes) {
  return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
}

/// One client wired to `servers` memcached servers over one transport.
struct Pool {
  Scheduler sched;
  sim::Fabric fabric{sched, sim::ib_qdr_link()};
  sim::Host client_host{sched, 100, "web", 8};
  std::unique_ptr<verbs::Hca> client_hca;
  std::unique_ptr<ucr::Runtime> client_ucr;
  std::unique_ptr<sock::NetStack> client_sock;
  std::vector<std::unique_ptr<sim::Host>> hosts;
  std::vector<std::unique_ptr<verbs::Hca>> hcas;
  std::vector<std::unique_ptr<ucr::Runtime>> runtimes;
  std::vector<std::unique_ptr<sock::NetStack>> stacks;
  std::vector<std::unique_ptr<Server>> servers;
  std::vector<std::unique_ptr<onesided::Publisher>> publishers;
  std::vector<std::unique_ptr<rfp::RingServer>> rings;
  std::unique_ptr<Client> client;

  Pool(Transport t, int n_servers) {
    ClientBehavior behavior;
    behavior.binary_protocol = t == Transport::binary;
    if (t == Transport::ucr_onesided) behavior.mode = ClientBehavior::Mode::onesided_get;
    if (t == Transport::ucr_rfp) behavior.mode = ClientBehavior::Mode::rfp;
    const bool sockets = t == Transport::text || t == Transport::binary;
    if (sockets) {
      client_sock = std::make_unique<sock::NetStack>(sched, fabric, client_host, sock::sdp_ib());
    } else {
      client_hca = std::make_unique<verbs::Hca>(sched, fabric, client_host);
      client_ucr = std::make_unique<ucr::Runtime>(*client_hca);
    }
    client = std::make_unique<Client>(sched, client_host, behavior);
    for (int i = 0; i < n_servers; ++i) {
      hosts.push_back(std::make_unique<sim::Host>(sched, i, "mc", 8));
      sim::Host& host = *hosts.back();
      servers.push_back(std::make_unique<Server>(sched, host, ServerConfig{}));
      Server& server = *servers.back();
      if (sockets) {
        stacks.push_back(std::make_unique<sock::NetStack>(sched, fabric, host, sock::sdp_ib()));
        server.attach_socket_frontend(*stacks.back());
        client->add_server_socket(*client_sock, stacks.back()->addr(), server.config().port);
        continue;
      }
      hcas.push_back(std::make_unique<verbs::Hca>(sched, fabric, host));
      runtimes.push_back(std::make_unique<ucr::Runtime>(*hcas.back()));
      ucr::Runtime& runtime = *runtimes.back();
      server.attach_ucr_frontend(runtime);
      if (t == Transport::ucr_onesided) {
        publishers.push_back(std::make_unique<onesided::Publisher>(
            runtime, host, server.store(), onesided::PublisherConfig{}));
      }
      if (t == Transport::ucr_rfp) {
        rings.push_back(std::make_unique<rfp::RingServer>(runtime, host, server,
                                                          rfp::RingServerConfig{}));
      }
      client->add_server_ucr(*client_ucr, runtime.addr(), server.config().port);
    }
  }

  /// Run one coroutine to completion under a horizon (the RFP poll loop
  /// and op timers keep the queue busy past the end of the script).
  void drive(Task<> task) {
    bool done = false;
    sched.spawn([](Task<> inner, bool& fin) -> Task<> {
      co_await std::move(inner);
      fin = true;
    }(std::move(task), done));
    const sim::Time deadline = sched.now() + 5_s;
    while (!done && sched.now() < deadline) {
      const sim::Time before = sched.now();
      sched.run_until(std::min(deadline, before + 1_ms));
      if (sched.now() == before) break;
    }
    ASSERT_TRUE(done) << "script hung past its horizon";
  }
};

/// The keyspace: even keys are stored, odd keys never are. k2 and k5 are
/// larger than the 64 B caller buffers.
constexpr std::array<std::size_t, 6> kSizes{40, 0, 300, 0, 8, 120};
constexpr std::size_t kDest = 64;

std::string key_of(std::size_t i) { return "rp:key:" + std::to_string(i); }

std::string value_of(std::size_t i) {
  std::string v(kSizes[i], 'a');
  for (std::size_t b = 0; b < v.size(); ++b) v[b] = static_cast<char>('a' + (i * 7 + b) % 26);
  return v;
}

bool stored(std::size_t i) { return kSizes[i] != 0; }

/// Replays the script; appends one line per observed answer (hit/miss,
/// length, flags — CAS ids are checked in place, not compared across
/// transports) so configurations can be compared with each other.
Task<> script(Client& cli, std::vector<std::string>& log) {
  if (!(co_await cli.connect_all()).ok()) {
    ADD_FAILURE() << "connect";
    co_return;
  }
  std::vector<std::string> keys;
  for (std::size_t i = 0; i < kSizes.size(); ++i) {
    keys.push_back(key_of(i));
    if (!stored(i)) continue;
    const auto flags = static_cast<std::uint32_t>(10 + i);
    if (!(co_await cli.set(keys[i], val(value_of(i)), flags)).ok()) ADD_FAILURE() << "set " << i;
  }

  // get vs get_into, key by key.
  for (std::size_t i = 0; i < keys.size(); ++i) {
    SCOPED_TRACE(keys[i]);
    std::array<std::byte, kDest> dest{};
    auto owned = co_await cli.get(keys[i]);
    auto into = co_await cli.get_into(keys[i], dest);
    if (!stored(i)) {
      EXPECT_EQ(owned.error(), Errc::not_found);
      EXPECT_EQ(into.error(), Errc::not_found);
      log.push_back("get " + keys[i] + " miss");
      continue;
    }
    if (!owned.ok()) {
      ADD_FAILURE() << "owning get failed";
      continue;
    }
    EXPECT_EQ(str(owned->data), value_of(i));
    EXPECT_EQ(owned->key, keys[i]);
    if (kSizes[i] > kDest) {
      EXPECT_EQ(into.error(), Errc::too_large);
    } else if (into.ok()) {
      EXPECT_EQ(into->landed, dest.data()) << "a fitting value must land in dest";
      EXPECT_EQ(str(into->value()), value_of(i));
      EXPECT_EQ(into->value_len, owned->data.size());
      EXPECT_EQ(into->flags, owned->flags);
      EXPECT_EQ(into->cas, owned->cas);
    } else {
      ADD_FAILURE() << "get_into failed";
    }
    log.push_back("get " + keys[i] + " hit " + std::to_string(owned->data.size()) + " flags " +
                  std::to_string(owned->flags));
  }

  // gets carries a CAS id the server accepts, and only the current one.
  auto with_cas = co_await cli.gets(keys[0]);
  if (with_cas.ok()) {
    EXPECT_NE(with_cas->cas, 0u);
    EXPECT_EQ((co_await cli.cas(keys[0], val("swapped"), with_cas->cas)).error(), Errc::ok);
    EXPECT_EQ((co_await cli.cas(keys[0], val("stale"), with_cas->cas)).error(), Errc::exists);
    auto now = co_await cli.get(keys[0]);
    EXPECT_TRUE(now.ok() && str(now->data) == "swapped");
    log.push_back("gets/cas ok");
  } else {
    ADD_FAILURE() << "gets";
  }

  // mget vs mget_into over the whole keyspace: positional, one answer per key.
  std::vector<std::string_view> views(keys.begin(), keys.end());
  std::vector<std::array<std::byte, kDest>> buffers(keys.size());
  std::vector<MgetSlot> slots(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) slots[i].dest = buffers[i];
  auto owned = co_await cli.mget(keys);
  auto st = co_await cli.mget_into(views, slots);
  if (!owned.ok() || !st.ok()) {
    ADD_FAILURE() << "mget / mget_into";
    co_return;
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    SCOPED_TRACE(keys[i]);
    const std::optional<Value>& o = (*owned)[i];
    const MgetSlot& s = slots[i];
    EXPECT_EQ(o.has_value(), s.hit);
    EXPECT_EQ(s.hit, stored(i));
    if (!o || !s.hit) {
      log.push_back("mget " + keys[i] + " miss");
      continue;
    }
    EXPECT_EQ(str(o->data), str(s.value));
    EXPECT_EQ(s.value_len, o->data.size());
    EXPECT_EQ(s.flags, o->flags);
    EXPECT_EQ(s.cas, o->cas);
    EXPECT_EQ(s.value.data() == buffers[i].data(), s.value_len <= kDest)
        << "landing rule: dest iff the value fits";
    log.push_back("mget " + keys[i] + " hit " + std::to_string(s.value_len) + " flags " +
                  std::to_string(s.flags));
  }

  // Delete: every read form sees the miss.
  EXPECT_TRUE((co_await cli.del(keys[4])).ok());
  std::array<std::byte, kDest> dest{};
  EXPECT_EQ((co_await cli.get(keys[4])).error(), Errc::not_found);
  EXPECT_EQ((co_await cli.get_into(keys[4], dest)).error(), Errc::not_found);
  auto after = co_await cli.mget(std::span<const std::string>(&keys[4], 1));
  EXPECT_TRUE(after.ok() && !(*after)[0].has_value());
  log.push_back("deleted");
}

/// A multiget over a stream protocol whose values miss their slots'
/// `dest`: they land in connection storage, and every one of them stays
/// intact until the next op, although the reply spans several receives.
Task<> wide_values_miss_dest(Client& cli) {
  if (!(co_await cli.connect_all()).ok()) {
    ADD_FAILURE() << "connect";
    co_return;
  }
  constexpr std::size_t kKeys = 8;
  constexpr std::size_t kSmallDest = 16;
  std::vector<std::string> keys;
  std::vector<std::string> values;
  for (std::size_t i = 0; i < kKeys; ++i) {
    keys.push_back("wide:" + std::to_string(i));
    // Key 3 fits its dest; the rest are 6000 B, 48 KB in all.
    values.push_back(std::string(i == 3 ? 10 : 6000, static_cast<char>('a' + i)));
    if (!(co_await cli.set(keys[i], val(values[i]))).ok()) ADD_FAILURE() << "set " << i;
  }
  std::vector<std::string_view> views(keys.begin(), keys.end());
  std::vector<std::array<std::byte, kSmallDest>> buffers(kKeys);
  std::vector<MgetSlot> slots(kKeys);
  for (std::size_t i = 0; i < kKeys; ++i) slots[i].dest = buffers[i];
  if (!(co_await cli.mget_into(views, slots)).ok()) {
    ADD_FAILURE() << "mget_into";
    co_return;
  }
  for (std::size_t i = 0; i < kKeys; ++i) {
    SCOPED_TRACE(keys[i]);
    EXPECT_TRUE(slots[i].hit);
    EXPECT_EQ(slots[i].value_len, values[i].size());
    EXPECT_EQ(str(slots[i].value), values[i]);
    EXPECT_EQ(slots[i].value.data() == buffers[i].data(), values[i].size() <= kSmallDest);
  }
}

TEST(ReadPaths, StreamMultigetValuesThatMissDestStayIntact) {
  for (Transport t : {Transport::text, Transport::binary}) {
    SCOPED_TRACE(transport_label(t));
    Pool pool(t, 1);
    pool.drive(wide_values_miss_dest(*pool.client));
  }
}

TEST(ReadPaths, OwningAndZeroCopyReadsAgreeOnEveryTransport) {
  std::vector<std::string> reference;
  for (Transport t : {Transport::text, Transport::binary, Transport::ucr_rpc,
                      Transport::ucr_onesided, Transport::ucr_rfp}) {
    for (int servers : {1, 2}) {
      SCOPED_TRACE(std::string(transport_label(t)) + " x" + std::to_string(servers));
      Pool pool(t, servers);
      std::vector<std::string> log;
      pool.drive(script(*pool.client, log));
      if (reference.empty()) {
        reference = log;
      } else {
        EXPECT_EQ(log, reference) << "answers differ from text x1";
      }
    }
  }
  EXPECT_EQ(reference.size(), 6u + 1u + 6u + 1u);
}

}  // namespace
}  // namespace rmc::mc
