// Tests for the memcached binary protocol: codec round trips with
// network-byte-order checks, fragmented parsing, end-to-end binary
// client/server operation, binary-only semantics (CAS-on-set, incr with
// initial value, quiet multiget), and text/binary auto-detection on one
// server port.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "memcached/binary.hpp"
#include "memcached/client.hpp"
#include "memcached/server.hpp"
#include "simnet/netparams.hpp"

namespace rmc::mc {
namespace {

using namespace rmc::literals;
using sim::Scheduler;
using sim::Task;

std::span<const std::byte> val(const std::string& s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}
std::string str(std::span<const std::byte> b) {
  return {reinterpret_cast<const char*>(b.data()), b.size()};
}

std::vector<std::byte> wire_of(const bproto::Request& req) {
  std::vector<std::byte> out;
  bproto::encode_request(req, out);
  return out;
}

std::vector<std::byte> wire_of(const bproto::Response& resp) {
  std::vector<std::byte> out;
  bproto::encode_response(resp, out);
  return out;
}

// --------------------------------------------------------------- codec ----

TEST(BinaryCodec, HeaderIsNetworkByteOrder) {
  bproto::Request req;
  req.opcode = bproto::Opcode::set;
  req.key = "k";
  req.flags = 0x01020304;
  req.exptime = 0x0a0b0c0d;
  req.opaque = 0x11223344;
  req.cas = 0x0102030405060708ull;
  const auto wire = wire_of(req);

  ASSERT_GE(wire.size(), bproto::kHeaderSize + 8 + 1);
  EXPECT_EQ(wire[0], std::byte{0x80});       // magic
  EXPECT_EQ(wire[1], std::byte{0x01});       // opcode set
  EXPECT_EQ(wire[2], std::byte{0x00});       // key len hi
  EXPECT_EQ(wire[3], std::byte{0x01});       // key len lo
  EXPECT_EQ(wire[4], std::byte{0x08});       // extras len
  EXPECT_EQ(wire[12], std::byte{0x11});      // opaque big-endian
  EXPECT_EQ(wire[16], std::byte{0x01});      // cas big-endian, MSB first
  EXPECT_EQ(wire[23], std::byte{0x08});
  EXPECT_EQ(wire[24], std::byte{0x01});      // flags extras big-endian
}

TEST(BinaryCodec, RequestRoundTripsAllOpcodes) {
  Rng rng(5);
  for (auto op : {bproto::Opcode::get, bproto::Opcode::set, bproto::Opcode::add,
                  bproto::Opcode::replace, bproto::Opcode::del, bproto::Opcode::increment,
                  bproto::Opcode::decrement, bproto::Opcode::quit, bproto::Opcode::flush,
                  bproto::Opcode::getq, bproto::Opcode::noop, bproto::Opcode::version,
                  bproto::Opcode::getk, bproto::Opcode::getkq, bproto::Opcode::append,
                  bproto::Opcode::prepend, bproto::Opcode::touch}) {
    bproto::Request req;
    req.opcode = op;
    const std::string key = rng.alnum(rng.between(1, 32));
    req.key = key;
    req.flags = static_cast<std::uint32_t>(rng());
    req.exptime = static_cast<std::uint32_t>(rng.below(100000));
    req.delta = rng();
    req.initial = rng();
    req.arith_exptime = static_cast<std::uint32_t>(rng());
    req.opaque = static_cast<std::uint32_t>(rng());
    req.cas = rng();
    const auto value = rng.alnum(rng.between(0, 200));
    req.value = val(value);

    bproto::RequestParser parser;
    parser.feed(wire_of(req));
    auto r = parser.next();
    ASSERT_TRUE(r.ok() && r->has_value()) << static_cast<int>(op);
    EXPECT_EQ((*r)->opcode, op);
    EXPECT_EQ((*r)->key, key);
    EXPECT_EQ(str((*r)->value), value);
    EXPECT_EQ((*r)->opaque, req.opaque);
    EXPECT_EQ((*r)->cas, req.cas);
    if (op == bproto::Opcode::increment || op == bproto::Opcode::decrement) {
      EXPECT_EQ((*r)->delta, req.delta);
      EXPECT_EQ((*r)->initial, req.initial);
      EXPECT_EQ((*r)->arith_exptime, req.arith_exptime);
    }
    if (op == bproto::Opcode::set) {
      EXPECT_EQ((*r)->flags, req.flags);
      EXPECT_EQ((*r)->exptime, req.exptime);
    }
    EXPECT_EQ(parser.buffered(), 0u);
  }
}

TEST(BinaryCodec, ResponseRoundTrip) {
  bproto::Response resp;
  resp.opcode = bproto::Opcode::getk;
  resp.status = bproto::BStatus::ok;
  resp.key = "thekey";
  resp.flags = 99;
  resp.cas = 1234567;
  resp.opaque = 42;
  const std::string value = "the-value";
  resp.value = val(value);

  bproto::ResponseParser parser;
  parser.feed(wire_of(resp));
  auto r = parser.next();
  ASSERT_TRUE(r.ok() && r->has_value());
  EXPECT_EQ((*r)->key, "thekey");
  EXPECT_EQ((*r)->flags, 99u);
  EXPECT_EQ((*r)->cas, 1234567u);
  EXPECT_EQ(str((*r)->value), value);
}

TEST(BinaryCodec, IncrResponseCarriesBigEndianNumber) {
  bproto::Response resp;
  resp.opcode = bproto::Opcode::increment;
  resp.status = bproto::BStatus::ok;
  resp.number = 0x0102030405060708ull;
  const auto wire = wire_of(resp);
  ASSERT_EQ(wire.size(), bproto::kHeaderSize + 8);
  EXPECT_EQ(wire[bproto::kHeaderSize], std::byte{0x01});

  bproto::ResponseParser parser;
  parser.feed(wire);
  auto r = parser.next();
  ASSERT_TRUE(r.ok() && r->has_value());
  EXPECT_EQ((*r)->number, 0x0102030405060708ull);
}

TEST(BinaryCodec, FragmentedFramesReassemble) {
  bproto::Request req;
  req.opcode = bproto::Opcode::set;
  req.key = "fragmented";
  const std::vector<std::byte> value(300, std::byte{7});
  req.value = value;
  const auto wire = wire_of(req);

  bproto::RequestParser parser;
  for (std::size_t i = 0; i < wire.size(); ++i) {
    parser.feed({wire.data() + i, 1});
    auto r = parser.next();
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->has_value(), i + 1 == wire.size());
  }
}

TEST(BinaryCodec, BadMagicRejected) {
  std::vector<std::byte> junk(bproto::kHeaderSize, std::byte{0x42});
  bproto::RequestParser parser;
  parser.feed(junk);
  EXPECT_FALSE(parser.next().ok());
  bproto::ResponseParser rparser;
  rparser.feed(junk);
  EXPECT_FALSE(rparser.next().ok());
}

TEST(BinaryCodec, InconsistentLengthsRejected) {
  bproto::Request req;
  req.opcode = bproto::Opcode::get;
  req.key = "k";
  auto wire = wire_of(req);
  wire[3] = std::byte{200};  // key_len > body_len
  bproto::RequestParser parser;
  parser.feed(wire);
  EXPECT_FALSE(parser.next().ok());
}

TEST(BinaryCodec, PipelinedFramesStayIntactUntilTheNextFeed) {
  // Every frame parsed from one feed() stays intact until the next feed():
  // keys, values and fields of the earlier ones too.
  std::vector<std::byte> wire;
  auto append = [&](const bproto::Request& req) { bproto::encode_request(req, wire); };
  bproto::Request get;
  get.opcode = bproto::Opcode::get;
  get.key = "alpha";
  append(get);
  bproto::Request set;
  set.opcode = bproto::Opcode::set;
  set.key = "beta";
  set.flags = 5;
  const std::string payload = "payload";
  set.value = val(payload);
  append(set);
  bproto::Request incr;
  incr.opcode = bproto::Opcode::increment;
  incr.key = "gamma";
  incr.delta = 3;
  append(incr);
  bproto::Request getkq;
  getkq.opcode = bproto::Opcode::getkq;
  getkq.key = "delta";
  getkq.opaque = 9;
  append(getkq);

  bproto::RequestParser parser;
  parser.feed(wire);
  std::vector<bproto::Request> got;
  while (true) {
    auto r = parser.next();
    ASSERT_TRUE(r.ok());
    if (!r->has_value()) break;
    got.push_back(std::move(**r));
  }
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(got[0].key, "alpha");
  EXPECT_EQ(got[1].key, "beta");
  EXPECT_EQ(str(got[1].value), payload);
  EXPECT_EQ(got[1].flags, 5u);
  EXPECT_EQ(got[2].key, "gamma");
  EXPECT_EQ(got[2].delta, 3u);
  EXPECT_EQ(got[3].key, "delta");
  EXPECT_EQ(got[3].opaque, 9u);

  std::vector<std::byte> replies;
  auto reply = [&](const bproto::Response& resp) { bproto::encode_response(resp, replies); };
  bproto::Response hit;
  hit.opcode = bproto::Opcode::getk;
  hit.key = "alpha";
  hit.flags = 7;
  const std::string value = "first value";
  hit.value = val(value);
  reply(hit);
  bproto::Response counted;
  counted.opcode = bproto::Opcode::increment;
  counted.number = 44;
  reply(counted);
  bproto::Response miss;
  miss.opcode = bproto::Opcode::get;
  miss.status = bproto::BStatus::key_not_found;
  const std::string text = "Not found";
  miss.value = val(text);
  reply(miss);

  bproto::ResponseParser rparser;
  rparser.feed(replies);
  std::vector<bproto::Response> answers;
  while (true) {
    auto r = rparser.next();
    ASSERT_TRUE(r.ok());
    if (!r->has_value()) break;
    answers.push_back(std::move(**r));
  }
  ASSERT_EQ(answers.size(), 3u);
  EXPECT_EQ(answers[0].key, "alpha");
  EXPECT_EQ(str(answers[0].value), value);
  EXPECT_EQ(answers[0].flags, 7u);
  EXPECT_EQ(answers[1].number, 44u);
  EXPECT_EQ(answers[2].status, bproto::BStatus::key_not_found);
  EXPECT_EQ(str(answers[2].value), text);
}

// ---------------------------------------------------------- end to end ----

struct BinaryBed {
  Scheduler sched;
  sim::Fabric fabric{sched, sim::ib_qdr_link()};
  sim::Host server_host{sched, 0, "server", 8};
  sim::Host client_host{sched, 1, "client", 8};
  sock::NetStack server_sock{sched, fabric, server_host, sock::sdp_ib()};
  sock::NetStack client_sock{sched, fabric, client_host, sock::sdp_ib()};
  Server server{sched, server_host, {}};
  Client client;

  BinaryBed()
      : client(sched, client_host,
               [] {
                 ClientBehavior b;
                 b.binary_protocol = true;
                 return b;
               }()) {
    server.attach_socket_frontend(server_sock);
    client.add_server_socket(client_sock, server_sock.addr(), server.config().port);
  }

  void run(Task<> task) {
    sched.spawn(std::move(task));
    sched.run();
  }
};

TEST(BinaryEndToEnd, FullCommandMatrix) {
  BinaryBed bed;
  bool done = false;
  bed.run([](Client& client, bool& fin) -> Task<> {
    EXPECT_TRUE((co_await client.connect_all()).ok());

    EXPECT_TRUE((co_await client.set("bk", val("binary value"), 7)).ok());
    auto got = co_await client.get("bk");
    EXPECT_TRUE(got.ok());
    EXPECT_EQ(str(got->data), "binary value");
    EXPECT_EQ(got->flags, 7u);
    EXPECT_GT(got->cas, 0u);  // binary responses always carry CAS

    EXPECT_EQ((co_await client.get("miss")).error(), Errc::not_found);

    EXPECT_TRUE((co_await client.add("fresh", val("1"))).ok());
    EXPECT_EQ((co_await client.add("fresh", val("2"))).error(), Errc::not_stored);
    EXPECT_EQ((co_await client.replace("absent", val("x"))).error(), Errc::not_stored);

    EXPECT_TRUE((co_await client.append("bk", val("!"))).ok());
    EXPECT_TRUE((co_await client.prepend("bk", val(">"))).ok());
    got = co_await client.get("bk");
    EXPECT_EQ(str(got->data), ">binary value!");

    // CAS via binary set-with-cas.
    auto with_cas = co_await client.gets("fresh");
    EXPECT_TRUE(with_cas.ok());
    EXPECT_TRUE((co_await client.cas("fresh", val("3"), with_cas->cas)).ok());
    EXPECT_EQ((co_await client.cas("fresh", val("4"), with_cas->cas)).error(), Errc::exists);

    EXPECT_TRUE((co_await client.set("n", val("10"))).ok());
    auto n = co_await client.incr("n", 32);
    EXPECT_TRUE(n.ok());
    EXPECT_EQ(*n, 42u);
    n = co_await client.decr("n", 100);
    EXPECT_EQ(*n, 0u);
    EXPECT_EQ((co_await client.incr("absent", 1)).error(), Errc::not_found);

    EXPECT_TRUE((co_await client.del("n")).ok());
    EXPECT_EQ((co_await client.del("n")).error(), Errc::not_found);

    EXPECT_TRUE((co_await client.flush_all()).ok());
    EXPECT_EQ((co_await client.get("bk")).error(), Errc::not_found);
    fin = true;
  }(bed.client, done));
  EXPECT_TRUE(done);
}

TEST(BinaryEndToEnd, QuietMultigetPipelines) {
  BinaryBed bed;
  bool done = false;
  bed.run([](Client& client, bool& fin) -> Task<> {
    EXPECT_TRUE((co_await client.connect_all()).ok());
    std::vector<std::string> keys;
    for (int i = 0; i < 20; ++i) {
      keys.push_back("k" + std::to_string(i));
      if (i % 3 != 0) {  // leave every third key missing
        EXPECT_TRUE((co_await client.set(keys.back(), val("v" + std::to_string(i)))).ok());
      }
    }
    auto result = co_await client.mget(keys);
    EXPECT_TRUE(result.ok());
    for (int i = 0; i < 20; ++i) {
      if (i % 3 == 0) {
        EXPECT_FALSE((*result)[i].has_value()) << i;
      } else {
        EXPECT_TRUE((*result)[i].has_value()) << i;
        EXPECT_EQ(str((*result)[i]->data), "v" + std::to_string(i));
      }
    }
    fin = true;
  }(bed.client, done));
  EXPECT_TRUE(done);
}

TEST(BinaryEndToEnd, IncrWithInitialSeedsCounter) {
  // Binary-only semantics exercised at the raw protocol level: incr on a
  // missing key with a non-0xffffffff expiration seeds `initial`.
  BinaryBed bed;
  bool done = false;
  bed.run([](BinaryBed& tb, bool& fin) -> Task<> {
    auto r = co_await tb.client_sock.connect(tb.server_sock.addr(), 11211);
    EXPECT_TRUE(r.ok());
    sock::Socket* s = *r;

    bproto::Request req;
    req.opcode = bproto::Opcode::increment;
    req.key = "seeded";
    req.delta = 5;
    req.initial = 100;
    req.arith_exptime = 0;  // allow creation
    (void)co_await s->send(wire_of(req));

    bproto::ResponseParser parser;
    std::vector<std::byte> chunk(4096);
    while (true) {
      auto parsed = parser.next();
      EXPECT_TRUE(parsed.ok());
      if (parsed->has_value()) {
        EXPECT_EQ((*parsed)->status, bproto::BStatus::ok);
        EXPECT_EQ((*parsed)->number, 100u);  // created with initial
        break;
      }
      auto n = co_await s->recv(chunk);
      if (!n.ok() || *n == 0) break;
      parser.feed(std::span<const std::byte>(chunk.data(), *n));
    }
    // A second incr applies the delta.
    (void)co_await s->send(wire_of(req));
    while (true) {
      auto parsed = parser.next();
      EXPECT_TRUE(parsed.ok());
      if (parsed->has_value()) {
        EXPECT_EQ((*parsed)->number, 105u);
        break;
      }
      auto n = co_await s->recv(chunk);
      if (!n.ok() || *n == 0) break;
      parser.feed(std::span<const std::byte>(chunk.data(), *n));
    }
    fin = true;
  }(bed, done));
  EXPECT_TRUE(done);
}

TEST(BinaryEndToEnd, OverlongKeyAnswersInvalidArguments) {
  // A raw GET of a 251-byte key: the binary frame allows 65 535 B keys,
  // memcached allows 250, as the text parser and the UCR request check do.
  BinaryBed bed;
  ASSERT_TRUE(bed.server.store()
                  .store(SetMode::set, std::string(250, 'k'), val("prefix value"), 0, 0)
                  .ok());
  bool done = false;
  bed.run([](BinaryBed& tb, bool& fin) -> Task<> {
    auto r = co_await tb.client_sock.connect(tb.server_sock.addr(), 11211);
    EXPECT_TRUE(r.ok());
    if (!r.ok()) co_return;
    bproto::Request req;
    req.opcode = bproto::Opcode::get;
    const std::string key(251, 'k');
    req.key = key;
    (void)co_await (*r)->send(wire_of(req));
    bproto::ResponseParser parser;
    std::vector<std::byte> chunk(4096);
    while (true) {
      auto parsed = parser.next();
      EXPECT_TRUE(parsed.ok());
      if (!parsed.ok()) break;
      if (parsed->has_value()) {
        EXPECT_EQ((*parsed)->status, bproto::BStatus::invalid_arguments);
        break;
      }
      auto n = co_await (*r)->recv(chunk);
      if (!n.ok() || *n == 0) break;
      parser.feed(std::span<const std::byte>(chunk.data(), *n));
    }
    fin = true;
  }(bed, done));
  EXPECT_TRUE(done);
}

TEST(BinaryEndToEnd, TextAndBinaryClientsShareOnePort) {
  // memcached 1.4 auto-detection: one server socket, one client of each
  // protocol, one shared store.
  BinaryBed bed;
  ClientBehavior text_behavior;
  Client text_client{bed.sched, bed.client_host, text_behavior};
  text_client.add_server_socket(bed.client_sock, bed.server_sock.addr(),
                                bed.server.config().port);
  bool done = false;
  bed.run([](Client& binary, Client& text, bool& fin) -> Task<> {
    EXPECT_TRUE((co_await binary.connect_all()).ok());
    EXPECT_TRUE((co_await text.connect_all()).ok());
    EXPECT_TRUE((co_await binary.set("via-binary", val("01"))).ok());
    auto got = co_await text.get("via-binary");
    EXPECT_TRUE(got.ok());
    EXPECT_EQ(str(got->data), "01");
    EXPECT_TRUE((co_await text.set("via-text", val("02"))).ok());
    auto got2 = co_await binary.get("via-text");
    EXPECT_TRUE(got2.ok());
    EXPECT_EQ(str(got2->data), "02");
    fin = true;
  }(bed.client, text_client, done));
  EXPECT_TRUE(done);
}

TEST(BinaryEndToEnd, BinaryBeatsTextOnParseCost) {
  // The binary protocol's raison d'être: fixed-offset parsing. Under the
  // same workload the server burns measurably less CPU per request.
  auto server_cpu_per_op = [](bool binary) {
    BinaryBed* bed_ptr;
    ClientBehavior behavior;
    behavior.binary_protocol = binary;
    Scheduler sched;
    sim::Fabric fabric{sched, sim::ib_qdr_link()};
    sim::Host server_host{sched, 0, "server", 8};
    sim::Host client_host{sched, 1, "client", 8};
    sock::NetStack server_sock{sched, fabric, server_host, sock::sdp_ib()};
    sock::NetStack client_sock{sched, fabric, client_host, sock::sdp_ib()};
    Server server{sched, server_host, {}};
    server.attach_socket_frontend(server_sock);
    Client client{sched, client_host, behavior};
    client.add_server_socket(client_sock, server_sock.addr(), server.config().port);
    (void)bed_ptr;

    sched.spawn([](Client& cli) -> Task<> {
      EXPECT_TRUE((co_await cli.connect_all()).ok());
      EXPECT_TRUE((co_await cli.set("key-with-a-longish-name", val("value"))).ok());
      for (int i = 0; i < 200; ++i) {
        (void)co_await cli.get("key-with-a-longish-name");
      }
    }(client));
    sched.run();
    return static_cast<double>(server_host.cpu().busy_ns()) / 200.0;
  };
  EXPECT_LT(server_cpu_per_op(true), server_cpu_per_op(false));
}

}  // namespace
}  // namespace rmc::mc
