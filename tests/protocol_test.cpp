// Tests for the memcached ASCII protocol codec: request parsing (including
// fragmented streams and malformed input), request encoding round trips,
// response encoding/parsing, the lifetime of the parsers' views, and a
// randomized encode->parse property test.
#include <gtest/gtest.h>

#include <initializer_list>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "memcached/protocol.hpp"

namespace rmc::mc::proto {
namespace {

std::span<const std::byte> bytes(const std::string& s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

std::string str(std::span<const std::byte> b) {
  return {reinterpret_cast<const char*>(b.data()), b.size()};
}

std::vector<std::string> keys_of(const Request& req) {
  std::vector<std::string> out;
  MgetKeyReader keys{req.keys.data(), req.keys.size()};
  for (std::string_view key; keys.next(key);) out.emplace_back(key);
  return out;
}

/// `keys` packed as a request carries them.
std::vector<std::byte> packed(std::initializer_list<std::string_view> keys) {
  std::vector<std::byte> out;
  for (const std::string_view key : keys) {
    const std::size_t at = out.size();
    out.resize(at + mget_entry_size(key));
    pack_mget_key(out.data() + at, key);
  }
  return out;
}

std::vector<std::byte> wire_of(const Request& req) {
  std::vector<std::byte> out;
  encode_request(req, out);
  return out;
}

std::vector<std::byte> wire_of(const Response& resp) {
  std::vector<std::byte> out;
  encode_response(resp, out);
  return out;
}

/// Each value of a retrieval reply as "key flags cas data".
std::vector<std::string> values_of(const Response& resp) {
  std::vector<std::string> out;
  Values values = resp.values;
  for (Value v; values.next(v);) {
    out.push_back(std::string(v.key) + " " + std::to_string(v.flags) + " " +
                  std::to_string(v.cas) + " " + str(v.data));
  }
  return out;
}

/// Parse the one request in `wire`. Its views stay valid until the next
/// parse_one, which starts a fresh parser.
Request parse_one(const std::string& wire) {
  static std::optional<RequestParser> parser;
  parser.emplace();
  parser->feed(bytes(wire));
  auto r = parser->next();
  EXPECT_TRUE(r.ok());
  if (!r.ok() || !r->has_value()) {
    ADD_FAILURE() << "no complete request parsed from: " << wire;
    return {};
  }
  return **r;
}

// ----------------------------------------------------- request parsing ----

TEST(RequestParse, Get) {
  const Request req = parse_one("get somekey\r\n");
  EXPECT_EQ(req.command, Command::get);
  EXPECT_EQ(keys_of(req), std::vector<std::string>{"somekey"});
}

TEST(RequestParse, MultiKeyGet) {
  const Request req = parse_one("get a b c\r\n");
  EXPECT_EQ(keys_of(req), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(RequestParse, SetWithData) {
  const Request req = parse_one("set k 42 100 5\r\nhello\r\n");
  EXPECT_EQ(req.command, Command::set);
  EXPECT_EQ(req.key(), "k");
  EXPECT_EQ(req.flags, 42u);
  EXPECT_EQ(req.exptime, 100u);
  EXPECT_EQ(str(req.data), "hello");
  EXPECT_FALSE(req.noreply);
}

TEST(RequestParse, SetNoreply) {
  const Request req = parse_one("set k 0 0 2 noreply\r\nhi\r\n");
  EXPECT_TRUE(req.noreply);
}

TEST(RequestParse, CasCarriesUnique) {
  const Request req = parse_one("cas k 0 0 2 987\r\nhi\r\n");
  EXPECT_EQ(req.command, Command::cas);
  EXPECT_EQ(req.cas_unique, 987u);
}

TEST(RequestParse, IncrDecr) {
  Request req = parse_one("incr counter 5\r\n");
  EXPECT_EQ(req.command, Command::incr);
  EXPECT_EQ(req.key(), "counter");
  EXPECT_EQ(req.delta, 5u);
  req = parse_one("decr counter 2\r\n");
  EXPECT_EQ(req.command, Command::decr);
}

TEST(RequestParse, DeleteTouchFlushVersionQuit) {
  EXPECT_EQ(parse_one("delete k\r\n").command, Command::del);
  EXPECT_EQ(parse_one("touch k 99\r\n").exptime, 99u);
  EXPECT_EQ(parse_one("flush_all\r\n").command, Command::flush_all);
  EXPECT_EQ(parse_one("flush_all 10\r\n").exptime, 10u);
  EXPECT_EQ(parse_one("version\r\n").command, Command::version);
  EXPECT_EQ(parse_one("quit\r\n").command, Command::quit);
  EXPECT_EQ(parse_one("stats\r\n").command, Command::stats);
}

TEST(RequestParse, FragmentedStreamReassembles) {
  // Feed a set command one byte at a time: the parser must wait patiently.
  const std::string wire = "set frag 1 2 10\r\n0123456789\r\n";
  RequestParser parser;
  for (std::size_t i = 0; i < wire.size(); ++i) {
    parser.feed(bytes(wire.substr(i, 1)));
    auto r = parser.next();
    ASSERT_TRUE(r.ok());
    if (i + 1 < wire.size()) {
      EXPECT_FALSE(r->has_value()) << "completed early at byte " << i;
    } else {
      ASSERT_TRUE(r->has_value());
      EXPECT_EQ(str((*r)->data), "0123456789");
    }
  }
}

TEST(RequestParse, LineLimitIsTheSameWholeOrSplit) {
  // A 100-key get of 9,295 bytes: it parses fed whole, and also when its
  // first 8,500 bytes arrive alone.
  std::string wire = "get";
  std::vector<std::string> expect;
  for (int i = 0; i < 100; ++i) {
    // 90 keys of 92 bytes and 10 of 91.
    expect.push_back("key-" + std::to_string(1000 + i) + "-" + std::string(i < 90 ? 83 : 82, 'k'));
    wire += " " + expect.back();
  }
  wire += "\r\n";
  ASSERT_EQ(wire.size(), 9295u);
  EXPECT_EQ(keys_of(parse_one(wire)), expect);

  RequestParser parser;
  parser.feed(bytes(wire.substr(0, 8500)));
  auto first = parser.next();
  ASSERT_TRUE(first.ok()) << "the line's first 8,500 bytes alone were refused";
  EXPECT_FALSE(first->has_value());
  parser.feed(bytes(wire.substr(8500)));
  auto whole = parser.next();
  ASSERT_TRUE(whole.ok() && whole->has_value());
  EXPECT_EQ(keys_of(**whole), expect);

  // A line past the limit fails both ways: padded with spaces, it has few
  // tokens, but no line that long ever parses.
  const std::string padded = "get k" + std::string(40000, ' ') + "\r\n";
  RequestParser whole_parser;
  whole_parser.feed(bytes(padded));
  EXPECT_FALSE(whole_parser.next().ok());
  RequestParser split_parser;
  split_parser.feed(bytes(padded.substr(0, 35000)));
  EXPECT_FALSE(split_parser.next().ok());
}

TEST(RequestParse, PipelinedRequests) {
  RequestParser parser;
  parser.feed(bytes("get a\r\nset b 0 0 1\r\nx\r\nget c\r\n"));
  auto r1 = parser.next();
  auto r2 = parser.next();
  auto r3 = parser.next();
  auto r4 = parser.next();
  ASSERT_TRUE(r1.ok() && r1->has_value());
  ASSERT_TRUE(r2.ok() && r2->has_value());
  ASSERT_TRUE(r3.ok() && r3->has_value());
  EXPECT_EQ((*r1)->key(), "a");
  EXPECT_EQ((*r2)->key(), "b");
  EXPECT_EQ((*r3)->key(), "c");
  EXPECT_TRUE(r4.ok());
  EXPECT_FALSE(r4->has_value());
}

TEST(RequestParse, DataMayContainCrlf) {
  // The byte-count framing means binary data with \r\n inside must work.
  const Request req = parse_one("set k 0 0 5\r\na\r\nb!\r\n");
  EXPECT_EQ(str(req.data), "a\r\nb!");
}

TEST(RequestParse, GarbageIsProtocolError) {
  for (const char* bad : {"bogus cmd\r\n", "set k\r\n", "set k a b c\r\n", "incr k\r\n",
                          "get\r\n", "incr k abc\r\n"}) {
    RequestParser parser;
    parser.feed(bytes(bad));
    auto r = parser.next();
    EXPECT_FALSE(r.ok()) << bad;
  }
}

TEST(RequestParse, BadDataTerminatorIsError) {
  RequestParser parser;
  parser.feed(bytes("set k 0 0 2\r\nhiXX"));
  auto r = parser.next();
  EXPECT_FALSE(r.ok());
}

TEST(RequestParse, WireBytesAccounting) {
  const std::string wire = "set k 0 0 3\r\nabc\r\n";
  const Request req = parse_one(wire);
  EXPECT_EQ(req.wire_bytes, wire.size());
}

TEST(RequestParse, PipelinedResultsStayIntactUntilTheNextFeed) {
  // Every request parsed from one feed() stays intact until the next
  // feed(): the earlier results' keys, data and fields too, across a wide
  // multiget in the middle of the batch.
  std::string wide = "get";
  std::vector<std::string> wide_keys;
  for (int i = 0; i < 100; ++i) {
    wide_keys.push_back("wide-key-" + std::to_string(1000 + i) + "-padding");
    wide += " " + wide_keys.back();
  }
  RequestParser parser;
  parser.feed(bytes("get a bb ccc\r\nset k 1 2 5\r\nhello\r\nincr n 7\r\n" + wide +
                    "\r\ndelete gone\r\nget z\r\n"));
  std::vector<Request> got;
  while (true) {
    auto r = parser.next();
    ASSERT_TRUE(r.ok());
    if (!r->has_value()) break;
    got.push_back(std::move(**r));
  }
  ASSERT_EQ(got.size(), 6u);
  EXPECT_EQ(keys_of(got[0]), (std::vector<std::string>{"a", "bb", "ccc"}));
  EXPECT_EQ(got[1].command, Command::set);
  EXPECT_EQ(keys_of(got[1]), std::vector<std::string>{"k"});
  EXPECT_EQ(str(got[1].data), "hello");
  EXPECT_EQ(got[1].flags, 1u);
  EXPECT_EQ(got[1].exptime, 2u);
  EXPECT_EQ(got[2].command, Command::incr);
  EXPECT_EQ(keys_of(got[2]), std::vector<std::string>{"n"});
  EXPECT_EQ(got[2].delta, 7u);
  EXPECT_EQ(keys_of(got[3]), wide_keys);
  EXPECT_EQ(got[4].command, Command::del);
  EXPECT_EQ(keys_of(got[4]), std::vector<std::string>{"gone"});
  EXPECT_EQ(keys_of(got[5]), std::vector<std::string>{"z"});
}

// ---------------------------------------------------- request encoding ----

TEST(RequestEncode, RoundTripsThroughParser) {
  Request req;
  req.command = Command::set;
  const auto keys = packed({"mykey"});
  req.keys = keys;
  req.flags = 3;
  req.exptime = 60;
  const std::string payload = "payload-data";
  req.data = bytes(payload);

  RequestParser parser;
  parser.feed(wire_of(req));
  auto r = parser.next();
  ASSERT_TRUE(r.ok() && r->has_value());
  EXPECT_EQ((*r)->key(), "mykey");
  EXPECT_EQ((*r)->flags, 3u);
  EXPECT_EQ((*r)->exptime, 60u);
  EXPECT_EQ(str((*r)->data), payload);
}

TEST(RequestEncode, AllCommandsRoundTrip) {
  Rng rng(7);
  for (auto cmd : {Command::get, Command::gets, Command::set, Command::add, Command::replace,
                   Command::append, Command::prepend, Command::cas, Command::del,
                   Command::incr, Command::decr, Command::touch, Command::flush_all,
                   Command::stats, Command::version, Command::quit}) {
    Request req;
    req.command = cmd;
    const std::string first = "key-" + rng.alnum(8);
    const auto keys = packed({first, "second"});
    req.keys = keys;
    req.flags = static_cast<std::uint32_t>(rng.below(1000));
    req.exptime = static_cast<std::uint32_t>(rng.below(1000));
    req.delta = rng.below(1000);
    req.cas_unique = rng.below(100000);
    const auto value = rng.alnum(rng.between(0, 64));
    req.data = bytes(value);

    RequestParser parser;
    parser.feed(wire_of(req));
    auto r = parser.next();
    ASSERT_TRUE(r.ok() && r->has_value()) << static_cast<int>(cmd);
    EXPECT_EQ((*r)->command, cmd);
  }
}

// ---------------------------------------------------------- responses ----

TEST(Response, SimpleRepliesRoundTrip) {
  using Type = Response::Type;
  for (auto type : {Type::stored, Type::not_stored, Type::exists, Type::not_found,
                    Type::deleted, Type::touched, Type::ok, Type::error}) {
    Response resp;
    resp.type = type;
    ResponseParser parser;
    parser.feed(wire_of(resp));
    auto r = parser.next(ResponseParser::Expect::simple);
    ASSERT_TRUE(r.ok() && r->has_value()) << static_cast<int>(type);
    EXPECT_EQ((*r)->type, type);
  }
}

TEST(Response, ValuesBlockParses) {
  // The server renders VALUE lines straight from its items; the client
  // parses them, CAS ids (gets) or not.
  ResponseParser parser;
  parser.feed(bytes("VALUE key0 0 7 0\r\nvalue-0\r\nVALUE key1 10 7 100\r\nvalue-1\r\n"
                    "VALUE key2 20 7 200\r\nvalue-2\r\nEND\r\n"));
  auto r = parser.next(ResponseParser::Expect::values);
  ASSERT_TRUE(r.ok() && r->has_value());
  EXPECT_EQ(values_of(**r), (std::vector<std::string>{"key0 0 0 value-0", "key1 10 100 value-1",
                                                      "key2 20 200 value-2"}));
  EXPECT_EQ(parser.buffered(), 0u);
}

TEST(Response, EmptyValuesIsAllMisses) {
  ResponseParser parser;
  parser.feed(bytes("END\r\n"));
  auto r = parser.next(ResponseParser::Expect::values);
  ASSERT_TRUE(r.ok() && r->has_value());
  EXPECT_TRUE(values_of(**r).empty());
}

TEST(Response, NumberReply) {
  Response resp;
  resp.type = Response::Type::number;
  resp.number = 1234567;
  ResponseParser parser;
  parser.feed(wire_of(resp));
  auto r = parser.next(ResponseParser::Expect::number);
  ASSERT_TRUE(r.ok() && r->has_value());
  EXPECT_EQ((*r)->number, 1234567u);
}

TEST(Response, ErrorsCarryMessages) {
  Response resp;
  resp.type = Response::Type::client_error;
  resp.message = "bad data chunk";
  ResponseParser parser;
  parser.feed(wire_of(resp));
  auto r = parser.next(ResponseParser::Expect::simple);
  ASSERT_TRUE(r.ok() && r->has_value());
  EXPECT_EQ((*r)->type, Response::Type::client_error);
  EXPECT_EQ((*r)->message, "bad data chunk");
}

TEST(Response, PartialValuesWaitForMoreBytes) {
  const std::string text = "VALUE k 0 100\r\n" + std::string(100, 'd') + "\r\nEND\r\n";
  const std::span<const std::byte> wire = bytes(text);

  ResponseParser parser;
  parser.feed(std::span<const std::byte>(wire.data(), wire.size() / 2));
  auto r = parser.next(ResponseParser::Expect::values);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->has_value());
  parser.feed(std::span<const std::byte>(wire.data() + wire.size() / 2,
                                         wire.size() - wire.size() / 2));
  r = parser.next(ResponseParser::Expect::values);
  ASSERT_TRUE(r.ok() && r->has_value());
  EXPECT_EQ(values_of(**r), std::vector<std::string>{"k 0 0 " + std::string(100, 'd')});
}

TEST(Response, PipelinedRepliesStayIntactUntilTheNextFeed) {
  ResponseParser parser;
  parser.feed(bytes("STORED\r\nVALUE k1 5 3\r\nabc\r\nVALUE k2 6 2 99\r\nde\r\nEND\r\n"
                    "42\r\nCLIENT_ERROR bad data chunk\r\nEND\r\n"));
  using Expect = ResponseParser::Expect;
  std::vector<Response> got;
  for (Expect e : {Expect::simple, Expect::values, Expect::number, Expect::simple,
                   Expect::values}) {
    auto r = parser.next(e);
    ASSERT_TRUE(r.ok() && r->has_value());
    got.push_back(std::move(**r));
  }
  EXPECT_EQ(got[0].type, Response::Type::stored);
  EXPECT_EQ(got[1].type, Response::Type::values);
  EXPECT_EQ(values_of(got[1]), (std::vector<std::string>{"k1 5 0 abc", "k2 6 99 de"}));
  EXPECT_EQ(got[2].number, 42u);
  EXPECT_EQ(got[3].type, Response::Type::client_error);
  EXPECT_EQ(got[3].message, "bad data chunk");
  EXPECT_TRUE(values_of(got[4]).empty());
}

// Property: any sequence of valid encoded requests, fed in random chunk
// sizes, parses back to the same sequence.
TEST(Property, RandomChunkingNeverCorruptsStream) {
  Rng rng(99);
  for (int round = 0; round < 30; ++round) {
    // Each request as "command key data".
    std::vector<std::string> sent;
    std::vector<std::byte> wire;
    const int count = static_cast<int>(rng.between(1, 20));
    for (int i = 0; i < count; ++i) {
      Request req;
      const std::string key = rng.alnum(rng.between(1, 30));
      const auto keys = packed({key});
      req.keys = keys;
      std::string value;
      if (rng.chance(0.5)) {
        req.command = Command::set;
        value = rng.alnum(rng.between(0, 500));
        req.data = bytes(value);
      } else {
        req.command = Command::get;
      }
      encode_request(req, wire);
      sent.push_back(std::to_string(static_cast<int>(req.command)) + " " + key + " " + value);
    }

    // Results are views valid until the next feed(), so each is recorded
    // as it is parsed.
    RequestParser parser;
    std::vector<std::string> got;
    std::size_t offset = 0;
    while (offset < wire.size()) {
      const std::size_t n = std::min<std::size_t>(rng.between(1, 64), wire.size() - offset);
      parser.feed(std::span<const std::byte>(wire.data() + offset, n));
      offset += n;
      while (true) {
        auto r = parser.next();
        ASSERT_TRUE(r.ok());
        if (!r->has_value()) break;
        got.push_back(std::to_string(static_cast<int>((*r)->command)) + " " +
                      std::string((*r)->key()) + " " + str((*r)->data));
      }
    }
    EXPECT_EQ(got, sent);
  }
}

// ------------------------------------------- hot-path regression tests ----

TEST(RequestParse, CompactionKeepsTheUnreadBytes) {
  // Four 40 KB SETs and a multiget, fed in chunks that end partway into a
  // request: feed() compacts the buffer with unread bytes in it, and every
  // request still parses whole.
  const std::string filler = "set filler 0 0 40000\r\n" + std::string(40000, 'z') + "\r\n";
  std::string stream;
  for (int i = 0; i < 4; ++i) stream += filler;
  stream += "get aliased-key another\r\n";
  RequestParser parser;
  std::vector<std::string> got;
  for (std::size_t at = 0; at < stream.size(); at += 10007) {
    parser.feed(bytes(stream.substr(at, 10007)));
    while (true) {
      auto r = parser.next();
      ASSERT_TRUE(r.ok());
      if (!r->has_value()) break;
      const std::string data = str((*r)->data);
      got.push_back(std::string((*r)->key()) + " " + std::to_string(data.size()));
      if (!data.empty()) {
        EXPECT_EQ(data, std::string(40000, 'z'));
      }
      if ((*r)->command == Command::get) {
        EXPECT_EQ(keys_of(**r), (std::vector<std::string>{"aliased-key", "another"}));
      }
    }
  }
  EXPECT_EQ(got, (std::vector<std::string>{"filler 40000", "filler 40000", "filler 40000",
                                           "filler 40000", "aliased-key 0"}));
}

TEST(RequestParse, OversizedKeyIsRejectedBeforeCopy) {
  const std::string big(251, 'k');
  for (const std::string& wire : {"get " + big + "\r\n", "set " + big + " 0 0 1\r\nx\r\n",
                                  "delete " + big + "\r\n"}) {
    RequestParser parser;
    parser.feed(bytes(wire));
    auto r = parser.next();
    EXPECT_FALSE(r.ok()) << wire.substr(0, 20);
  }
  // 250 bytes is exactly legal.
  const std::string legal(250, 'k');
  const Request req = parse_one("get " + legal + "\r\n");
  EXPECT_EQ(req.key(), legal);
}

TEST(RequestParse, TokenFloodIsRejected) {
  // More tokens than the tokenizer's fixed cap: protocol_error, not an
  // unbounded allocation.
  std::string wire = "get";
  for (int i = 0; i < 200; ++i) wire += " k" + std::to_string(i);
  wire += "\r\n";
  RequestParser parser;
  parser.feed(bytes(wire));
  auto r = parser.next();
  EXPECT_FALSE(r.ok());
}

TEST(RequestParse, ManyKeysParse) {
  std::string wire = "get";
  std::vector<std::string> expect;
  for (int i = 0; i < 40; ++i) {
    expect.push_back("key-number-" + std::to_string(i));
    wire += " " + expect.back();
  }
  wire += "\r\n";
  const Request req = parse_one(wire);
  EXPECT_EQ(keys_of(req), expect);
}

}  // namespace
}  // namespace rmc::mc::proto
