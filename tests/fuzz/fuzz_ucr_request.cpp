// Fuzz harness for the UCR request parser (ucrp::parse_request in
// memcached/ucr_proto.hpp) — the one check that both server frontends, the
// AM handlers and the RFP ring server, run on request bytes a remote peer
// wrote. Properties checked on every input, beyond "does not crash":
//
//  1. An accepted key never lies outside the input, and the rest is
//     exactly the input bytes after the key.
//  2. An accepted key is at most proto::Request::kMaxKeyLen bytes; an mget
//     key block is at most kMaxMgetKeyBlock bytes.
//  3. A body is short_header exactly when it is shorter than a
//     RequestHeader.
//  4. encode → parse round-trips a fuzz-chosen header and a key that
//     honours it.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string_view>
#include <vector>

#include "memcached/ucr_proto.hpp"

// Unconditional check: the harness runs in Release trees where NDEBUG
// would compile assert() out.
#define FUZZ_REQUIRE(cond)                                                  \
  do {                                                                      \
    if (!(cond)) {                                                          \
      std::fprintf(stderr, "FUZZ FAILURE: %s at %s:%d\n", #cond, __FILE__,  \
                   __LINE__);                                               \
      std::abort();                                                         \
    }                                                                       \
  } while (0)

namespace {

namespace ucrp = rmc::mc::ucrp;
constexpr std::size_t kHeader = ucrp::RequestHeader::kSize;

std::size_t key_limit(ucrp::Op op) {
  return op == ucrp::Op::mget ? ucrp::kMaxMgetKeyBlock : rmc::mc::proto::Request::kMaxKeyLen;
}

bool same_header(const ucrp::RequestHeader& a, const ucrp::RequestHeader& b) {
  std::byte wire_a[kHeader];
  std::byte wire_b[kHeader];
  a.encode(wire_a);
  b.encode(wire_b);
  return std::memcmp(wire_a, wire_b, kHeader) == 0;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  const std::span<const std::byte> input(reinterpret_cast<const std::byte*>(data), size);

  // Properties 1-3: arbitrary bytes as a request body.
  ucrp::RequestView req;
  const ucrp::RequestCheck check = ucrp::parse_request(input, req);
  FUZZ_REQUIRE((check == ucrp::RequestCheck::short_header) == (size < kHeader));
  if (check == ucrp::RequestCheck::ok) {
    const auto* key = reinterpret_cast<const std::byte*>(req.key.data());
    FUZZ_REQUIRE(key >= input.data() && key + req.key.size() <= input.data() + input.size());
    FUZZ_REQUIRE(req.rest.data() == key + req.key.size());
    FUZZ_REQUIRE(req.rest.data() + req.rest.size() == input.data() + input.size());
    FUZZ_REQUIRE(req.key.size() == req.header.key_len);
    FUZZ_REQUIRE(req.key.size() <= key_limit(req.header.op));
  }

  // Property 4: the input's leading bytes as a header, its key_len cut to
  // what the remaining bytes and the limit allow, encoded and parsed back.
  std::byte raw[kHeader]{};
  std::memcpy(raw, data, std::min(size, kHeader));
  ucrp::RequestHeader header = ucrp::RequestHeader::decode(raw);
  const std::span<const std::byte> tail = input.subspan(std::min(size, kHeader));
  const std::size_t key_len =
      std::min({std::size_t{header.key_len}, tail.size(), key_limit(header.op)});
  header.key_len = static_cast<std::uint16_t>(key_len);
  std::vector<std::byte> body(kHeader);
  header.encode(body.data());
  body.insert(body.end(), tail.begin(), tail.end());

  ucrp::RequestView back;
  FUZZ_REQUIRE(ucrp::parse_request(body, back) == ucrp::RequestCheck::ok);
  FUZZ_REQUIRE(same_header(back.header, header));
  FUZZ_REQUIRE(back.key.size() == key_len);
  FUZZ_REQUIRE(std::memcmp(back.key.data(), tail.data(), key_len) == 0);
  FUZZ_REQUIRE(back.rest.size() == tail.size() - key_len);
  return 0;
}

#include "standalone_driver.hpp"
