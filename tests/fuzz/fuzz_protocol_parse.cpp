// Fuzz harness for the memcached request parsers (text + binary). The
// server feeds both parsers raw socket bytes, so arbitrary input must
// never crash, loop, or read out of bounds. Beyond that, parsing must be
// chunking-invariant: feeding the same bytes all at once or split into
// two arbitrary chunks yields the same accept/reject sequence, with the
// same request boundaries — the incremental buffering the connection
// loops depend on. Each result is a view valid until the next feed(), so
// it is read before the parser is fed again.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <vector>

#include "memcached/binary.hpp"
#include "memcached/protocol.hpp"

#define FUZZ_REQUIRE(cond)                                                  \
  do {                                                                      \
    if (!(cond)) {                                                          \
      std::fprintf(stderr, "FUZZ FAILURE: %s at %s:%d\n", #cond, __FILE__,  \
                   __LINE__);                                               \
      std::abort();                                                         \
    }                                                                       \
  } while (0)

namespace {

/// What a parser accepted: requests, a hash of their wire sizes in order,
/// and whether it hit an error.
struct Drained {
  int accepted = 0;
  std::uint64_t boundaries = 0;
  bool error = false;
};

/// Parse everything buffered into `d`.
template <typename Parser>
void drain(Parser& parser, Drained& d) {
  for (;;) {
    auto r = parser.next();
    if (!r.ok()) {
      d.error = true;
      return;
    }
    if (!r->has_value()) return;
    ++d.accepted;
    d.boundaries = d.boundaries * 1000003 + (*r)->wire_bytes;
    // Termination: the parser may never accept more requests than bytes.
    FUZZ_REQUIRE(d.accepted <= 1 << 20);
  }
}

template <typename Parser>
void check_chunking_invariance(std::span<const std::byte> bytes, std::size_t split) {
  Parser whole;
  whole.feed(bytes);
  Drained one_shot;
  drain(whole, one_shot);

  Parser chunked;
  split = bytes.empty() ? 0 : split % (bytes.size() + 1);
  chunked.feed(bytes.first(split));
  Drained parts;
  drain(chunked, parts);
  if (!parts.error) {
    chunked.feed(bytes.subspan(split));
    drain(chunked, parts);
    FUZZ_REQUIRE(parts.accepted == one_shot.accepted);
    FUZZ_REQUIRE(parts.boundaries == one_shot.boundaries);
    FUZZ_REQUIRE(parts.error == one_shot.error);
  } else {
    // An error surfaced from the prefix alone must also surface whole.
    FUZZ_REQUIRE(one_shot.error);
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  if (size < 1 || size > (64 << 10)) return 0;
  const std::size_t split = data[0];
  const std::span<const std::byte> bytes{
      reinterpret_cast<const std::byte*>(data + 1), size - 1};

  check_chunking_invariance<rmc::mc::proto::RequestParser>(bytes, split);
  check_chunking_invariance<rmc::mc::bproto::RequestParser>(bytes, split);
  return 0;
}

#include "standalone_driver.hpp"
