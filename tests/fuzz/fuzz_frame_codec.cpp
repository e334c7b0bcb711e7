// Fuzz harness for the ucr seqlock frame codec (ucr/frame.hpp) — the
// framing of both RFP ring directions and of every one-sided arena record.
// Properties checked on every input, beyond "does not crash":
//
//  1. read_frame on arbitrary slot bytes never returns `ready` with a body
//     that escapes the slot or exceeds the slot's body capacity.
//  2. seal_frame → read_frame roundtrips byte-exactly for a fuzz-chosen
//     body and epoch.
//  3. Corrupting one byte inside the framed region of a sealed slot never
//     yields a `ready` body different from the sealed one (the checksum /
//     version-pair argument: torn or tampered frames are detectable).
//  4. onesided::open_record, the record parser on top of the frame, never
//     hands out key or value bytes outside the record it was given.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <vector>

#include "onesided/layout.hpp"
#include "ucr/frame.hpp"

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

constexpr std::size_t kMinSlot =
    rmc::ucr::FrameHeader::kSize + rmc::ucr::FrameHeader::kTailSize;

void check_read(std::span<const std::byte> slot, std::uint32_t seq) {
  std::span<const std::byte> body;
  if (rmc::ucr::read_frame(slot, seq, body) == rmc::ucr::FrameState::ready) {
    FUZZ_REQUIRE(body.data() >= slot.data());
    FUZZ_REQUIRE(body.data() + body.size() <= slot.data() + slot.size());
    FUZZ_REQUIRE(body.size() <=
                 rmc::ucr::body_capacity(static_cast<std::uint32_t>(slot.size())));
  }
}

void check_record(std::span<const std::byte> record, std::uint32_t seq) {
  rmc::onesided::RecordView rec;
  if (!rmc::onesided::open_record(record, seq, rec)) return;
  const auto* key = reinterpret_cast<const std::byte*>(rec.key.data());
  FUZZ_REQUIRE(key >= record.data() && key + rec.key.size() <= record.data() + record.size());
  FUZZ_REQUIRE(rec.value.data() >= record.data() &&
               rec.value.data() + rec.value.size() <= record.data() + record.size());
  FUZZ_REQUIRE(rmc::onesided::record_size(rec.key.size(), rec.value.size()) == record.size());
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  if (size < 5) return 0;
  std::uint32_t seq = 0;
  std::memcpy(&seq, data, sizeof(seq));
  data += sizeof(seq);
  size -= sizeof(seq);

  // Property 1: arbitrary bytes as a slot.
  std::vector<std::byte> slot(std::max(size, kMinSlot), std::byte{0});
  std::memcpy(slot.data(), data, size);
  check_read(slot, seq);
  check_read(slot, seq + 1);
  check_read(slot, 0);
  check_record(slot, seq);

  // Property 2: seal a fuzz-chosen body into a fresh slot and read it back.
  const auto slot_size =
      static_cast<std::uint32_t>(std::min<std::size_t>(slot.size() + 1, 1 << 20));
  std::vector<std::byte> sealed(slot_size, std::byte{0});
  const std::uint32_t body_len = std::min(
      static_cast<std::uint32_t>(size), rmc::ucr::body_capacity(slot_size));
  auto body_dst = rmc::ucr::frame_body(sealed);
  std::memcpy(body_dst.data(), data, body_len);
  rmc::ucr::seal_frame(sealed, seq, body_len);

  std::span<const std::byte> body;
  const auto st = rmc::ucr::read_frame(sealed, seq, body);
  FUZZ_REQUIRE(st == rmc::ucr::FrameState::ready);
  FUZZ_REQUIRE(body.size() == body_len);
  FUZZ_REQUIRE(std::memcmp(body.data(), data, body_len) == 0);
  const std::size_t framed = rmc::ucr::framed_size(body_len);
  check_record(std::span<const std::byte>(sealed).first(framed), seq);

  // Property 3: one-byte corruption inside the framed region must never
  // verify as a different body.
  std::vector<std::byte> tampered = sealed;
  const std::size_t victim = data[size - 1] % framed;
  tampered[victim] ^= std::byte{0x01};
  std::span<const std::byte> tampered_body;
  if (rmc::ucr::read_frame(tampered, seq, tampered_body) ==
      rmc::ucr::FrameState::ready) {
    FUZZ_REQUIRE(tampered_body.size() == body_len);
    FUZZ_REQUIRE(std::memcmp(tampered_body.data(), data, body_len) == 0);
  }
  return 0;
}

#include "standalone_driver.hpp"
