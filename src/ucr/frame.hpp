// Seqlock frame codec shared by the UCR bypass modes (DESIGN.md §9, §16).
//
// A frame is one self-verifying span of RDMA-accessible memory that a
// peer may observe mid-write:
//
//   FrameHeader { seq, body_len, checksum } | body | u32 seq_back
//
// A consumer accepts a frame only when seq equals the epoch it expects,
// seq_back repeats it, and the FNV-1a checksum over (seq, body_len, body)
// holds. A frame that carries the expected seq but fails any other check
// is *torn* (a write still landing); any other seq is stale or future and
// the frame is invisible. Producers therefore never clear a slot: moving
// to a new epoch makes the old bytes unreadable by construction.
//
// Two users, one codec:
//  * RFP ring slots (src/rfp): the body is a ucr_proto request or
//    response; both ends advance per-slot epochs in lockstep.
//  * One-sided arena records (src/onesided): the body is
//    RecordMeta | key | value; seq is the slot version, even while
//    published and odd once retracted.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>

namespace rmc::ucr {

/// Incremental FNV-1a over byte spans: frame checksums and the one-sided
/// bucket entry self-check fold several disjoint fields.
class Fnv1a64 {
 public:
  void mix(std::span<const std::byte> bytes) {
    for (std::byte b : bytes) {
      state_ ^= static_cast<std::uint64_t>(b);
      state_ *= 0x100000001b3ull;
    }
  }
  template <typename T>
  void mix_value(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::byte raw[sizeof(T)];
    std::memcpy(raw, &v, sizeof(T));
    mix({raw, sizeof(T)});
  }
  std::uint64_t value() const { return state_; }

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ull;
};

struct FrameHeader {
  std::uint32_t seq = 0;       ///< epoch; consumed when == expected
  std::uint32_t body_len = 0;  ///< bytes of body following the header
  std::uint64_t checksum = 0;  ///< FNV-1a over (seq, body_len, body)

  static constexpr std::size_t kSize = 4 + 4 + 8;
  /// Trailing u32 seq copy closing the seqlock pair.
  static constexpr std::size_t kTailSize = sizeof(std::uint32_t);

  static std::uint64_t expected_checksum(std::uint32_t seq, std::uint32_t body_len,
                                         std::span<const std::byte> body) {
    Fnv1a64 h;
    h.mix_value(seq);
    h.mix_value(body_len);
    h.mix(body);
    return h.value();
  }
};
static_assert(sizeof(FrameHeader) == FrameHeader::kSize);

/// Largest body a slot of `slot_size` bytes can frame.
inline constexpr std::uint32_t body_capacity(std::uint32_t slot_size) {
  constexpr auto overhead =
      static_cast<std::uint32_t>(FrameHeader::kSize + FrameHeader::kTailSize);
  return slot_size > overhead ? slot_size - overhead : 0;
}

/// Body span of a slot buffer (where the producer writes the payload).
inline std::span<std::byte> frame_body(std::span<std::byte> slot) {
  return slot.subspan(FrameHeader::kSize,
                      slot.size() - FrameHeader::kSize - FrameHeader::kTailSize);
}

/// Bytes of a sealed frame carrying `body_len` body bytes (the span to
/// actually transfer: tail included, slack excluded).
inline constexpr std::size_t framed_size(std::size_t body_len) {
  return FrameHeader::kSize + body_len + FrameHeader::kTailSize;
}

/// Seal a frame in place: the body was already written at frame_body();
/// stamp header + checksum + tail so the whole frame is one coherent write.
/// rmclint's seqlock-discipline pass blesses it as the frame's writer.
inline void seal_frame(std::span<std::byte> slot, std::uint32_t seq,
                       std::uint32_t body_len) {
  FrameHeader hdr;
  hdr.seq = seq;
  hdr.body_len = body_len;
  hdr.checksum = FrameHeader::expected_checksum(
      seq, body_len, std::span<const std::byte>(frame_body(slot)).first(body_len));
  std::memcpy(slot.data(), &hdr, sizeof(hdr));
  std::memcpy(slot.data() + FrameHeader::kSize + body_len, &seq, sizeof(seq));
}

/// The epoch a slot's header currently claims (unverified).
inline std::uint32_t frame_seq(std::span<const std::byte> slot) {
  std::uint32_t seq = 0;
  std::memcpy(&seq, slot.data(), sizeof(seq));
  return seq;
}

enum class FrameState : std::uint8_t {
  empty,  ///< stale or future epoch: nothing for this consumer (yet)
  torn,   ///< expected epoch but inconsistent: a write still landing
  ready,  ///< verified frame; body() below is trustworthy
};

/// Inspect a slot for the consumer expecting epoch `seq`. On ready, `body`
/// aliases the verified payload inside the slot. A seq mismatch returns
/// before any checksum work, so sweeping empty slots stays cheap.
inline FrameState read_frame(std::span<const std::byte> slot, std::uint32_t seq,
                             std::span<const std::byte>& body) {
  FrameHeader hdr;
  std::memcpy(&hdr, slot.data(), sizeof(hdr));
  if (hdr.seq != seq) return FrameState::empty;
  if (hdr.body_len > body_capacity(static_cast<std::uint32_t>(slot.size()))) {
    return FrameState::torn;
  }
  std::uint32_t back = 0;
  std::memcpy(&back, slot.data() + FrameHeader::kSize + hdr.body_len, sizeof(back));
  if (back != hdr.seq) return FrameState::torn;
  const auto candidate = slot.subspan(FrameHeader::kSize, hdr.body_len);
  if (hdr.checksum != FrameHeader::expected_checksum(hdr.seq, hdr.body_len, candidate)) {
    return FrameState::torn;
  }
  body = candidate;
  return FrameState::ready;
}

}  // namespace rmc::ucr
