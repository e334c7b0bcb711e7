// One-sided GET wire layout: the self-verifying remote index.
//
// The server publishes cached items into two RDMA-readable regions and
// clients fetch them with plain RDMA Reads, bypassing the server CPU on
// the hot read path (the RFP-style extension of the paper's rendezvous
// design — see DESIGN.md §9):
//
//  * index  — a fixed-size bucket array keyed by the store's own hash
//    (hash_one_at_a_time), `ways` entries per bucket. One bucket line is
//    one RDMA Read.
//  * arena  — one fixed-size record slot per (bucket, way). A published
//    record is a ucr frame (ucr/frame.hpp) whose body is the item's
//    metadata + key + value, sealed at the slot's even version.
//
// Nothing here is trusted: every field a client acts on is re-verified
// after the read (entry self-check, frame seq pair and checksum, key
// bytes), so a torn or stale observation — the bucket line and the
// record were snapshotted at different instants while the server mutated
// the slot — is always detectable and never surfaces as a value.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string_view>

#include "ucr/bootstrap.hpp"
#include "ucr/frame.hpp"
#include "ucr/runtime.hpp"

namespace rmc::onesided {

/// Bootstrap AM ids (one ucr::BootstrapCall per client to learn the
/// descriptor).
inline constexpr std::uint16_t kMsgBootstrap = 0x6d10;
inline constexpr std::uint16_t kMsgBootstrapResp = 0x6d11;

/// One way of a bucket line (32 bytes, so a 4-way bucket is one 128 B
/// read). `version` is the slot epoch the entry was published under; a
/// reader requires it to match the record frame's seq exactly.
struct BucketEntry {
  std::uint64_t tag = 0;          ///< occupied<<63 | key_len<<32 | hash32
  std::uint32_t version = 0;      ///< slot epoch at publish (even = stable)
  std::uint32_t arena_offset = 0; ///< record start within the arena window
  std::uint32_t record_len = 0;   ///< bytes to read (the whole record frame)
  std::uint32_t reserved = 0;
  std::uint64_t check = 0;        ///< entry self-check (torn bucket line)

  static std::uint64_t make_tag(std::uint32_t hash, std::size_t key_len) {
    return (1ull << 63) | (static_cast<std::uint64_t>(key_len) << 32) | hash;
  }
  bool occupied() const { return (tag >> 63) & 1; }

  std::uint64_t expected_check() const {
    ucr::Fnv1a64 h;
    h.mix_value(tag);
    h.mix_value(version);
    h.mix_value(arena_offset);
    h.mix_value(record_len);
    return h.value();
  }
  void seal() { check = expected_check(); }
  bool self_consistent() const { return check == expected_check(); }
};
static_assert(sizeof(BucketEntry) == 32);

/// Arena record: a frame whose body is RecordMeta | key bytes | value
/// bytes, sealed with seq = the slot version (even = published, odd =
/// retracted). The frame checksum binds the version to the metadata, the
/// key and the value, so a reader that raced a republish cannot stitch
/// old bytes to a new header.
struct RecordMeta {
  std::uint16_t key_len = 0;
  std::uint16_t reserved = 0;
  std::uint32_t value_len = 0;
  std::uint32_t flags = 0;
  std::uint32_t exptime = 0;  ///< absolute cache-clock seconds; 0 = never
  std::uint64_t cas = 0;
};
static_assert(ucr::FrameHeader::kSize + sizeof(RecordMeta) == 40);

/// Bytes of a published record (the RDMA Read length).
inline constexpr std::size_t record_size(std::size_t key_len, std::size_t value_len) {
  return ucr::framed_size(sizeof(RecordMeta) + key_len + value_len);
}
static_assert(record_size(0, 0) == 44);

/// A verified record: its metadata, with key and value aliasing the record.
struct RecordView {
  RecordMeta meta;
  std::string_view key;
  std::span<const std::byte> value;
};

/// Open the record frame `record` at epoch `seq`. True when the frame
/// verifies and its body is exactly RecordMeta | key | value filling the
/// whole span.
inline bool open_record(std::span<const std::byte> record, std::uint32_t seq,
                        RecordView& out) {
  if (record.size() < record_size(0, 0)) return false;
  std::span<const std::byte> body;
  if (ucr::read_frame(record, seq, body) != ucr::FrameState::ready) return false;
  if (ucr::framed_size(body.size()) != record.size() || body.size() < sizeof(RecordMeta)) {
    return false;
  }
  std::memcpy(&out.meta, body.data(), sizeof(RecordMeta));
  if (sizeof(RecordMeta) + out.meta.key_len + out.meta.value_len != body.size()) return false;
  out.key = {reinterpret_cast<const char*>(body.data() + sizeof(RecordMeta)),
             out.meta.key_len};
  out.value = body.subspan(sizeof(RecordMeta) + out.meta.key_len);
  return true;
}

/// Everything a client needs to run the two-read GET protocol: the
/// bootstrap reply body. Only the first kWireSize bytes travel (the
/// struct's tail padding stays home).
struct IndexDescriptor {
  ucr::Runtime::RemoteMemory index;
  ucr::Runtime::RemoteMemory arena;
  std::uint32_t bucket_count = 0;  ///< power of two
  std::uint32_t ways = 0;
  std::uint32_t slot_size = 0;     ///< fixed record slot bytes

  static constexpr std::size_t kWireSize = 44;

  bool valid() const { return bucket_count != 0 && ways != 0 && slot_size != 0; }
};
static_assert(offsetof(IndexDescriptor, slot_size) + sizeof(std::uint32_t) ==
              IndexDescriptor::kWireSize);
// Bootstrap wire sizes: a bare 16 B request, a 52 B reply.
static_assert(ucr::kBootstrapRequestPrefix == 16);
static_assert(IndexDescriptor::kWireSize + ucr::kBootstrapReplySuffix == 52);

}  // namespace rmc::onesided
