// Memcached-over-UCR message formats (§V), shared by server and client.
//
// One AM id for requests, one for responses. Request values (SET family)
// travel as AM data: eager for small items, RDMA-read by the server for
// large ones — directly into the item's final slab location. Response
// values (GET) travel as AM data the other way: the client's header
// handler learns the length (unknown beforehand, §V-C), names a buffer
// from its local pool, and UCR places the value into it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string_view>

#include "memcached/protocol.hpp"

namespace rmc::mc::ucrp {

/// Copy `fields` back to back to `out` / from `in`, in order and with no
/// padding: the one layout rule of every header below.
template <typename... T>
void put_fields(std::byte* out, const T&... fields) {
  std::size_t o = 0;
  ((std::memcpy(out + o, &fields, sizeof(fields)), o += sizeof(fields)), ...);
}
template <typename... T>
void get_fields(const std::byte* in, T&... fields) {
  std::size_t o = 0;
  ((std::memcpy(&fields, in + o, sizeof(fields)), o += sizeof(fields)), ...);
}

inline constexpr std::uint16_t kMsgRequest = 0x6d01;
inline constexpr std::uint16_t kMsgResponse = 0x6d02;

enum class Op : std::uint8_t {
  get,
  gets,
  set,
  add,
  replace,
  append,
  prepend,
  cas,
  del,
  incr,
  decr,
  touch,
  flush_all,
  version,
  /// True server-side multiget: the request carries a packed key block
  /// (see pack_mget_key), the server answers with one or more chunked
  /// responses (MgetChunkHeader + MgetRecords + gathered values). Records
  /// always carry the CAS id, so there is no separate mgets variant.
  mget,
};

/// The UCR protocol's verb table (VerbRow). version and mget name no
/// store op: mget runs its own batch path.
inline constexpr VerbRow<Op> kVerbs[] = {
    {Op::get, StoreOp::Verb::get},
    {Op::gets, StoreOp::Verb::get},
    {Op::set, StoreOp::Verb::store, SetMode::set},
    {Op::add, StoreOp::Verb::store, SetMode::add},
    {Op::replace, StoreOp::Verb::store, SetMode::replace},
    {Op::append, StoreOp::Verb::store, SetMode::append},
    {Op::prepend, StoreOp::Verb::store, SetMode::prepend},
    {Op::cas, StoreOp::Verb::store, SetMode::cas},
    {Op::del, StoreOp::Verb::del},
    {Op::incr, StoreOp::Verb::arith},
    {Op::decr, StoreOp::Verb::arith, SetMode::set, true},
    {Op::touch, StoreOp::Verb::touch},
    {Op::flush_all, StoreOp::Verb::flush_all},
};

inline bool is_storage(Op op) { return decode_verb(kVerbs, op, {}).verb == StoreOp::Verb::store; }

/// Fixed part of a request AM header; the key follows immediately.
struct RequestHeader {
  Op op = Op::get;
  std::uint16_t key_len = 0;
  std::uint32_t flags = 0;
  std::uint32_t exptime = 0;       ///< expiry; flush_all: the delay in seconds
  std::uint64_t cas = 0;
  std::uint64_t delta = 0;         ///< incr/decr amount
  std::uint64_t req_id = 0;        ///< client-side correlation
  std::uint64_t reply_counter = 0; ///< CounterRef at the client (counter C, §V)

  static constexpr std::size_t kSize = 1 + 2 + 4 + 4 + 8 + 8 + 8 + 8;

  void encode(std::byte* out) const {
    put_fields(out, op, key_len, flags, exptime, cas, delta, req_id, reply_counter);
  }
  static RequestHeader decode(const std::byte* in) {
    RequestHeader h;
    get_fields(in, h.op, h.key_len, h.flags, h.exptime, h.cas, h.delta, h.req_id,
               h.reply_counter);
    return h;
  }
};

/// Response status (a compact mirror of the text protocol's reply lines).
enum class RStatus : std::uint8_t {
  ok,          ///< generic success (flush_all, version)
  stored,
  not_stored,
  exists,
  not_found,
  deleted,
  touched,
  number,      ///< incr/decr result in `number`
  value,       ///< GET hit: flags/cas set, value in AM data
  client_error,
  server_error,  ///< the store could not allocate, or the reply could not be sent
  too_large,     ///< the value exceeds the largest slab class
  rerun,         ///< RFP ring reply only: the answer did not fit, re-run the op over RPC
};

struct ResponseHeader {
  RStatus status = RStatus::ok;
  std::uint32_t flags = 0;
  std::uint64_t cas = 0;
  std::uint64_t number = 0;
  std::uint64_t req_id = 0;

  static constexpr std::size_t kSize = 1 + 4 + 8 + 8 + 8;

  void encode(std::byte* out) const { put_fields(out, status, flags, cas, number, req_id); }
  static ResponseHeader decode(const std::byte* in) {
    ResponseHeader h;
    get_fields(in, h.status, h.flags, h.cas, h.number, h.req_id);
    return h;
  }
};

// ------------------------------------------------------------- multiget
//
// Request wire form (Op::mget): RequestHeader with
//   key_len = byte length of the packed key block that follows,
//   delta   = number of keys in the block
// (both fields are otherwise unused by mget), then the key block itself:
// repeated [u16 len][len key bytes], packed back to back. The whole
// request must fit one eager AM frame; clients split longer key lists
// into several sub-requests.
//
// Response wire form: one or more chunks, each a separate AM carrying
//   ResponseHeader (status=value, req_id echoed)
//   MgetChunkHeader
//   record_count x MgetRecord
// in the AM header region, with the hit values concatenated in record
// order as AM data. Every chunk bumps the request's reply counter by
// one; chunks carry start_index/total_chunks so scatter is order- and
// loss-retry-independent. A bare ResponseHeader (no chunk header) is a
// whole-request error.

/// Largest mget key block a request can carry: the default 8 KiB eager
/// frame minus the AM wire header (48 B, ucr::wire::AmWire::kSize) and
/// the RequestHeader (43 B). Also sizes the server's inline per-request
/// key carrier, so requests never allocate.
inline constexpr std::size_t kMaxMgetKeyBlock = 8192 - 48 - RequestHeader::kSize;

/// Follows the ResponseHeader in each multiget response chunk.
struct MgetChunkHeader {
  std::uint32_t start_index = 0;   ///< request-order index of the first record
  std::uint32_t record_count = 0;  ///< MgetRecords in this chunk
  std::uint32_t total_chunks = 0;  ///< chunks the whole reply comprises
  std::uint32_t total_keys = 0;    ///< keys in the request (sanity check)

  static constexpr std::size_t kSize = 4 + 4 + 4 + 4;

  void encode(std::byte* out) const {
    put_fields(out, start_index, record_count, total_chunks, total_keys);
  }
  static MgetChunkHeader decode(const std::byte* in) {
    MgetChunkHeader h;
    get_fields(in, h.start_index, h.record_count, h.total_chunks, h.total_keys);
    return h;
  }
};

/// Per-key result inside a multiget response chunk. Hits (status==value)
/// own value_len bytes of the chunk's AM data, in record order; misses
/// own none.
struct MgetRecord {
  RStatus status = RStatus::not_found;
  std::uint32_t flags = 0;
  std::uint64_t cas = 0;
  std::uint32_t value_len = 0;

  static constexpr std::size_t kSize = 1 + 4 + 8 + 4;

  void encode(std::byte* out) const { put_fields(out, status, flags, cas, value_len); }
  static MgetRecord decode(const std::byte* in) {
    MgetRecord h;
    get_fields(in, h.status, h.flags, h.cas, h.value_len);
    return h;
  }
};

/// Read one multiget reply chunk a remote peer wrote: `block` holds the
/// MgetChunkHeader and its records, `values` the hit values in record
/// order. Calls on_record(index, record, value) for each record in turn,
/// `index` in request order and `value` the hit's bytes (empty for a
/// miss); on_record returns false to stop. Returns the chunk header, or
/// nothing for a block too short for its header or its records, a hit
/// whose value runs past `values`, or a stop. Records before the bad one
/// have been reported.
template <typename OnRecord>
std::optional<MgetChunkHeader> read_mget_chunk(std::span<const std::byte> block,
                                               std::span<const std::byte> values,
                                               OnRecord&& on_record) {
  if (block.size() < MgetChunkHeader::kSize) return std::nullopt;
  const auto chunk = MgetChunkHeader::decode(block.data());
  const std::span<const std::byte> records = block.subspan(MgetChunkHeader::kSize);
  if (records.size() / MgetRecord::kSize < chunk.record_count) return std::nullopt;
  std::size_t off = 0;
  for (std::uint32_t i = 0; i < chunk.record_count; ++i) {
    const auto rec = MgetRecord::decode(records.data() + i * MgetRecord::kSize);
    std::span<const std::byte> value{};
    if (rec.status == RStatus::value) {
      if (rec.value_len > values.size() - off) return std::nullopt;
      value = values.subspan(off, rec.value_len);
      off += rec.value_len;
    }
    if (!on_record(std::size_t{chunk.start_index} + i, rec, value)) return std::nullopt;
  }
  return chunk;
}

/// Split a chunk whose values follow its records in one buffer (the RFP
/// ring's single-chunk reply) into read_mget_chunk's `block` and `values`.
/// False when `frame` is too short for the header or the records.
inline bool split_mget_frame(std::span<const std::byte> frame, std::span<const std::byte>& block,
                             std::span<const std::byte>& values) {
  if (frame.size() < MgetChunkHeader::kSize) return false;
  const std::size_t values_at =
      MgetChunkHeader::kSize +
      std::size_t{MgetChunkHeader::decode(frame.data()).record_count} * MgetRecord::kSize;
  if (values_at > frame.size()) return false;
  block = frame.first(values_at);
  values = frame.subspan(values_at);
  return true;
}

// --------------------------------------------------------- request check
//
// A request body — an AM header on the RPC path, a ring frame body on the
// RFP path — is written by a remote peer. Both frontends split it with
// parse_request before they trust any length in it.

/// A request body split into its parts. The views alias the body.
struct RequestView {
  RequestHeader header{};
  std::string_view key{};             ///< the key; for mget, the packed key block
  std::span<const std::byte> rest{};  ///< the bytes after the key (an inline value)
};

enum class RequestCheck : std::uint8_t {
  ok,
  short_header,  ///< shorter than a RequestHeader: no req_id to answer
  bad_key,       ///< header decoded, key_len not honoured: answer client_error
};

/// Split `body` into header, key and rest. The key_len bytes must follow
/// the header, and a key is at most proto::Request::kMaxKeyLen bytes (an
/// mget key block at most kMaxMgetKeyBlock). `out.header` is filled unless
/// the body is a short_header.
inline RequestCheck parse_request(std::span<const std::byte> body, RequestView& out) {
  if (body.size() < RequestHeader::kSize) return RequestCheck::short_header;
  out.header = RequestHeader::decode(body.data());
  const std::span<const std::byte> tail = body.subspan(RequestHeader::kSize);
  const std::size_t limit =
      out.header.op == Op::mget ? kMaxMgetKeyBlock : proto::Request::kMaxKeyLen;
  if (out.header.key_len > tail.size() || out.header.key_len > limit) {
    return RequestCheck::bad_key;
  }
  out.key = {reinterpret_cast<const char*>(tail.data()), out.header.key_len};
  out.rest = tail.subspan(out.header.key_len);
  return RequestCheck::ok;
}

}  // namespace rmc::mc::ucrp
