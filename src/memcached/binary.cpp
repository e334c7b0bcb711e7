#include "memcached/binary.hpp"

#include <array>
#include <cstring>

namespace rmc::mc::bproto {

namespace {

// Big-endian (network order) scalar packing.
void put_u16(std::byte* out, std::uint16_t v) {
  out[0] = static_cast<std::byte>(v >> 8);
  out[1] = static_cast<std::byte>(v);
}
void put_u32(std::byte* out, std::uint32_t v) {
  put_u16(out, static_cast<std::uint16_t>(v >> 16));
  put_u16(out + 2, static_cast<std::uint16_t>(v));
}
void put_u64(std::byte* out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v >> 32));
  put_u32(out + 4, static_cast<std::uint32_t>(v));
}
std::uint16_t get_u16(const std::byte* in) {
  return static_cast<std::uint16_t>(static_cast<std::uint16_t>(in[0]) << 8 |
                                    static_cast<std::uint16_t>(in[1]));
}
std::uint32_t get_u32(const std::byte* in) {
  return static_cast<std::uint32_t>(get_u16(in)) << 16 | get_u16(in + 2);
}
std::uint64_t get_u64(const std::byte* in) {
  return static_cast<std::uint64_t>(get_u32(in)) << 32 | get_u32(in + 4);
}

struct Header {
  std::uint8_t magic;
  Opcode opcode;
  std::uint16_t key_len;
  std::uint8_t extras_len;
  std::uint16_t status_or_vbucket;
  std::uint32_t body_len;
  std::uint32_t opaque;
  std::uint64_t cas;
};

void encode_header(std::byte* out, const Header& h) {
  // Build in a fixed-size stack buffer, then copy: writing through the raw
  // vector pointer makes GCC 12 hallucinate a zero-length destination for
  // the memset once this inlines into encode_request/encode_response.
  std::array<std::byte, kHeaderSize> buf{};
  buf[0] = static_cast<std::byte>(h.magic);
  buf[1] = static_cast<std::byte>(h.opcode);
  put_u16(buf.data() + 2, h.key_len);
  buf[4] = static_cast<std::byte>(h.extras_len);
  buf[5] = std::byte{0};  // data type: raw
  put_u16(buf.data() + 6, h.status_or_vbucket);
  put_u32(buf.data() + 8, h.body_len);
  put_u32(buf.data() + 12, h.opaque);
  put_u64(buf.data() + 16, h.cas);
  std::memcpy(out, buf.data(), kHeaderSize);
}

Header decode_header(const std::byte* in) {
  Header h;
  h.magic = static_cast<std::uint8_t>(in[0]);
  h.opcode = static_cast<Opcode>(in[1]);
  h.key_len = get_u16(in + 2);
  h.extras_len = static_cast<std::uint8_t>(in[4]);
  h.status_or_vbucket = get_u16(in + 6);
  h.body_len = get_u32(in + 8);
  h.opaque = get_u32(in + 12);
  h.cas = get_u64(in + 16);
  return h;
}

/// The opcodes whose extras carry flags and an expiry.
bool carries_flags(Opcode op) {
  return op == Opcode::set || op == Opcode::add || op == Opcode::replace;
}

}  // namespace

void encode_request(const Request& request, std::vector<std::byte>& out) {
  std::uint8_t extras_len = 0;
  if (carries_flags(request.opcode)) {
    extras_len = 8;  // flags + exptime
  } else if (request.opcode == Opcode::increment || request.opcode == Opcode::decrement) {
    extras_len = 20;  // delta + initial + exptime
  } else if (request.opcode == Opcode::flush || request.opcode == Opcode::touch) {
    extras_len = 4;  // exptime
  }

  const std::size_t body = extras_len + request.key.size() + request.value.size();
  const std::size_t at = out.size();
  out.resize(at + kHeaderSize + body);
  encode_header(out.data() + at,
                {kMagicRequest, request.opcode, static_cast<std::uint16_t>(request.key.size()),
                 extras_len, 0, static_cast<std::uint32_t>(body), request.opaque, request.cas});
  std::byte* cursor = out.data() + at + kHeaderSize;
  if (carries_flags(request.opcode)) {
    put_u32(cursor, request.flags);
    put_u32(cursor + 4, request.exptime);
  } else if (request.opcode == Opcode::increment || request.opcode == Opcode::decrement) {
    put_u64(cursor, request.delta);
    put_u64(cursor + 8, request.initial);
    put_u32(cursor + 16, request.arith_exptime);
  } else if (extras_len == 4) {
    put_u32(cursor, request.exptime);
  }
  cursor += extras_len;
  if (!request.key.empty()) std::memcpy(cursor, request.key.data(), request.key.size());
  cursor += request.key.size();
  if (!request.value.empty()) std::memcpy(cursor, request.value.data(), request.value.size());
}

void encode_response(const Response& response, std::vector<std::byte>& out) {
  const bool ok = response.status == BStatus::ok;
  const bool get = response.opcode == Opcode::get || response.opcode == Opcode::getq ||
                   response.opcode == Opcode::getk || response.opcode == Opcode::getkq;
  const bool arith =
      response.opcode == Opcode::increment || response.opcode == Opcode::decrement;
  const std::uint8_t extras_len = ok && get ? 4 : 0;  // flags
  // An arith success carries its number as the value.
  const std::size_t value_len = ok && arith ? 8 : response.value.size();

  const std::size_t body = extras_len + response.key.size() + value_len;
  const std::size_t at = out.size();
  out.resize(at + kHeaderSize + body);
  encode_header(out.data() + at,
                {kMagicResponse, response.opcode,
                 static_cast<std::uint16_t>(response.key.size()), extras_len,
                 static_cast<std::uint16_t>(response.status),
                 static_cast<std::uint32_t>(body), response.opaque, response.cas});
  std::byte* cursor = out.data() + at + kHeaderSize;
  if (extras_len == 4) {
    put_u32(cursor, response.flags);
    cursor += 4;
  }
  if (!response.key.empty()) std::memcpy(cursor, response.key.data(), response.key.size());
  cursor += response.key.size();
  if (ok && arith) {
    put_u64(cursor, response.number);
  } else if (!response.value.empty()) {
    std::memcpy(cursor, response.value.data(), response.value.size());
  }
}

Result<std::optional<Request>> RequestParser::next() {
  const std::span<const std::byte> unread = rx_.unread();
  if (unread.size() < kHeaderSize) return std::optional<Request>{};
  const Header h = decode_header(unread.data());
  if (h.magic != kMagicRequest) return Errc::protocol_error;
  if (h.key_len + h.extras_len > h.body_len) return Errc::protocol_error;
  if (h.body_len > 8 * 1024 * 1024) return Errc::protocol_error;
  if (unread.size() < kHeaderSize + h.body_len) return std::optional<Request>{};

  Request req;
  req.opcode = h.opcode;
  req.cas = h.cas;
  req.opaque = h.opaque;
  req.wire_bytes = kHeaderSize + h.body_len;

  const std::byte* extras = unread.data() + kHeaderSize;
  if (carries_flags(h.opcode)) {
    if (h.extras_len != 8) return Errc::protocol_error;
    req.flags = get_u32(extras);
    req.exptime = get_u32(extras + 4);
  } else if (h.opcode == Opcode::increment || h.opcode == Opcode::decrement) {
    if (h.extras_len != 20) return Errc::protocol_error;
    req.delta = get_u64(extras);
    req.initial = get_u64(extras + 8);
    req.arith_exptime = get_u32(extras + 16);
  } else if (h.opcode == Opcode::flush || h.opcode == Opcode::touch) {
    if (h.extras_len == 4) {
      req.exptime = get_u32(extras);
    } else if (h.extras_len != 0) {
      return Errc::protocol_error;
    }
  } else if (h.extras_len != 0) {
    return Errc::protocol_error;
  }

  const std::size_t key_at = kHeaderSize + h.extras_len;
  req.key = {reinterpret_cast<const char*>(unread.data() + key_at), h.key_len};
  req.value = unread.subspan(key_at + h.key_len, h.body_len - h.extras_len - h.key_len);
  rx_.consume(kHeaderSize + h.body_len);
  return std::optional<Request>(req);
}

Result<std::optional<Response>> ResponseParser::next() {
  const std::span<const std::byte> unread = rx_.unread();
  if (unread.size() < kHeaderSize) return std::optional<Response>{};
  const Header h = decode_header(unread.data());
  if (h.magic != kMagicResponse) return Errc::protocol_error;
  if (h.key_len + h.extras_len > h.body_len) return Errc::protocol_error;
  if (unread.size() < kHeaderSize + h.body_len) return std::optional<Response>{};

  Response resp;
  resp.opcode = h.opcode;
  resp.status = static_cast<BStatus>(h.status_or_vbucket);
  resp.cas = h.cas;
  resp.opaque = h.opaque;

  if (h.extras_len == 4) resp.flags = get_u32(unread.data() + kHeaderSize);
  const std::size_t key_at = kHeaderSize + h.extras_len;
  resp.key = {reinterpret_cast<const char*>(unread.data() + key_at), h.key_len};
  resp.value = unread.subspan(key_at + h.key_len, h.body_len - h.extras_len - h.key_len);
  if ((h.opcode == Opcode::increment || h.opcode == Opcode::decrement) &&
      resp.status == BStatus::ok && resp.value.size() == 8) {
    resp.number = get_u64(resp.value.data());
  }
  rx_.consume(kHeaderSize + h.body_len);
  return std::optional<Response>(resp);
}

bool ResponseParser::complete_through(Opcode op) const {
  for (std::span<const std::byte> rest = rx_.unread(); rest.size() >= kHeaderSize;) {
    const Header h = decode_header(rest.data());
    if (h.magic != kMagicResponse || h.key_len + h.extras_len > h.body_len) return true;
    if (rest.size() < kHeaderSize + h.body_len) return false;
    if (h.opcode == op) return true;
    rest = rest.subspan(kHeaderSize + h.body_len);
  }
  return false;
}

}  // namespace rmc::mc::bproto
