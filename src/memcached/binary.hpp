// The memcached binary protocol (memcached 1.4.x, protocol_binary.h).
//
// 24-byte fixed header (network byte order) followed by extras, key and
// value. Compared to the ASCII protocol it parses in O(1) instead of
// scanning for "\r\n", supports quiet (pipelined) operations, and carries
// CAS in every response. memcached 1.4 auto-detects it per connection by
// the first byte (0x80), and so does our server.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "memcached/protocol.hpp"
#include "memcached/store.hpp"

namespace rmc::mc::bproto {

inline constexpr std::uint8_t kMagicRequest = 0x80;
inline constexpr std::uint8_t kMagicResponse = 0x81;
inline constexpr std::size_t kHeaderSize = 24;

enum class Opcode : std::uint8_t {
  get = 0x00,
  set = 0x01,
  add = 0x02,
  replace = 0x03,
  del = 0x04,
  increment = 0x05,
  decrement = 0x06,
  quit = 0x07,
  flush = 0x08,
  getq = 0x09,
  noop = 0x0a,
  version = 0x0b,
  getk = 0x0c,
  getkq = 0x0d,
  append = 0x0e,
  prepend = 0x0f,
  stat = 0x10,
  touch = 0x1c,
};

/// The binary protocol's verb table (VerbRow). It has no CAS opcode: a
/// set carrying a CAS id is compare-and-swap. That is the one exception
/// on each end: the client sends SetMode::cas through the last set row,
/// and the server reads a set, add or replace with a non-zero CAS as one.
inline constexpr VerbRow<Opcode> kVerbs[] = {
    {Opcode::get, StoreOp::Verb::get},
    {Opcode::getq, StoreOp::Verb::get},
    {Opcode::getk, StoreOp::Verb::get},
    {Opcode::getkq, StoreOp::Verb::get},
    {Opcode::set, StoreOp::Verb::store, SetMode::set},
    {Opcode::add, StoreOp::Verb::store, SetMode::add},
    {Opcode::replace, StoreOp::Verb::store, SetMode::replace},
    {Opcode::append, StoreOp::Verb::store, SetMode::append},
    {Opcode::prepend, StoreOp::Verb::store, SetMode::prepend},
    {Opcode::set, StoreOp::Verb::store, SetMode::cas},
    {Opcode::del, StoreOp::Verb::del},
    {Opcode::increment, StoreOp::Verb::arith},
    {Opcode::decrement, StoreOp::Verb::arith, SetMode::set, true},
    {Opcode::touch, StoreOp::Verb::touch},
    {Opcode::flush, StoreOp::Verb::flush_all},
};

/// True for the quiet variants that suppress "uninteresting" responses
/// (miss for getq/getkq) so requests can be pipelined without replies.
inline bool is_quiet(Opcode op) { return op == Opcode::getq || op == Opcode::getkq; }

enum class BStatus : std::uint16_t {
  ok = 0x0000,
  key_not_found = 0x0001,
  key_exists = 0x0002,
  value_too_large = 0x0003,
  invalid_arguments = 0x0004,
  not_stored = 0x0005,
  delta_badval = 0x0006,
  unknown_command = 0x0081,
  out_of_memory = 0x0082,
};

/// One request: what the client encodes, and what the server's parser
/// hands out as views valid until its next feed().
struct Request {
  Opcode opcode = Opcode::get;
  std::string_view key{};
  std::span<const std::byte> value{};
  std::uint32_t flags = 0;
  std::uint32_t exptime = 0;
  std::uint64_t delta = 0;    ///< incr/decr amount
  std::uint64_t initial = 0;  ///< incr/decr: value created on miss
  /// incr/decr: 0xffffffff means "fail on miss" (like the text protocol).
  std::uint32_t arith_exptime = 0xffffffff;
  std::uint64_t cas = 0;
  std::uint32_t opaque = 0;  ///< echoed verbatim in the response
  std::size_t wire_bytes = 0;
};

/// One response: what the server encodes, and what the client's parser
/// hands out as views valid until its next feed().
struct Response {
  Opcode opcode = Opcode::get;
  BStatus status = BStatus::ok;
  std::string_view key{};              ///< getk/getkq responses
  std::span<const std::byte> value{};  ///< get value / error text / version
  std::uint32_t flags = 0;             ///< get extras
  std::uint64_t number = 0;            ///< incr/decr result
  std::uint64_t cas = 0;
  std::uint32_t opaque = 0;
};

/// Render a message, appending to `out` (the caller's scratch).
void encode_request(const Request& request, std::vector<std::byte>& out);
void encode_response(const Response& response, std::vector<std::byte>& out);

/// Incremental request parser (server side).
class RequestParser {
 public:
  void feed(std::span<const std::byte> bytes) { rx_.feed(bytes); }
  /// Empty optional: need more bytes. protocol_error: malformed frame.
  Result<std::optional<Request>> next();
  std::size_t buffered() const { return rx_.unread().size(); }

 private:
  proto::RxBuf rx_;
};

/// Incremental response parser (client side).
class ResponseParser {
 public:
  void feed(std::span<const std::byte> bytes) { rx_.feed(bytes); }
  Result<std::optional<Response>> next();
  std::size_t buffered() const { return rx_.unread().size(); }
  /// True once next() can pop every response up to one with opcode `op`
  /// with no further feed(), or meets a malformed frame first (which it
  /// then reports): a pipeline that ends in `op` is wholly buffered.
  bool complete_through(Opcode op) const;
  /// Drop every buffered byte (a new connection starts clean).
  void reset() { rx_.reset(); }

 private:
  proto::RxBuf rx_;
};

}  // namespace rmc::mc::bproto
