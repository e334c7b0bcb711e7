// The memcached ASCII protocol (the wire format memcached 1.4.x and
// libmemcached 0.45 speak over sockets).
//
// This is the byte-stream side of the paper's comparison: requests and
// responses must be framed, scanned for "\r\n", and parsed token by token
// — the semantic conversion overhead §I attributes to Sockets transports.
// The parsers are incremental: feed() arbitrary stream chunks, pop complete
// messages with next().
//
// Hot-path note: every parse result is a view into the parser's receive
// buffer (a request's keys into its packed key list), valid until the next
// feed(); encoders append to the caller's scratch. So once warm, neither
// end of a GET allocates inside the codec.
// rmclint:hotpath — request fast path; zero-alloc rule enforced here
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "memcached/store.hpp"

namespace rmc::mc::proto {

enum class Command : std::uint8_t {
  get,
  gets,  ///< get returning CAS ids
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
  stats,
  version,
  quit,
};

/// The text protocol's verb table (VerbRow): the commands that name a
/// store op. get and gets are the server's multi-key pinned pass.
inline constexpr VerbRow<Command> kVerbs[] = {
    {Command::set, StoreOp::Verb::store, SetMode::set},
    {Command::add, StoreOp::Verb::store, SetMode::add},
    {Command::replace, StoreOp::Verb::store, SetMode::replace},
    {Command::append, StoreOp::Verb::store, SetMode::append},
    {Command::prepend, StoreOp::Verb::store, SetMode::prepend},
    {Command::cas, StoreOp::Verb::store, SetMode::cas},
    {Command::del, StoreOp::Verb::del},
    {Command::incr, StoreOp::Verb::arith},
    {Command::decr, StoreOp::Verb::arith, SetMode::set, true},
    {Command::touch, StoreOp::Verb::touch},
    {Command::flush_all, StoreOp::Verb::flush_all},
};

/// A stream parser's receive buffer: feed() appends, and the parser reads
/// the unread bytes and consumes them by offset. The front is compacted
/// only in feed(), so every view a parser hands out stays valid until the
/// next feed().
class RxBuf {
 public:
  void feed(std::span<const std::byte> bytes) {
    if (consumed_ == bytes_.size()) {
      bytes_.clear();
      consumed_ = 0;
    } else if (consumed_ >= kCompactAt) {
      bytes_.erase(bytes_.begin(), bytes_.begin() + static_cast<std::ptrdiff_t>(consumed_));
      consumed_ = 0;
    }
    // rmclint:allow(zeroalloc): grows to the largest message in flight once, then reuses its capacity
    bytes_.insert(bytes_.end(), bytes.begin(), bytes.end());
  }
  std::span<const std::byte> unread() const {
    return std::span<const std::byte>(bytes_).subspan(consumed_);
  }
  void consume(std::size_t n) { consumed_ += n; }
  /// Drop every buffered byte (a new connection starts clean).
  void reset() {
    bytes_.clear();
    consumed_ = 0;
  }

 private:
  static constexpr std::size_t kCompactAt = 32 * 1024;

  std::vector<std::byte> bytes_;
  std::size_t consumed_ = 0;
};

/// One request: what the client encodes, and what the server's parser
/// hands out as views valid until its next feed().
struct Request {
  /// memcached's protocol limit: keys longer than this are rejected by the
  /// parser before any byte is copied.
  static constexpr std::size_t kMaxKeyLen = 250;

  Command command = Command::get;
  std::uint32_t flags = 0;
  std::uint32_t exptime = 0;
  std::uint64_t cas_unique = 0;
  std::uint64_t delta = 0;  ///< incr/decr
  bool noreply = false;
  /// The keys, packed as [u16 len][key] entries (pack_mget_key). flush_all,
  /// stats, version and quit name none.
  std::span<const std::byte> keys{};
  std::span<const std::byte> data{};  ///< storage payload

  /// Bytes this request occupied on the wire (parsed requests only).
  std::size_t wire_bytes = 0;

  /// The first key, or empty (single-key commands carry exactly one).
  std::string_view key() const {
    std::string_view k;
    MgetKeyReader{keys.data(), keys.size()}.next(k);
    return k;
  }
};

/// Incremental request parser (server side).
class RequestParser {
 public:
  void feed(std::span<const std::byte> bytes) {
    rx_.feed(bytes);
    keys_.clear();
    retired_keys_.clear();
  }

  /// Pop the next complete request. Empty optional: need more bytes.
  /// protocol_error: stream is garbage (connection should be dropped).
  Result<std::optional<Request>> next();

  std::size_t buffered() const { return rx_.unread().size(); }

 private:
  /// Room for `n` bytes of packed keys that stays put until the next feed().
  std::byte* key_space(std::size_t n);

  RxBuf rx_;
  std::size_t scan_from_ = 0;  ///< CRLF scan resume point (within unread)
  /// The packed key lists of the requests parsed since the last feed(). A
  /// full block is retired, not grown, so no list moves before feed().
  std::vector<std::byte> keys_;
  std::vector<std::vector<std::byte>> retired_keys_;
};

/// Client side: render a request, appending to `out` (the connection's
/// scratch).
void encode_request(const Request& request, std::vector<std::byte>& out);

/// One value of a retrieval reply: views into the parser's buffer.
struct Value {
  std::string_view key{};
  std::uint32_t flags = 0;
  std::uint64_t cas = 0;
  std::span<const std::byte> data{};
};

/// A checked VALUE block, a view into the parser's buffer: next() pops its
/// values in order.
struct Values {
  std::string_view block{};  ///< the VALUE lines and data blocks, without END
  bool next(Value& out);
};

/// Server reply, decoded (client side) or to encode (server side).
struct Response {
  enum class Type : std::uint8_t {
    stored,
    not_stored,
    exists,
    not_found,
    deleted,
    touched,
    ok,
    values,  ///< VALUE...END block (possibly zero values = all misses)
    number,  ///< incr/decr result
    error,
    client_error,
    server_error,
    version,
    stats,
  };
  Type type = Type::ok;
  Values values{};
  std::uint64_t number = 0;
  std::string_view message{};  ///< error text / version / stats blob
};

/// Server side: render a response, appending to `out` (a reusable
/// per-connection scratch buffer). A GET's VALUE lines are rendered
/// straight from the items with the appenders below, so this renders
/// every reply but values.
void encode_response(const Response& response, std::vector<std::byte>& out);

// Low-level appenders for callers that render VALUE lines straight from
// store items into a scratch buffer (no intermediate Response).
void append_bytes(std::vector<std::byte>& out, std::string_view s);
void append_u64(std::vector<std::byte>& out, std::uint64_t v);

/// Incremental response parser (client side). The caller says what kind of
/// reply it expects next (the text protocol is not self-describing enough
/// to parse without that context — libmemcached does the same). Replies
/// are views valid until the next feed().
class ResponseParser {
 public:
  enum class Expect : std::uint8_t { simple, values, number };

  void feed(std::span<const std::byte> bytes) { rx_.feed(bytes); }

  /// Pop the next complete response of the expected shape.
  Result<std::optional<Response>> next(Expect expect);

  std::size_t buffered() const { return rx_.unread().size(); }

  /// Drop every buffered byte (a new connection starts clean).
  void reset() { rx_.reset(); }

 private:
  RxBuf rx_;
};

}  // namespace rmc::mc::proto
