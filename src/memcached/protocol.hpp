// The memcached ASCII protocol (the wire format memcached 1.4.x and
// libmemcached 0.45 speak over sockets).
//
// This is the byte-stream side of the paper's comparison: requests and
// responses must be framed, scanned for "\r\n", and parsed token by token
// — the semantic conversion overhead §I attributes to Sockets transports.
// The parser is incremental: feed() arbitrary stream chunks, pop complete
// requests with next().
//
// Hot-path note: a parsed Request owns its key bytes in a small inline
// arena (no per-key std::string), and the parsers consume their buffers by
// offset instead of erasing the front per request, so the steady-state GET
// path performs no heap allocation inside the codec.
// rmclint:hotpath — request fast path; zero-alloc rule enforced here
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
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

/// Counts a key burst that overflowed a Request's inline arena onto the
/// heap (mc.alloc.key_spills).
void note_key_spill();

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
  std::vector<std::byte> data;  ///< storage payload

  /// Bytes this request occupied on the wire (for cost accounting).
  std::size_t wire_bytes = 0;

  Request() = default;
  Request(const Request& o) { assign_from(o); }
  Request(Request&& o) noexcept { assign_from(std::move(o)); }
  Request& operator=(const Request& o) {
    if (this != &o) assign_from(o);
    return *this;
  }
  Request& operator=(Request&& o) noexcept {
    if (this != &o) assign_from(std::move(o));
    return *this;
  }

  // ---- keys: owned by the request, inline for the common case ----
  // A single key of any legal length, and multigets of up to kInlineKeys
  // keys totalling kArenaSize bytes, live entirely inside the struct; only
  // larger bursts spill to the heap (counted by mc.alloc.key_spills).

  std::size_t key_count() const { return key_count_; }

  std::string_view key_at(std::size_t i) const {
    const KeySpan& s = i < kInlineKeys ? spans_[i] : spill_spans_[i - kInlineKeys];
    const char* base = s.spilled ? spill_.data() : arena_.data();
    return {base + s.off, s.len};
  }

  /// First key, or empty (single-key commands store exactly one).
  std::string_view key() const { return key_count_ ? key_at(0) : std::string_view{}; }

  /// Append a key. Returns false (leaving the request untouched) when the
  /// key exceeds kMaxKeyLen — the reject happens before any copy.
  bool add_key(std::string_view k) {
    if (k.size() > kMaxKeyLen) return false;
    KeySpan span;
    span.len = static_cast<std::uint16_t>(k.size());
    if (arena_used_ + k.size() <= kArenaSize) {
      span.off = arena_used_;
      span.spilled = false;
      std::memcpy(arena_.data() + arena_used_, k.data(), k.size());
      arena_used_ += static_cast<std::uint32_t>(k.size());
    } else {
      span.off = static_cast<std::uint32_t>(spill_.size());
      span.spilled = true;
      if (spill_.empty()) note_key_spill();
      spill_.append(k.data(), k.size());
    }
    if (key_count_ < kInlineKeys) {
      spans_[key_count_] = span;
    } else {
      // rmclint:allow(zeroalloc): spill beyond the inline key arena; metered via mc.alloc.key_spills
      spill_spans_.push_back(span);
    }
    ++key_count_;
    return true;
  }

  void set_key(std::string_view k) {
    clear_keys();
    (void)add_key(k);
  }

  void clear_keys() {
    key_count_ = 0;
    arena_used_ = 0;
    spill_.clear();
    spill_spans_.clear();
  }

 private:
  struct KeySpan {
    std::uint32_t off = 0;
    std::uint16_t len = 0;
    bool spilled = false;  ///< bytes live in spill_, not arena_
  };
  static constexpr std::size_t kInlineKeys = 8;
  static constexpr std::size_t kArenaSize = 256;  // fits one max-length key

  // Copy/move only the used arena prefix — a Request travels by value
  // through parser results and worker queues, and blind array copies would
  // dwarf the parse cost itself.
  template <typename R>
  void assign_from(R&& o) {
    command = o.command;
    flags = o.flags;
    exptime = o.exptime;
    cas_unique = o.cas_unique;
    delta = o.delta;
    noreply = o.noreply;
    wire_bytes = o.wire_bytes;
    key_count_ = o.key_count_;
    arena_used_ = o.arena_used_;
    if (arena_used_) std::memcpy(arena_.data(), o.arena_.data(), arena_used_);
    const std::size_t n = key_count_ < kInlineKeys ? key_count_ : kInlineKeys;
    for (std::size_t i = 0; i < n; ++i) spans_[i] = o.spans_[i];
    if constexpr (std::is_rvalue_reference_v<R&&>) {
      data = std::move(o.data);
      spill_ = std::move(o.spill_);
      spill_spans_ = std::move(o.spill_spans_);
    } else {
      data = o.data;
      spill_ = o.spill_;
      spill_spans_ = o.spill_spans_;
    }
  }

  std::array<char, kArenaSize> arena_;
  std::array<KeySpan, kInlineKeys> spans_;
  std::uint32_t key_count_ = 0;
  std::uint32_t arena_used_ = 0;
  std::string spill_;                  ///< overflow key bytes (large multigets)
  std::vector<KeySpan> spill_spans_;   ///< spans beyond kInlineKeys
};

/// Growable byte buffer with inline storage for the first 128 bytes: a
/// parser for a fresh connection (or a bench loop) handling short requests
/// never touches the heap. Spills to a doubling heap block past that.
class RxBuf {
 public:
  RxBuf() = default;
  RxBuf(const RxBuf&) = delete;
  RxBuf& operator=(const RxBuf&) = delete;
  ~RxBuf() {
    if (data_ != inline_) ::operator delete(data_);
  }

  std::byte* data() { return data_; }
  const std::byte* data() const { return data_; }
  std::size_t size() const { return size_; }
  void clear() { size_ = 0; }

  void append(std::span<const std::byte> bytes) {
    if (size_ + bytes.size() > cap_) grow(size_ + bytes.size());
    if (!bytes.empty()) std::memcpy(data_ + size_, bytes.data(), bytes.size());
    size_ += bytes.size();
  }

  void drop_front(std::size_t n) {
    std::memmove(data_, data_ + n, size_ - n);
    size_ -= n;
  }

 private:
  void grow(std::size_t need) {
    std::size_t cap = cap_ * 2;
    if (cap < need) cap = need;
    auto* p = static_cast<std::byte*>(::operator new(cap));
    std::memcpy(p, data_, size_);
    if (data_ != inline_) ::operator delete(data_);
    data_ = p;
    cap_ = cap;
  }

  static constexpr std::size_t kInline = 128;
  std::byte inline_[kInline];
  std::byte* data_ = inline_;
  std::size_t size_ = 0;
  std::size_t cap_ = kInline;
};

/// Incremental request parser (server side). Consumes its buffer by
/// offset; the front is compacted only between requests (in feed()), so a
/// just-returned Request never dangles into moved memory.
class RequestParser {
 public:
  void feed(std::span<const std::byte> bytes) {
    compact();
    buffer_.append(bytes);
  }

  /// Pop the next complete request. Empty optional: need more bytes.
  /// protocol_error: stream is garbage (connection should be dropped).
  Result<std::optional<Request>> next();

  std::size_t buffered() const { return buffer_.size() - consumed_; }

 private:
  void compact() {
    if (consumed_ == 0) return;
    if (consumed_ == buffer_.size()) {
      buffer_.clear();
    } else if (consumed_ >= kCompactAt) {
      buffer_.drop_front(consumed_);
    } else {
      return;
    }
    consumed_ = 0;
  }

  static constexpr std::size_t kCompactAt = 32 * 1024;

  RxBuf buffer_;
  std::size_t consumed_ = 0;   ///< bytes of buffer_ already parsed away
  std::size_t scan_from_ = 0;  ///< CRLF scan resume point (within unconsumed)
};

// --------------------------------------------------------- encoding ----

/// Client side: render a request into stream bytes.
std::vector<std::byte> encode_request(const Request& request);

/// One value in a retrieval response.
struct Value {
  std::string key;
  std::uint32_t flags = 0;
  std::uint64_t cas = 0;
  std::vector<std::byte> data;
};

/// Server reply, decoded (client side) or pre-encoding (server side).
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
  std::vector<Value> values;
  std::uint64_t number = 0;
  std::string message;  ///< error text / version / stats blob
};

/// Server side: render a response, appending to `out` (a reusable
/// per-connection scratch buffer). `with_cas` emits the CAS id on VALUE
/// lines (gets).
void encode_response_into(const Response& response, bool with_cas,
                          std::vector<std::byte>& out);

/// Convenience wrapper returning a fresh buffer.
std::vector<std::byte> encode_response(const Response& response, bool with_cas);

// Low-level appenders for callers that render VALUE lines straight from
// store items into a scratch buffer (no intermediate Response).
void append_bytes(std::vector<std::byte>& out, std::string_view s);
void append_u64(std::vector<std::byte>& out, std::uint64_t v);

/// Incremental response parser (client side). The caller says what kind of
/// reply it expects next (the text protocol is not self-describing enough
/// to parse without that context — libmemcached does the same).
class ResponseParser {
 public:
  enum class Expect : std::uint8_t { simple, values, number };

  void feed(std::span<const std::byte> bytes) {
    compact();
    buffer_.append(bytes);
  }

  /// Pop the next complete response of the expected shape.
  Result<std::optional<Response>> next(Expect expect);

  std::size_t buffered() const { return buffer_.size() - consumed_; }

  /// Drop every buffered byte (a new connection starts clean).
  void reset() {
    buffer_.clear();
    consumed_ = 0;
  }

 private:
  void compact() {
    if (consumed_ == 0) return;
    if (consumed_ == buffer_.size()) {
      buffer_.clear();
    } else if (consumed_ >= kCompactAt) {
      buffer_.drop_front(consumed_);
    } else {
      return;
    }
    consumed_ = 0;
  }

  static constexpr std::size_t kCompactAt = 32 * 1024;

  RxBuf buffer_;
  std::size_t consumed_ = 0;
};

}  // namespace rmc::mc::proto
