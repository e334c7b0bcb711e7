// rmclint:hotpath — request fast path; zero-alloc rule enforced here
#include "memcached/protocol.hpp"

#include <algorithm>
#include <charconv>
#include <cstring>

namespace rmc::mc::proto {

namespace {

/// Hard cap on tokens per protocol line: enough for the largest sane
/// multiget (the ablations use 64 keys) with room to spare, small enough
/// that a hostile line cannot make the tokenizer allocate.
constexpr std::size_t kMaxTokens = 128;

/// The longest request line, without its CRLF, that the parser accepts:
/// kMaxTokens tokens of a key's maximum length, one space apart (no other
/// token a request needs is longer). It bounds a line that has arrived
/// whole and one still arriving alike, so a line that parses whole also
/// parses when it arrives in pieces.
constexpr std::size_t kMaxLine = kMaxTokens * (Request::kMaxKeyLen + 1);

/// Split a protocol line into whitespace-separated tokens, writing into
/// the caller's fixed-size array. Returns the token count, or
/// kMaxTokens + 1 if the line has more tokens than fit (callers treat
/// that as a protocol error).
std::size_t tokenize(std::string_view line, std::span<std::string_view> out) {
  std::size_t count = 0;
  std::size_t pos = 0;
  while (pos < line.size()) {
    while (pos < line.size() && line[pos] == ' ') ++pos;
    std::size_t end = pos;
    while (end < line.size() && line[end] != ' ') ++end;
    if (end > pos) {
      if (count == out.size()) return kMaxTokens + 1;
      out[count++] = line.substr(pos, end - pos);
    }
    pos = end;
  }
  return count;
}

/// Storage for the tokens of the line being parsed. Static: string_view's
/// default ctor is non-trivial, so an automatic array would zero 2 KB per
/// line. Constant-initialized (no guard), and the simulator is
/// single-threaded; only [0, token_count) is read.
std::span<std::string_view> line_tokens() {
  static std::array<std::string_view, kMaxTokens> storage;
  return storage;
}

template <typename T>
bool parse_number(std::string_view token, T& out) {
  auto [ptr, ec] = std::from_chars(token.data(), token.data() + token.size(), out);
  return ec == std::errc{} && ptr == token.data() + token.size();
}

void append_str(std::vector<std::byte>& out, std::string_view s) {
  const auto* p = reinterpret_cast<const std::byte*>(s.data());
  // rmclint:allow(zeroalloc): appends to a reused scratch, which grows to its largest message once
  out.insert(out.end(), p, p + s.size());
}

void append_number(std::vector<std::byte>& out, std::uint64_t v) {
  char buf[20];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  (void)ec;
  append_str(out, {buf, static_cast<std::size_t>(ptr - buf)});
}

void append_crlf(std::vector<std::byte>& out) { append_str(out, "\r\n"); }

/// Every fixed text response line, spelled once for the server encoder and
/// the client parser (after pelikan's RSP_TABLE). An entry ending in a
/// space is a prefix: the response's message follows it on the line.
struct RspEntry {
  Response::Type type;
  std::string_view text;
};

constexpr RspEntry kRspTable[] = {
    {Response::Type::stored, "STORED"},
    {Response::Type::not_stored, "NOT_STORED"},
    {Response::Type::exists, "EXISTS"},
    {Response::Type::not_found, "NOT_FOUND"},
    {Response::Type::deleted, "DELETED"},
    {Response::Type::touched, "TOUCHED"},
    {Response::Type::ok, "OK"},
    {Response::Type::error, "ERROR"},
    {Response::Type::client_error, "CLIENT_ERROR "},
    {Response::Type::server_error, "SERVER_ERROR "},
    {Response::Type::version, "VERSION "},
};

constexpr bool is_prefix(const RspEntry& entry) { return entry.text.ends_with(' '); }

/// The storage commands, which carry a data block.
bool has_data_block(Command c) {
  return decode_verb(kVerbs, c, {}).verb == StoreOp::Verb::store;
}

/// Every command's name on the wire, spelled once for the client encoder
/// and the server parser.
constexpr std::pair<std::string_view, Command> kCommands[] = {
    {"get", Command::get},       {"gets", Command::gets},
    {"set", Command::set},       {"add", Command::add},
    {"replace", Command::replace}, {"append", Command::append},
    {"prepend", Command::prepend}, {"cas", Command::cas},
    {"delete", Command::del},    {"incr", Command::incr},
    {"decr", Command::decr},     {"touch", Command::touch},
    {"flush_all", Command::flush_all}, {"stats", Command::stats},
    {"version", Command::version}, {"quit", Command::quit},
};

std::string_view command_name(Command c) {
  for (const auto& [n, cmd] : kCommands) {
    if (cmd == c) return n;
  }
  return "?";
}

std::optional<Command> command_from(std::string_view name) {
  for (const auto& [n, c] : kCommands) {
    if (n == name) return c;
  }
  return std::nullopt;
}

/// Find "\r\n" in `hay` starting at `from`; index into `hay`.
std::optional<std::size_t> find_crlf(std::string_view hay, std::size_t from) {
  if (hay.size() < 2) return std::nullopt;
  for (std::size_t i = from; i + 1 < hay.size(); ++i) {
    if (hay[i] == '\r' && hay[i + 1] == '\n') return i;
  }
  return std::nullopt;
}

/// What parse_value found at the cursor.
enum class ValueLine : std::uint8_t { value, end, need_more, bad };

/// Parse the reply line at `cursor` of `window`: a VALUE line with its data
/// block into `out` (the cursor moves past both), or END (the cursor stays
/// at its start).
ValueLine parse_value(std::string_view window, std::size_t& cursor, Value& out) {
  const auto line_end = find_crlf(window, cursor);
  if (!line_end) return ValueLine::need_more;
  const std::string_view line = window.substr(cursor, *line_end - cursor);
  if (line == "END") return ValueLine::end;
  const std::span<std::string_view> tokens = line_tokens();
  const std::size_t token_count = tokenize(line, tokens);
  if (token_count < 4 || token_count > kMaxTokens || tokens[0] != "VALUE") {
    return ValueLine::bad;
  }
  out.key = tokens[1];
  std::uint32_t bytes = 0;
  out.cas = 0;
  if (!parse_number(tokens[2], out.flags) || !parse_number(tokens[3], bytes) ||
      (token_count > 4 && !parse_number(tokens[4], out.cas))) {
    return ValueLine::bad;
  }
  const std::size_t data_start = *line_end + 2;
  if (window.size() < data_start + bytes + 2) return ValueLine::need_more;
  out.data = std::as_bytes(std::span(window.substr(data_start, bytes)));
  cursor = data_start + bytes + 2;
  return ValueLine::value;
}

}  // namespace

// ------------------------------------------------------- RequestParser

std::byte* RequestParser::key_space(std::size_t n) {
  if (keys_.size() + n > keys_.capacity()) {
    // Growing would move the lists handed out since feed(): retire the
    // block until then, and start one at least twice its size.
    const std::size_t capacity = std::max(n, 2 * keys_.capacity() + 256);
    // rmclint:allow(zeroalloc): grows to the key lists of one receive chunk once
    if (!keys_.empty()) retired_keys_.push_back(std::move(keys_));
    keys_ = std::vector<std::byte>();
    // rmclint:allow(zeroalloc): grows to the key lists of one receive chunk once
    keys_.reserve(capacity);
  }
  const std::size_t at = keys_.size();
  // rmclint:allow(zeroalloc): within the capacity checked above
  keys_.resize(at + n);
  return keys_.data() + at;
}

Result<std::optional<Request>> RequestParser::next() {
  const std::span<const std::byte> unread = rx_.unread();
  const std::string_view window{reinterpret_cast<const char*>(unread.data()), unread.size()};
  const std::size_t avail = window.size();

  const auto line_end = find_crlf(window, scan_from_);
  if (!line_end) {
    scan_from_ = avail > 0 ? avail - 1 : 0;  // the tail byte may be a lone '\r'
    // Too long even if that tail byte starts the CRLF.
    if (avail > kMaxLine + 1) return Errc::protocol_error;
    return std::optional<Request>{};
  }
  if (*line_end > kMaxLine) return Errc::protocol_error;

  const std::string_view line = window.substr(0, *line_end);
  const std::span<std::string_view> storage = line_tokens();
  const std::size_t token_count = tokenize(line, storage);
  if (token_count == 0 || token_count > kMaxTokens) return Errc::protocol_error;
  const std::span<const std::string_view> tokens = storage.first(token_count);
  const auto command = command_from(tokens[0]);
  if (!command) return Errc::protocol_error;

  Request req;
  req.command = *command;
  std::size_t consumed = *line_end + 2;
  // The tokens that name keys, packed once the line checks out. A key
  // over the limit is rejected before any byte is copied; a storage
  // command's before its data block is awaited.
  std::span<const std::string_view> keys{};
  auto keys_fit = [&] {
    return std::all_of(keys.begin(), keys.end(),
                       [](std::string_view k) { return k.size() <= Request::kMaxKeyLen; });
  };

  if (has_data_block(req.command)) {
    // <cmd> <key> <flags> <exptime> <bytes> [cas] [noreply]\r\n<data>\r\n
    const bool is_cas = req.command == Command::cas;
    const std::size_t expected = is_cas ? 6 : 5;
    if (tokens.size() < expected) return Errc::protocol_error;
    keys = tokens.subspan(1, 1);
    if (!keys_fit()) return Errc::protocol_error;
    std::uint32_t bytes = 0;
    if (!parse_number(tokens[2], req.flags) || !parse_number(tokens[3], req.exptime) ||
        !parse_number(tokens[4], bytes)) {
      return Errc::protocol_error;
    }
    std::size_t next_token = 5;
    if (is_cas) {
      if (!parse_number(tokens[5], req.cas_unique)) return Errc::protocol_error;
      next_token = 6;
    }
    if (tokens.size() > next_token && tokens[next_token] == "noreply") req.noreply = true;

    // The data block plus trailing CRLF must be fully buffered.
    if (avail < consumed + bytes + 2) return std::optional<Request>{};
    if (window[consumed + bytes] != '\r' || window[consumed + bytes + 1] != '\n') {
      return Errc::protocol_error;  // bad data chunk
    }
    req.data = unread.subspan(consumed, bytes);
    consumed += bytes + 2;
  } else {
    switch (req.command) {
      case Command::get:
      case Command::gets:
        if (tokens.size() < 2) return Errc::protocol_error;
        keys = tokens.subspan(1);
        break;
      case Command::del:
        if (tokens.size() < 2) return Errc::protocol_error;
        keys = tokens.subspan(1, 1);
        if (tokens.size() > 2 && tokens.back() == "noreply") req.noreply = true;
        break;
      case Command::incr:
      case Command::decr:
        if (tokens.size() < 3 || !parse_number(tokens[2], req.delta)) {
          return Errc::protocol_error;
        }
        keys = tokens.subspan(1, 1);
        if (tokens.size() > 3 && tokens.back() == "noreply") req.noreply = true;
        break;
      case Command::touch:
        if (tokens.size() < 3 || !parse_number(tokens[2], req.exptime)) {
          return Errc::protocol_error;
        }
        keys = tokens.subspan(1, 1);
        if (tokens.size() > 3 && tokens.back() == "noreply") req.noreply = true;
        break;
      case Command::flush_all:
        if (tokens.size() > 1) {
          if (!parse_number(tokens[1], req.exptime)) {
            if (tokens[1] == "noreply") {
              req.noreply = true;
            } else {
              return Errc::protocol_error;
            }
          }
        }
        if (tokens.size() > 2 && tokens.back() == "noreply") req.noreply = true;
        break;
      case Command::stats:
      case Command::version:
      case Command::quit:
        break;
      default:
        return Errc::protocol_error;
    }
  }

  if (!keys_fit()) return Errc::protocol_error;
  std::size_t key_bytes = 0;
  for (const std::string_view k : keys) key_bytes += mget_entry_size(k);
  if (key_bytes > 0) {
    std::byte* at = key_space(key_bytes);
    req.keys = {at, key_bytes};
    for (const std::string_view k : keys) at += pack_mget_key(at, k);
  }
  req.wire_bytes = consumed;
  rx_.consume(consumed);
  scan_from_ = 0;
  return std::optional<Request>(req);
}

// ------------------------------------------------------------ encoding

void encode_request(const Request& request, std::vector<std::byte>& out) {
  append_str(out, command_name(request.command));

  if (has_data_block(request.command)) {
    append_str(out, " ");
    append_str(out, request.key());
    append_str(out, " ");
    append_number(out, request.flags);
    append_str(out, " ");
    append_number(out, request.exptime);
    append_str(out, " ");
    append_number(out, request.data.size());
    if (request.command == Command::cas) {
      append_str(out, " ");
      append_number(out, request.cas_unique);
    }
    if (request.noreply) append_str(out, " noreply");
    append_crlf(out);
    // rmclint:allow(zeroalloc): the connection's scratch grows to its largest request once
    out.insert(out.end(), request.data.begin(), request.data.end());
    append_crlf(out);
    return;
  }

  switch (request.command) {
    case Command::get:
    case Command::gets: {
      MgetKeyReader keys{request.keys.data(), request.keys.size()};
      for (std::string_view key; keys.next(key);) {
        append_str(out, " ");
        append_str(out, key);
      }
      break;
    }
    case Command::del:
      append_str(out, " ");
      append_str(out, request.key());
      break;
    case Command::incr:
    case Command::decr:
      append_str(out, " ");
      append_str(out, request.key());
      append_str(out, " ");
      append_number(out, request.delta);
      break;
    case Command::touch:
      append_str(out, " ");
      append_str(out, request.key());
      append_str(out, " ");
      append_number(out, request.exptime);
      break;
    case Command::flush_all:
      if (request.exptime) {
        append_str(out, " ");
        append_number(out, request.exptime);
      }
      break;
    default:
      break;
  }
  if (request.noreply) append_str(out, " noreply");
  append_crlf(out);
}

void append_bytes(std::vector<std::byte>& out, std::string_view s) { append_str(out, s); }

void append_u64(std::vector<std::byte>& out, std::uint64_t v) { append_number(out, v); }

void encode_response(const Response& response, std::vector<std::byte>& out) {
  using Type = Response::Type;
  switch (response.type) {
    case Type::number: append_number(out, response.number); break;
    case Type::stats:
      append_str(out, response.message);  // pre-rendered STAT lines
      append_str(out, "END");
      break;
    default:
      for (const RspEntry& entry : kRspTable) {
        if (entry.type != response.type) continue;
        append_str(out, entry.text);
        if (is_prefix(entry)) append_str(out, response.message);
        break;
      }
      break;
  }
  append_crlf(out);
}

// ------------------------------------------------------ ResponseParser

bool Values::next(Value& out) {
  std::size_t cursor = 0;
  if (block.empty() || parse_value(block, cursor, out) != ValueLine::value) return false;
  block.remove_prefix(cursor);
  return true;
}

Result<std::optional<Response>> ResponseParser::next(Expect expect) {
  const std::span<const std::byte> unread = rx_.unread();
  const std::string_view window{reinterpret_cast<const char*>(unread.data()), unread.size()};
  Response resp;

  if (expect == Expect::values) {
    // Check VALUE blocks up to END, all of which must be buffered.
    std::size_t cursor = 0;
    for (Value v;;) {
      switch (parse_value(window, cursor, v)) {
        case ValueLine::value: continue;
        case ValueLine::need_more: return std::optional<Response>{};
        case ValueLine::bad: return Errc::protocol_error;
        case ValueLine::end: break;
      }
      break;
    }
    resp.type = Response::Type::values;
    resp.values.block = window.substr(0, cursor);
    rx_.consume(cursor + 5);  // "END\r\n"
    return std::optional<Response>(resp);
  }

  const auto line_end = find_crlf(window, 0);
  if (!line_end) return std::optional<Response>{};
  const std::string_view line = window.substr(0, *line_end);

  const RspEntry* match = nullptr;
  for (const RspEntry& entry : kRspTable) {
    if (is_prefix(entry) ? line.starts_with(entry.text) : line == entry.text) {
      match = &entry;
      break;
    }
  }
  if (match != nullptr) {
    resp.type = match->type;
    if (is_prefix(*match)) resp.message = line.substr(match->text.size());
  } else if (expect == Expect::number) {
    resp.type = Response::Type::number;
    if (!parse_number(line, resp.number)) return Errc::protocol_error;
  } else {
    return Errc::protocol_error;
  }

  rx_.consume(*line_end + 2);
  return std::optional<Response>(resp);
}

}  // namespace rmc::mc::proto
