#include "memcached/client.hpp"

#include "memcached/binary.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstring>

#include "common/hash.hpp"
#include "common/log.hpp"
#include "common/page_buffer.hpp"
#include "ucr/wire.hpp"
#include "common/slotmap.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "onesided/remote_getter.hpp"

namespace rmc::mc {

namespace {

/// Request assembly on the client is payload work (header encode, key
/// pack, send_message staging) as opposed to simulator engine overhead.
const std::uint16_t kProfClientBuild =
    obs::profiler().register_scope("prof.mc.client.build", obs::ScopeKind::payload);

Status status_from(const proto::Response& resp) {
  using Type = proto::Response::Type;
  switch (resp.type) {
    case Type::stored:
    case Type::deleted:
    case Type::touched:
    case Type::ok:
      return {};
    case Type::not_stored: return Errc::not_stored;
    case Type::exists: return Errc::exists;
    case Type::not_found: return Errc::not_found;
    case Type::client_error: return Errc::invalid_argument;
    case Type::server_error:
      // memcached's two store failures (items.c, memcached.c).
      if (resp.message == "object too large for cache") return Errc::too_large;
      if (resp.message == "out of memory storing object") return Errc::no_resources;
      return Errc::protocol_error;
    default: return Errc::protocol_error;
  }
}

/// Sim-time spans decomposing one client operation into the paper's
/// stages: build (request format + issue), wait (fabric + server turn-
/// around), complete (reply decode + result copy). Stamps are adjacent,
/// so build + wait + complete == total exactly. Recorded on completed
/// RPC round trips; the one-sided GET path keeps its own metrics.
/// Always on: recording is two array writes, sim behavior is untouched.
struct LatencySpans {
  obs::Timer* build;
  obs::Timer* wait;
  obs::Timer* complete;
  obs::Timer* total;
};

const LatencySpans& get_spans() {
  static const LatencySpans s{&obs::registry().timer("mc.latency.get.build"),
                              &obs::registry().timer("mc.latency.get.wait"),
                              &obs::registry().timer("mc.latency.get.complete"),
                              &obs::registry().timer("mc.latency.get.total")};
  return s;
}

const LatencySpans& set_spans() {
  static const LatencySpans s{&obs::registry().timer("mc.latency.set.build"),
                              &obs::registry().timer("mc.latency.set.wait"),
                              &obs::registry().timer("mc.latency.set.complete"),
                              &obs::registry().timer("mc.latency.set.total")};
  return s;
}

const LatencySpans& mget_spans() {
  static const LatencySpans s{&obs::registry().timer("mc.latency.mget.build"),
                              &obs::registry().timer("mc.latency.mget.wait"),
                              &obs::registry().timer("mc.latency.mget.complete"),
                              &obs::registry().timer("mc.latency.mget.total")};
  return s;
}

/// Record one op's adjacent stage stamps: build [t0, t1), wait [t1, t2),
/// complete [t2, t3).
void record_spans(const LatencySpans& spans, sim::Time t0, sim::Time t1, sim::Time t2,
                  sim::Time t3) {
  spans.build->record(t1 - t0);
  spans.wait->record(t2 - t1);
  spans.complete->record(t3 - t2);
  spans.total->record(t3 - t0);
}

Status status_from(ucrp::RStatus status) {
  switch (status) {
    case ucrp::RStatus::ok:
    case ucrp::RStatus::stored:
    case ucrp::RStatus::deleted:
    case ucrp::RStatus::touched:
    case ucrp::RStatus::value:
    case ucrp::RStatus::number:
      return {};
    case ucrp::RStatus::not_stored: return Errc::not_stored;
    case ucrp::RStatus::exists: return Errc::exists;
    case ucrp::RStatus::not_found: return Errc::not_found;
    case ucrp::RStatus::client_error: return Errc::invalid_argument;
    case ucrp::RStatus::server_error: return Errc::no_resources;
    case ucrp::RStatus::too_large: return Errc::too_large;
    case ucrp::RStatus::rerun: break;  // a ring reply's, never an answer
  }
  return Errc::protocol_error;
}

/// ServerConn::call's result for a reply that carried no number: the
/// reply's error, else 0. An arith must answer a number, so its success
/// without one broke protocol.
Result<std::uint64_t> write_result(const StoreOp& op, Status st) {
  if (!st.ok()) return st.error();
  if (op.verb == StoreOp::Verb::arith) return Errc::protocol_error;
  return std::uint64_t{0};
}

/// Simulated client CPU: marshalling one request, and copying values into
/// results.
constexpr sim::Time kFormatNs = 600;
constexpr double kResultCopyNsPerByte = 0.08;

/// Simulated client CPU for copying `bytes` value bytes (the copy-charge
/// rule in client.hpp).
sim::Time copy_cost(std::size_t bytes) {
  return static_cast<sim::Time>(static_cast<double>(bytes) * kResultCopyNsPerByte);
}

/// Landing rule for bytes the transport already holds: copy them into
/// `dest` when they fit, else leave them where they are (connection
/// storage). Returns where the value now lives.
std::span<const std::byte> land(std::span<const std::byte> bytes, std::span<std::byte> dest) {
  if (bytes.size() > dest.size()) return bytes;
  if (!bytes.empty()) std::memcpy(dest.data(), bytes.data(), bytes.size());
  return dest.first(bytes.size());
}

void fill_slot(MgetSlot& slot, std::uint32_t flags, std::uint64_t cas,
               std::span<const std::byte> bytes) {
  slot.hit = true;
  slot.flags = flags;
  slot.cas = cas;
  slot.value_len = static_cast<std::uint32_t>(bytes.size());
  slot.value = land(bytes, slot.dest);
}

/// Scatter one multiget reply chunk (ucrp::read_mget_chunk) into `slots`;
/// hits land by fill_slot. The RPC chunks and the single RFP chunk are
/// both read here. Returns the chunk header, or nothing for a bare or
/// malformed chunk.
std::optional<ucrp::MgetChunkHeader> scatter_chunk(std::span<const std::byte> block,
                                                   std::span<const std::byte> values,
                                                   std::span<MgetSlot> slots) {
  return ucrp::read_mget_chunk(
      block, values,
      [&](std::size_t index, const ucrp::MgetRecord& rec, std::span<const std::byte> value) {
        if (index >= slots.size()) return false;
        MgetSlot& slot = slots[index];
        if (rec.status == ucrp::RStatus::value) {
          fill_slot(slot, rec.flags, rec.cas, value);
        } else {
          slot.hit = false;
          slot.value = {};
        }
        return true;
      });
}

void clear_slots(std::span<MgetSlot> slots) {
  for (MgetSlot& slot : slots) {
    slot.hit = false;
    slot.value = {};
  }
}

Value owned_value(std::string_view key, std::uint32_t flags, std::uint64_t cas,
                  std::span<const std::byte> bytes) {
  Value value;
  value.key.assign(key.data(), key.size());
  value.flags = flags;
  value.cas = cas;
  value.data.assign(bytes.begin(), bytes.end());
  return value;
}

Result<Value> owned_result(std::string_view key, const Result<GetIntoResult>& r) {
  if (!r.ok()) return r.error();
  return owned_value(key, r->flags, r->cas, r->value());
}

/// memcached's key rule, checked before a key is routed, so every
/// transport answers a bad key alike: invalid_argument. A key is 1 to 250
/// bytes and holds no space, CR or LF (the text protocol's separators).
bool key_fits(std::string_view key) {
  if (key.empty() || key.size() > proto::Request::kMaxKeyLen) return false;
  // A plain loop: find_first_of(" \r\n") costs a memchr per key byte, and
  // this runs on every op.
  for (const char c : key) {
    if (c == ' ' || c == '\r' || c == '\n') return false;
  }
  return true;
}

/// One recv chunk per socket connection, reused by every round trip.
constexpr std::size_t kRecvChunk = 16 * 1024;

}  // namespace

// -------------------------------------------------------------- stream --

/// The byte-stream half of TextConn and BinaryConn: the socket, the
/// receive chunk, the scratch every request is encoded into, and the one
/// parse-or-receive loop every reply goes through. `Parser` pops `Reply`s
/// off the stream as views of its buffer, valid until the next receive.
template <typename Parser, typename Reply>
class StreamConn : public ServerConn {
 public:
  StreamConn(sim::Scheduler& sched, sim::Host& host, const ClientBehavior& behavior,
             sock::NetStack& stack, sim::NicAddr addr, std::uint16_t port)
      : sched_(&sched), host_(&host), behavior_(behavior), stack_(&stack), addr_(addr),
        port_(port) {}

  /// A new stream starts clean: the old socket is closed, and the bytes a
  /// dead stream left half-parsed are dropped.
  sim::Task<Status> connect() override {
    if (socket_) socket_->close();
    socket_ = nullptr;
    parser_.reset();
    auto r = co_await stack_->connect(addr_, port_);
    if (!r.ok()) co_return r.error();
    socket_ = *r;
    co_return Status{};
  }

  /// A FIN from the server leaves the state established but the stream
  /// dead: peer_closed() tells it.
  bool alive() const override {
    return socket_ && socket_->state() == sock::SockState::established &&
           !socket_->peer_closed();
  }

 protected:
  /// Marshal and send the request encoded in scratch_.
  sim::Task<Status> send_scratch() {
    co_await host_->cpu().consume(kFormatNs);
    auto sent = co_await socket_->send(scratch_);
    if (!sent.ok()) co_return sent.error();
    co_return Status{};
  }

  /// Send the request encoded in scratch_, then take the first reply.
  template <typename... Expect>
  sim::Task<Result<Reply>> round_trip(Expect... expect) {
    auto sent = co_await send_scratch();
    if (!sent.ok()) co_return sent.error();
    co_return co_await receive(expect...);
  }

  /// The next reply off the stream, receiving as needed. `expect` is what
  /// the text protocol needs to know to parse it; binary frames need none.
  template <typename... Expect>
  sim::Task<Result<Reply>> receive(Expect... expect) {
    while (true) {
      auto parsed = parser_.next(expect...);
      if (!parsed.ok()) co_return parsed.error();
      if (parsed->has_value()) co_return **parsed;
      auto st = co_await fill();
      if (!st.ok()) co_return st.error();
    }
  }

  /// Receive one chunk into the parser.
  sim::Task<Status> fill() {
    auto n = co_await socket_->recv(chunk_);
    if (!n.ok()) co_return n.error();
    if (*n == 0) co_return Errc::disconnected;
    parser_.feed(std::span<const std::byte>(chunk_.data(), *n));
    co_return Status{};
  }

  sim::Scheduler* sched_;
  sim::Host* host_;
  ClientBehavior behavior_;
  sock::NetStack* stack_;
  sim::NicAddr addr_;
  std::uint16_t port_;
  sock::Socket* socket_ = nullptr;
  Parser parser_;
  std::vector<std::byte> chunk_ = std::vector<std::byte>(kRecvChunk);
  std::vector<std::byte> scratch_;  ///< the request being sent
};

// ---------------------------------------------------------------- text --

class TextConn final : public StreamConn<proto::ResponseParser, proto::Response> {
 public:
  using StreamConn::StreamConn;
  using Expect = proto::ResponseParser::Expect;

  sim::Task<Result<GetIntoResult>> get_into(std::string_view key, std::span<std::byte> dest,
                                            bool with_cas) override {
    // A one-key multiget: the same request a text client sends for GET.
    // Stream conns have no build/wait boundary (one buffered round trip),
    // so only the end-to-end span is recorded.
    const sim::Time t0 = sched_->now();
    MgetSlot slot;
    slot.dest = dest;
    auto st = co_await mget_into({&key, 1}, {&slot, 1}, with_cas);
    if (!st.ok()) co_return st.error();
    if (!slot.hit) co_return Errc::not_found;
    get_spans().total->record(sched_->now() - t0);
    co_return GetIntoResult{slot.value_len, slot.flags, slot.cas, slot.value.data()};
  }

  sim::Task<Status> mget_into(std::span<const std::string_view> keys, std::span<MgetSlot> slots,
                              bool with_cas) override {
    if (!alive()) co_return Errc::disconnected;
    if (keys.size() > slots.size()) co_return Errc::invalid_argument;
    for (const std::string_view key : keys) {
      if (key.size() > proto::Request::kMaxKeyLen) co_return Errc::invalid_argument;
    }
    encode({.command = with_cas ? proto::Command::gets : proto::Command::get}, keys);
    auto resp = co_await round_trip(Expect::values);
    if (!resp.ok()) co_return resp.error();

    // The reply is a view of the parser's buffer, which holds it until the
    // next op: unlanded slots point into it.
    clear_slots(slots);
    std::size_t copied_bytes = 0;
    proto::Values values = resp->values;
    for (proto::Value value; values.next(value);) {
      copied_bytes += value.data.size();
      for (std::size_t i = 0; i < keys.size(); ++i) {
        if (keys[i] == value.key && !slots[i].hit) {
          fill_slot(slots[i], value.flags, value.cas, value.data);
          break;
        }
      }
    }
    co_await host_->cpu().consume(copy_cost(copied_bytes));
    co_return Status{};
  }

  sim::Task<Result<std::uint64_t>> call(const StoreOp& op, std::string_view key,
                                        std::span<const std::byte> value) override {
    if (!alive()) co_return Errc::disconnected;
    // flush_all names no key.
    const std::span<const std::string_view> keys{&key, key.empty() ? 0u : 1u};
    encode({.command = encode_verb(proto::kVerbs, op),
            .flags = op.flags,
            .exptime = op.exptime,
            .cas_unique = op.cas,
            .delta = op.delta,
            .data = value},
           keys);
    const bool arith = op.verb == StoreOp::Verb::arith;
    const sim::Time t0 = sched_->now();
    auto resp = co_await round_trip(arith ? Expect::number : Expect::simple);
    if (!resp.ok()) co_return resp.error();
    if (op.verb == StoreOp::Verb::store) set_spans().total->record(sched_->now() - t0);
    if (arith && resp->type == proto::Response::Type::number) co_return resp->number;
    co_return write_result(op, status_from(*resp));
  }

 private:
  /// Encode `request` naming `keys` into scratch_.
  void encode(proto::Request request, std::span<const std::string_view> keys) {
    keys_.clear();
    for (const std::string_view key : keys) {
      const std::size_t at = keys_.size();
      keys_.resize(at + mget_entry_size(key));
      pack_mget_key(keys_.data() + at, key);
    }
    request.keys = keys_;
    scratch_.clear();
    proto::encode_request(request, scratch_);
  }

  std::vector<std::byte> keys_;  ///< the request's keys, packed
};

// -------------------------------------------------------------- binary --

/// ServerConn speaking the memcached binary protocol over a byte stream
/// (ClientBehavior::binary_protocol). Multi-get uses the pipelined
/// getkq...noop pattern real binary clients use.
class BinaryConn final : public StreamConn<bproto::ResponseParser, bproto::Response> {
 public:
  using StreamConn::StreamConn;

  sim::Task<Result<GetIntoResult>> get_into(std::string_view key, std::span<std::byte> dest,
                                            bool /*with_cas*/) override {
    if (!alive()) co_return Errc::disconnected;
    const sim::Time t0 = sched_->now();
    scratch_.clear();
    bproto::encode_request({.opcode = bproto::Opcode::get, .key = key}, scratch_);
    auto resp = co_await round_trip();
    if (!resp.ok()) co_return resp.error();
    if (resp->status != bproto::BStatus::ok) {
      co_return status_of(bproto::Opcode::get, resp->status).error();
    }
    GetIntoResult out{static_cast<std::uint32_t>(resp->value.size()), resp->flags, resp->cas,
                      land(resp->value, dest).data()};
    co_await host_->cpu().consume(copy_cost(out.value_len));
    get_spans().total->record(sched_->now() - t0);
    co_return out;
  }

  sim::Task<Status> mget_into(std::span<const std::string_view> keys, std::span<MgetSlot> slots,
                              bool /*with_cas*/) override {
    if (!alive()) co_return Errc::disconnected;
    if (keys.size() > slots.size()) co_return Errc::invalid_argument;
    // Pipeline: one quiet getkq per key, then a noop fence. Misses stay
    // silent; hits come back tagged with opaque and key.
    clear_slots(slots);
    scratch_.clear();
    for (std::size_t i = 0; i < keys.size(); ++i) {
      bproto::encode_request({.opcode = bproto::Opcode::getkq,
                              .key = keys[i],
                              .opaque = static_cast<std::uint32_t>(i)},
                             scratch_);
    }
    bproto::encode_request({.opcode = bproto::Opcode::noop, .opaque = 0xffffffff}, scratch_);
    auto sent = co_await send_scratch();
    if (!sent.ok()) co_return sent;

    // The whole reply is parsed from one buffered stretch, so a value that
    // misses its slot's dest stays in the parser's buffer until the next op.
    while (!parser_.complete_through(bproto::Opcode::noop)) {
      auto st = co_await fill();
      if (!st.ok()) co_return st;
    }
    while (true) {
      auto resp = parser_.next();
      if (!resp.ok()) co_return resp.error();
      if (!resp->has_value()) co_return Errc::protocol_error;
      if ((*resp)->opcode == bproto::Opcode::noop) co_return Status{};
      if ((*resp)->opcode == bproto::Opcode::getkq && (*resp)->opaque < keys.size()) {
        fill_slot(slots[(*resp)->opaque], (*resp)->flags, (*resp)->cas, (*resp)->value);
      }
    }
  }

  sim::Task<Result<std::uint64_t>> call(const StoreOp& op, std::string_view key,
                                        std::span<const std::byte> value) override {
    if (!alive()) co_return Errc::disconnected;
    // arith_exptime stays "fail on miss", like the text protocol.
    const bproto::Opcode opcode = encode_verb(bproto::kVerbs, op);
    scratch_.clear();
    bproto::encode_request({.opcode = opcode,
                            .key = key,
                            .value = value,
                            .flags = op.flags,
                            .exptime = op.exptime,
                            .delta = op.delta,
                            .cas = op.cas},
                           scratch_);
    const sim::Time t0 = sched_->now();
    auto resp = co_await round_trip();
    if (!resp.ok()) co_return resp.error();
    if (resp->status != bproto::BStatus::ok) co_return status_of(opcode, resp->status).error();
    if (op.verb == StoreOp::Verb::store) set_spans().total->record(sched_->now() - t0);
    co_return resp->number;
  }

 private:
  /// The binary status in the text protocol's error space, so both stream
  /// protocols look identical to callers: the binary protocol tells
  /// add-exists and replace-miss apart, text says not_stored to both.
  static Status status_of(bproto::Opcode op, bproto::BStatus status) {
    switch (status) {
      case bproto::BStatus::ok: return {};
      case bproto::BStatus::key_not_found:
        return op == bproto::Opcode::replace ? Errc::not_stored : Errc::not_found;
      case bproto::BStatus::key_exists:
        return op == bproto::Opcode::add ? Errc::not_stored : Errc::exists;
      case bproto::BStatus::value_too_large: return Errc::too_large;
      case bproto::BStatus::not_stored: return Errc::not_stored;
      case bproto::BStatus::delta_badval: return Errc::invalid_argument;
      case bproto::BStatus::invalid_arguments: return Errc::invalid_argument;
      case bproto::BStatus::out_of_memory: return Errc::no_resources;
      case bproto::BStatus::unknown_command: return Errc::protocol_error;
    }
    return Errc::protocol_error;
  }
};

// ----------------------------------------------------------------- ucr --

class UcrConn final : public ServerConn {
 public:
  UcrConn(sim::Scheduler& sched, sim::Host& host, const ClientBehavior& behavior,
          ucr::Runtime& runtime, sim::NicAddr addr, std::uint16_t port)
      : sched_(&sched), host_(&host), behavior_(behavior), runtime_(&runtime), addr_(addr),
        port_(port) {
    ensure_handler(runtime);
    arena_ = PageBuffer(std::max<std::size_t>(behavior.arena_bytes, 1024));
    // Endpoint death must not leave in-flight operations to ride out their
    // timeouts: fail every pending request the moment the runtime reports
    // the endpoint down, so callers see Errc::disconnected immediately.
    down_handler_ = runtime.on_endpoint_down([this](ucr::Endpoint& ep, Errc) {
      if (&ep != ep_) return;
      ep_ = nullptr;
      obs::registry().counter("mc.client.disconnects").inc();
      pending_.for_each([](std::uint64_t, Pending& p) {
        p.failed = true;
        if (p.counter) p.counter->fail_waiters();
      });
    });
  }

  ~UcrConn() override { runtime_->remove_endpoint_handler(down_handler_); }

  sim::Task<Status> connect() override {
    const auto type =
        behavior_.unreliable_ucr ? ucr::EpType::unreliable : ucr::EpType::reliable;
    auto r = co_await runtime_->connect(addr_, port_, type, behavior_.op_timeout);
    if (!r.ok()) co_return r.error();
    ep_ = *r;
    ep_->set_user_data(this);
    runtime_->register_region(arena_.span());
    const auto mode = behavior_.mode;
    if (mode == ClientBehavior::Mode::onesided_get && !behavior_.unreliable_ucr) {
      // Bootstrap the one-sided index descriptor (one RPC). Failure only
      // degrades this connection to RPC GETs; the connect itself succeeded.
      if (!getter_) {
        getter_ = std::make_unique<onesided::RemoteGetter>(*runtime_, behavior_.op_timeout);
      }
      (void)co_await getter_->bootstrap(*ep_, behavior_.op_timeout);
    } else if (mode == ClientBehavior::Mode::rfp && !behavior_.unreliable_ucr) {
      // Bootstrap the RFP ring pair (one RPC, DESIGN.md §16). Failure only
      // degrades this connection to classic RPC; the connect succeeded.
      if (!rfp_) {
        rfp_ = std::make_unique<rfp::Channel>(*runtime_, *host_, behavior_.rfp);
      }
      (void)co_await rfp_->bootstrap(*ep_, behavior_.op_timeout);
    }
    co_return Status{};
  }

  bool alive() const override { return ep_ && ep_->state() == ucr::EpState::ready; }

  sim::Task<Result<GetIntoResult>> get_into(std::string_view key, std::span<std::byte> dest,
                                            bool with_cas) override {
    // The fallback ladder, once: a one-sided Read, then the RFP rings, then
    // the classic RPC, which remains the authority for every miss. A bypass
    // whose bootstrap failed still takes its rung, so its fallback counter
    // shows the degraded connection.
    if (!alive()) co_return Errc::disconnected;
    release_overflow();
    const sim::Time t0 = sched_->now();
    co_await host_->cpu().consume(kFormatNs);
    if (getter_) {
      auto hit = co_await getter_->try_get(*ep_, key);
      if (hit.ok()) {
        // An unlanded value stays in the getter's read buffer until the
        // next read on this connection.
        GetIntoResult out{static_cast<std::uint32_t>(hit->value.size()), hit->flags, hit->cas,
                          land(hit->value, dest).data()};
        co_await host_->cpu().consume(copy_cost(out.value_len));
        co_return out;
      }
      if (!alive()) co_return Errc::disconnected;
    }
    if (rfp_) {
      auto hit = co_await rfp_->execute(*ep_, {.op = with_cas ? ucrp::Op::gets : ucrp::Op::get},
                                        key_bytes(key), {}, behavior_.op_timeout);
      if (hit.ok()) {
        const ucrp::ResponseHeader resp = hit->header;
        if (resp.status == ucrp::RStatus::value) {
          // The ring slot dies at release(): an unlanded value moves to
          // this connection's spill buffer first.
          std::span<const std::byte> body = hit->body;
          if (body.size() > dest.size()) {
            spill_.assign(body.begin(), body.end());
            body = spill_;
          }
          GetIntoResult out{static_cast<std::uint32_t>(body.size()), resp.flags, resp.cas,
                            land(body, dest).data()};
          rfp_->release(hit->slot);
          co_await host_->cpu().consume(copy_cost(out.value_len));
          co_return out;
        }
        rfp_->release(hit->slot);
        const Status st = status_from(resp.status);
        co_return st.ok() ? Errc::not_found : st.error();
      }
      // Non-ok = fallback ladder: the ring could not serve it; use RPC.
      if (!alive()) co_return Errc::disconnected;
    }
    // RPC: the reply header handler lands the value straight in `dest`
    // when it fits (§V-C), else in the arena.
    auto issued = issue({.op = with_cas ? ucrp::Op::gets : ucrp::Op::get}, key, {}, dest);
    if (!issued.ok()) co_return issued.error();
    const sim::Time t1 = sched_->now();
    auto pending = co_await await_reply(*issued);
    const sim::Time t2 = sched_->now();
    if (!pending.ok()) co_return pending.error();
    if (pending->response.status != ucrp::RStatus::value) {
      maybe_reset_arena();
      const Status st = status_from(pending->response.status);
      co_return st.ok() ? Errc::not_found : st.error();
    }
    // Landed in the arena: the owning caller's copy-out is charged here,
    // inside the `complete` span.
    if (pending->dest.data() != dest.data()) {
      co_await host_->cpu().consume(copy_cost(pending->value_len));
    }
    maybe_reset_arena();
    record_spans(get_spans(), t0, t1, t2, sched_->now());
    co_return GetIntoResult{pending->value_len, pending->response.flags, pending->response.cas,
                            pending->dest.data()};
  }

  sim::Task<Status> mget_into(std::span<const std::string_view> keys,
                              std::span<MgetSlot> slots, bool with_cas) override {
    // True server-side multiget (the tentpole of the batching design): the
    // key list packs into as few request AMs as fit the eager frame, each
    // sub-request issued under one doorbell (begin/end_send_batch), and
    // the server scatters all answers back in chunked scatter-gather
    // replies. Steady state allocates nothing: key block and wave state
    // live on this frame, reply values land in the arena.
    (void)with_cas;  // records always carry the CAS id
    if (!alive()) co_return Errc::disconnected;
    if (keys.size() > slots.size()) co_return Errc::invalid_argument;
    if (keys.empty()) co_return Status{};
    // Reset the arena up front (values of the *previous* op die at the next
    // op, per the landing rule) so back-to-back mgets reuse it instead of
    // marching the bump pointer to the overflow path.
    maybe_reset_arena();
    release_overflow();
    const sim::Time t0 = sched_->now();
    co_await host_->cpu().consume(kFormatNs);

    if (rfp_ && rfp_->ready()) {
      // Single-frame RFP attempt: the whole key block in one ring slot,
      // the whole chunked reply in the matching response slot. Anything
      // that does not fit — oversized block, reply overflow (the server
      // asks for a re-run), malformed chunk — falls through to the
      // chunked RPC waves below.
      std::size_t block = 0;
      bool fits = true;
      for (const auto& key : keys) {
        block += mget_entry_size(key);
        if (block > ucrp::kMaxMgetKeyBlock) {
          fits = false;
          break;
        }
      }
      if (fits && ucrp::RequestHeader::kSize + block <= rfp_->max_body()) {
        std::byte packed[ucrp::kMaxMgetKeyBlock];
        std::size_t off = 0;
        for (const auto& key : keys) off += pack_mget_key(packed + off, key);
        auto reply = co_await rfp_->execute(
            *ep_, {.op = ucrp::Op::mget, .delta = keys.size()},
            std::span<const std::byte>(packed, block), {}, behavior_.op_timeout);
        if (reply.ok()) {
          // One chunk answers every key, its values after its records. The
          // slot dies at release(), so the values move to the arena first
          // and then scatter like an RPC chunk's.
          std::optional<ucrp::MgetChunkHeader> chunk;
          std::size_t copied = 0;
          std::span<const std::byte> records;
          std::span<const std::byte> values;
          if (reply->header.status == ucrp::RStatus::value &&
              ucrp::split_mget_frame(reply->body, records, values)) {
            const std::span<std::byte> landed = arena_alloc(values.size());
            std::memcpy(landed.data(), values.data(), values.size());
            copied = values.size();
            chunk = scatter_chunk(records, landed, slots);
          }
          rfp_->release(reply->slot);
          if (chunk && chunk->total_chunks == 1 && chunk->start_index == 0 &&
              chunk->record_count == keys.size()) {
            co_await host_->cpu().consume(copy_cost(copied));
            co_return Status{};
          }
        }
        if (!alive()) co_return Errc::disconnected;
      }
    }

    // Key-block budget per sub-request: one eager frame (UD: one MTU)
    // minus AM wire + request header overhead.
    std::size_t frame = runtime_->config().eager_limit;
    if (behavior_.unreliable_ucr) {
      frame = std::min<std::size_t>(frame, verbs::kUdMtu);
    }
    const std::size_t budget =
        std::min(ucrp::kMaxMgetKeyBlock,
                 frame - ucr::wire::AmWire::kSize - ucrp::RequestHeader::kSize);

    static constexpr std::size_t kWave = 16;  // < credits_per_ep: no backlog
    std::array<std::uint64_t, kWave> subs;    // the wave's req_ids
    sim::Time t1 = t0;
    sim::Time t2 = t0;
    std::size_t next = 0;
    bool first_wave = true;
    while (next < keys.size()) {
      // Issue a wave of sub-requests under a single doorbell.
      std::size_t nsubs = 0;
      runtime_->begin_send_batch();
      while (next < keys.size() && nsubs < kWave) {
        const std::size_t start = next;
        std::size_t bytes = 0;
        while (next < keys.size()) {
          const std::size_t need = mget_entry_size(keys[next]);
          if (bytes != 0 && bytes + need > budget) break;
          bytes += need;
          ++next;
        }
        auto issued = issue_mget(keys.subspan(start, next - start),
                                 slots.subspan(start, next - start));
        if (!issued.ok()) {
          runtime_->end_send_batch();
          for (std::size_t i = 0; i < nsubs; ++i) drop_mget(subs[i]);
          co_return issued.error();
        }
        subs[nsubs++] = *issued;
      }
      runtime_->end_send_batch();
      if (first_wave) {
        t1 = sched_->now();
        first_wave = false;
      }
      for (std::size_t i = 0; i < nsubs; ++i) {
        auto reply = co_await await_reply(subs[i]);
        const Status st = reply.ok() ? chunked_status(*reply) : reply.error();
        if (!st.ok()) {
          // Sibling sub-requests still scatter into the caller's slots
          // through their Pendings: drop them before unwinding so a late
          // chunk cannot write into slots the caller has moved on from.
          for (std::size_t j = i + 1; j < nsubs; ++j) drop_mget(subs[j]);
          co_return st;
        }
      }
      t2 = sched_->now();
    }

    std::uint64_t copied = 0;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (slots[i].hit) copied += slots[i].value.size();
    }
    co_await host_->cpu().consume(copy_cost(copied));
    record_spans(mget_spans(), t0, t1, t2, sched_->now());
    co_return Status{};
  }

  /// The rings→RPC ladder of every write: through the RFP rings in mode
  /// rfp (flush_all stays RPC), and on any ring fallback — rings that never
  /// came up included — as a classic RPC. A completed RPC store records the
  /// set spans.
  sim::Task<Result<std::uint64_t>> call(const StoreOp& op, std::string_view key,
                                        std::span<const std::byte> value) override {
    if (!alive()) co_return Errc::disconnected;
    const sim::Time t0 = sched_->now();
    co_await host_->cpu().consume(kFormatNs);
    const bool flush = op.verb == StoreOp::Verb::flush_all;
    const ucrp::RequestHeader header{.op = encode_verb(ucrp::kVerbs, op),
                                     .flags = op.flags,
                                     .exptime = op.exptime,
                                     .cas = op.cas,
                                     .delta = op.delta};
    if (flush) key = "-";  // flush_all names no key; its request carries this one
    if (rfp_ && !flush) {
      auto done = co_await rfp_->execute(*ep_, header, key_bytes(key), value,
                                         behavior_.op_timeout);
      if (done.ok()) {
        rfp_->release(done->slot);
        co_return reply_result(op, done->header);
      }
      if (!alive()) co_return Errc::disconnected;
    }
    auto issued = issue(header, key, value);
    if (!issued.ok()) co_return issued.error();
    const sim::Time t1 = sched_->now();
    auto pending = co_await await_reply(*issued);
    const sim::Time t2 = sched_->now();
    if (!pending.ok()) co_return pending.error();
    maybe_reset_arena();
    if (op.verb == StoreOp::Verb::store) record_spans(set_spans(), t0, t1, t2, sched_->now());
    co_return reply_result(op, pending->response);
  }

 private:
  /// One request in flight, under its req_id. A multiget sub-request's
  /// reply comes in chunks that scatter into `slots` as they land; a
  /// single-key reply is a reply of one chunk. The slots are the caller's:
  /// a sub-request abandoned early (sibling failure) must be drop_mget()ed
  /// so late chunks cannot write into them.
  struct Pending {
    ucrp::ResponseHeader response{};
    std::span<std::byte> dest{};
    std::span<std::byte> user_dest{};  ///< get_into: land the value here
    std::span<MgetSlot> slots{};       ///< multiget: the scatter target (never empty)
    std::uint32_t value_len = 0;
    std::uint32_t total_chunks = 0;  ///< multiget: learned from the first chunk to land
    std::uint32_t chunks_seen = 0;
    bool error = false;   ///< multiget: the server answered with a bare error header
    bool done = false;
    bool failed = false;  ///< endpoint died while this op was in flight
    sim::Counter* counter = nullptr;
    std::uint64_t wait_target = 0;
    std::size_t counter_slot = 0;
  };

  /// One response handler per runtime, shared by all UcrConns on it; it
  /// dispatches through the endpoint's user_data.
  static void ensure_handler(ucr::Runtime& runtime);

  /// call()'s result for a reply header: arith's number, else its status.
  static Result<std::uint64_t> reply_result(const StoreOp& op, const ucrp::ResponseHeader& resp) {
    if (op.verb == StoreOp::Verb::arith && resp.status == ucrp::RStatus::number) {
      return resp.number;
    }
    return write_result(op, status_from(resp.status));
  }

  /// A multiget sub-request's outcome: a bare error header answers its
  /// status, and a reply that lacks chunks broke protocol.
  static Status chunked_status(const Pending& p) {
    if (p.error) {
      const Status st = status_from(p.response.status);
      return st.ok() ? Errc::protocol_error : st;
    }
    return p.done ? Status{} : Errc::protocol_error;
  }

  static std::span<const std::byte> key_bytes(std::string_view key) {
    return std::as_bytes(std::span<const char>(key.data(), key.size()));
  }

  Result<std::uint64_t> issue(const ucrp::RequestHeader& header, std::string_view key,
                              std::span<const std::byte> value,
                              std::span<std::byte> user_dest = {}) {
    obs::ProfScope prof{kProfClientBuild};
    return send_request({.user_dest = user_dest}, header, key_bytes(key), value);
  }

  /// Issue one multiget sub-request carrying all of `keys` as a packed key
  /// block; its reply scatters into `slots`. The caller guarantees the
  /// block fits the eager frame.
  Result<std::uint64_t> issue_mget(std::span<const std::string_view> keys,
                                   std::span<MgetSlot> slots) {
    obs::ProfScope prof{kProfClientBuild};
    std::byte block[ucrp::kMaxMgetKeyBlock];
    std::size_t len = 0;
    for (const auto& key : keys) len += pack_mget_key(block + len, key);
    return send_request({.slots = slots}, {.op = ucrp::Op::mget, .delta = keys.size()},
                        {block, len}, {});
  }

  /// Send one request AM: register `pending` with a reply counter under a
  /// fresh req_id, then send `header` (its key_len, req_id and counter
  /// filled in) followed by `key`, a key or an mget key block, and `value`.
  Result<std::uint64_t> send_request(Pending pending, ucrp::RequestHeader header,
                                     std::span<const std::byte> key,
                                     std::span<const std::byte> value) {
    auto [counter, ref, slot] = acquire_counter();
    pending.counter = counter;
    pending.wait_target = counter->value() + 1;
    pending.counter_slot = slot;
    // The slot-map key doubles as the wire req_id (opaque, echoed back).
    const std::uint64_t req_id = pending_.emplace(pending);
    header.key_len = static_cast<std::uint16_t>(key.size());
    header.req_id = req_id;
    header.reply_counter = ref.id;

    // Keys are bounded, so the AM packs on the stack; send_message copies
    // it out (slot or backlog) before returning.
    std::byte packed[ucrp::RequestHeader::kSize + ucrp::kMaxMgetKeyBlock];
    header.encode(packed);
    std::memcpy(packed + ucrp::RequestHeader::kSize, key.data(), key.size());
    const Status sent = runtime_->send_message(
        *ep_, ucrp::kMsgRequest,
        std::span<const std::byte>(packed, ucrp::RequestHeader::kSize + key.size()), value,
        nullptr, {}, nullptr);
    if (!sent.ok()) {
      release_counter(slot);
      pending_.erase(req_id);
      return sent.error();
    }
    return req_id;
  }

  /// Abandon an issued multiget sub-request: unlink its Pending (late
  /// chunks then drop on the floor in on_response_header) and recycle the
  /// counter. Monotonic counters make the recycle safe.
  void drop_mget(std::uint64_t req_id) {
    Pending* p = pending_.get(req_id);
    if (p == nullptr) return;
    release_counter(p->counter_slot);
    pending_.erase(req_id);
  }

  /// Wait out the reply for `req_id` and pop its Pending. Every chunk bumps
  /// the reply counter once, so this takes at most two suspensions: one
  /// until the first chunk lands, and, when that chunk says more follow,
  /// one until the last (a batch-drained reply coalesces both). Error
  /// means the operation failed wholesale (timeout / stale id).
  sim::Task<Result<Pending>> await_reply(std::uint64_t req_id) {
    Pending* p = pending_.get(req_id);
    assert(p != nullptr);
    bool ok = true;
    sim::Counter* counter = p->counter;
    const std::uint64_t first = p->wait_target;
    if (!p->failed) {  // a dead endpoint never delivers; don't wait for it
      ok = co_await counter->wait_geq(first, behavior_.op_timeout);
      p = pending_.get(req_id);  // slots may have moved while suspended
      if (p == nullptr) co_return Errc::protocol_error;
    }
    if (ok && !p->failed && !p->done && p->total_chunks > 1) {
      ok = co_await counter->wait_geq(first - 1 + p->total_chunks, behavior_.op_timeout);
      p = pending_.get(req_id);
      if (p == nullptr) co_return Errc::protocol_error;
    }
    const Pending pending = *p;
    pending_.erase(req_id);
    release_counter(pending.counter_slot);
    if (pending.failed) co_return Errc::disconnected;
    if (!ok) {
      obs::registry().counter("mc.client.timeouts").inc();
      co_return Errc::timed_out;
    }
    co_return pending;
  }

  // ---- response arrival (called from the shared runtime handler) ----
  std::span<std::byte> on_response_header(std::span<const std::byte> header,
                                          std::uint32_t data_len) {
    const auto resp = ucrp::ResponseHeader::decode(header.data());
    Pending* p = pending_.get(resp.req_id);
    if (p == nullptr) return {};
    if (!p->slots.empty()) {
      // Multiget chunk: the gathered hit values land in the arena and the
      // slots keep pointing there (valid until the next op, per contract).
      return arena_alloc(data_len);
    }
    // The item length is known only now (§V-C): land directly in the
    // caller's get_into buffer when it fits, else allocate from the pool.
    if (!p->user_dest.empty() && data_len <= p->user_dest.size()) {
      p->dest = p->user_dest.first(data_len);
    } else {
      p->dest = arena_alloc(data_len);
    }
    p->value_len = data_len;
    return p->dest;
  }

  void on_response_complete(std::span<const std::byte> header, std::span<std::byte> data) {
    const auto resp = ucrp::ResponseHeader::decode(header.data());
    Pending* p = pending_.get(resp.req_id);
    if (p == nullptr) return;
    if (!p->slots.empty()) {
      on_mget_chunk(*p, resp, header, data);
      return;
    }
    p->response = resp;
    p->done = true;
    // The UCR target counter (counter C) fires right after this handler.
  }

  /// Scatter one multiget response chunk into the sub-request's slots.
  void on_mget_chunk(Pending& p, const ucrp::ResponseHeader& resp,
                     std::span<const std::byte> header, std::span<std::byte> data) {
    const auto chunk = scatter_chunk(header.subspan(ucrp::ResponseHeader::kSize), data, p.slots);
    if (!chunk) {
      // A bare ResponseHeader (the server failed the whole sub-request)
      // or a malformed chunk.
      p.response = resp;
      p.error = true;
      p.done = true;
      return;
    }
    p.total_chunks = chunk->total_chunks;
    ++p.chunks_seen;
    if (p.chunks_seen >= p.total_chunks) p.done = true;
  }

  // ---- local buffer pool (bump arena, reset when quiescent) ----
  std::span<std::byte> arena_alloc(std::size_t len) {
    if (arena_offset_ + len > arena_.size()) {
      // Overflow: fall back to a side buffer (registered on demand).
      obs::registry().counter("mc.alloc.arena_overflows").inc();
      overflow_.push_back(std::vector<std::byte>(len));
      return overflow_.back();
    }
    auto out = std::span<std::byte>(arena_.data() + arena_offset_, len);
    arena_offset_ += len;
    return out;
  }

  void maybe_reset_arena() {
    if (pending_.empty()) arena_offset_ = 0;
  }

  /// Side buffers may hold the previous op's values (landing rule), so
  /// they are freed when the next read starts, not when an op completes.
  void release_overflow() {
    if (pending_.empty()) overflow_.clear();
  }

  // ---- reusable reply counters (monotonic, so reuse is safe) ----
  std::tuple<sim::Counter*, ucr::CounterRef, std::size_t> acquire_counter() {
    if (free_counters_.empty()) {
      counters_.push_back(runtime_->make_counter());
      counter_refs_.push_back(runtime_->export_counter(*counters_.back()));
      free_counters_.push_back(counters_.size() - 1);
    }
    const std::size_t slot = free_counters_.back();
    free_counters_.pop_back();
    return {counters_[slot].get(), counter_refs_[slot], slot};
  }
  void release_counter(std::size_t slot) { free_counters_.push_back(slot); }

  sim::Scheduler* sched_;
  sim::Host* host_;
  ClientBehavior behavior_;
  ucr::Runtime* runtime_;
  sim::NicAddr addr_;
  std::uint16_t port_;
  ucr::Endpoint* ep_ = nullptr;
  std::uint64_t down_handler_ = 0;
  std::unique_ptr<onesided::RemoteGetter> getter_;  ///< non-null iff Mode::onesided_get
  std::unique_ptr<rfp::Channel> rfp_;               ///< non-null iff Mode::rfp

  SlotMap<Pending> pending_;

  // Page-backed: the bump allocator resets whenever no op is pending, so a
  // closed-loop client only ever writes the first few KB of it.
  PageBuffer arena_;
  std::size_t arena_offset_ = 0;
  std::vector<std::vector<std::byte>> overflow_;
  std::vector<std::byte> spill_;  ///< an RFP GET value that missed the caller's dest

  std::vector<std::unique_ptr<sim::Counter>> counters_;
  std::vector<ucr::CounterRef> counter_refs_;
  std::vector<std::size_t> free_counters_;
};

void UcrConn::ensure_handler(ucr::Runtime& runtime) {
  // Registering is idempotent per runtime (same handler object semantics).
  runtime.register_handler(
      ucrp::kMsgResponse,
      {.on_header =
           [](ucr::Endpoint& ep, std::span<const std::byte> header, std::uint32_t data_len) {
             auto* conn = static_cast<UcrConn*>(ep.user_data());
             if (!conn) return std::span<std::byte>{};
             return conn->on_response_header(header, data_len);
           },
       .on_complete =
           [](ucr::Endpoint& ep, std::span<const std::byte> header, std::span<std::byte> data) {
             auto* conn = static_cast<UcrConn*>(ep.user_data());
             if (conn) conn->on_response_complete(header, data);
           }});
}

// -------------------------------------------------------------- Client --

Client::Client(sim::Scheduler& sched, sim::Host& host, ClientBehavior behavior)
    : sched_(&sched), host_(&host), behavior_(behavior) {}

Client::~Client() = default;

void Client::register_server(std::string name) {
  server_names_.push_back(std::move(name));
  health_.emplace_back();
  if (behavior_.distribution == Distribution::ketama) continuum_.rebuild(server_names_);
}

void Client::add_server_socket(sock::NetStack& stack, sim::NicAddr addr, std::uint16_t port) {
  if (behavior_.binary_protocol) {
    conns_.push_back(
        std::make_unique<BinaryConn>(*sched_, *host_, behavior_, stack, addr, port));
  } else {
    conns_.push_back(
        std::make_unique<TextConn>(*sched_, *host_, behavior_, stack, addr, port));
  }
  register_server("host" + std::to_string(addr) + ":" + std::to_string(port));
}

void Client::add_server_ucr(ucr::Runtime& runtime, sim::NicAddr addr, std::uint16_t port) {
  conns_.push_back(std::make_unique<UcrConn>(*sched_, *host_, behavior_, runtime, addr, port));
  register_server("host" + std::to_string(addr) + ":" + std::to_string(port));
}

sim::Task<Status> Client::connect_all() {
  for (auto& conn : conns_) {
    auto st = co_await conn->connect();
    if (!st.ok()) co_return st;
  }
  co_return Status{};
}

std::size_t Client::server_index(std::string_view key) const {
  assert(!conns_.empty());
  if (behavior_.distribution == Distribution::ketama) {
    const std::size_t index = continuum_.lookup(key);
    return alive_to_conn_.empty() ? index : alive_to_conn_[index];
  }
  const std::size_t start = hash_key(HashKind::default_jenkins, key) % conns_.size();
  for (std::size_t probe = 0; probe < conns_.size(); ++probe) {
    const std::size_t index = (start + probe) % conns_.size();
    if (index >= health_.size() || !health_[index].ejected) return index;
  }
  return start;  // whole pool ejected: fall back to the natural owner
}

// ------------------------------------------------ failure recovery --

sim::Task<Status> Client::ensure_conn(std::size_t index) {
  ServerConn& conn = *conns_[index];
  if (conn.alive()) co_return Status{};
  obs::registry().counter("mc.client.reconnects").inc();
  co_return co_await conn.connect();
}

void Client::note_failure(std::size_t index) {
  if (index >= health_.size()) return;
  ServerHealth& h = health_[index];
  ++h.consecutive_failures;
  if (h.ejected || behavior_.eject_after_failures == 0 || conns_.size() < 2) return;
  if (h.consecutive_failures < behavior_.eject_after_failures) return;
  h.ejected = true;
  obs::registry().counter("mc.pool.ejected").inc();
  rebuild_routing();
  if (behavior_.rejoin_interval != 0 && !h.probing) {
    h.probing = true;
    sched_->spawn(rejoin_probe(index));
  }
}

void Client::note_success(std::size_t index) {
  if (index >= health_.size()) return;
  ServerHealth& h = health_[index];
  h.consecutive_failures = 0;
  if (!h.ejected) return;
  h.ejected = false;
  obs::registry().counter("mc.pool.rejoined").inc();
  rebuild_routing();
}

void Client::rebuild_routing() {
  if (behavior_.distribution != Distribution::ketama) return;
  // Re-hash the continuum over the surviving pool: ketama's whole point
  // is that this remaps only the dead server's share of the keyspace.
  std::vector<std::string> alive;
  alive_to_conn_.clear();
  for (std::size_t i = 0; i < server_names_.size(); ++i) {
    if (i < health_.size() && health_[i].ejected) continue;
    alive.push_back(server_names_[i]);
    alive_to_conn_.push_back(i);
  }
  if (alive.empty()) {  // nobody left: keep routing to natural owners
    alive_to_conn_.clear();
    continuum_.rebuild(server_names_);
    return;
  }
  continuum_.rebuild(alive);
}

sim::Task<> Client::rejoin_probe(std::size_t index) {
  for (std::uint32_t i = 0; i < behavior_.rejoin_attempts && health_[index].ejected; ++i) {
    co_await sched_->delay(behavior_.rejoin_interval);
    if (!health_[index].ejected) break;
    ServerConn& conn = *conns_[index];
    if (!conn.alive()) {
      auto st = co_await conn.connect();
      if (!st.ok()) continue;
    }
    // Any reply — even a miss — proves the server is back.
    auto probe = co_await conn.get_into("rejoin-probe", {}, false);
    if (probe.ok() || !transport_error(probe.error())) note_success(index);
  }
  health_[index].probing = false;
}

template <typename Op>
std::invoke_result_t<Op&, ServerConn&> Client::with_retries(std::string_view key, Op op,
                                                            std::size_t server) {
  if (server == kRouteByKey && !key_fits(key)) co_return Errc::invalid_argument;
  for (std::uint32_t attempt = 0;; ++attempt) {
    // Route per attempt: an ejection between attempts re-routes the key.
    const std::size_t index = server == kRouteByKey ? server_index(key) : server;
    Errc failure = Errc::ok;
    if (!conns_[index]->alive()) {
      auto reconnected = co_await ensure_conn(index);
      if (!reconnected.ok()) {
        if (!transport_error(reconnected.error())) co_return reconnected.error();
        failure = reconnected.error();
      }
    }
    if (failure == Errc::ok) {
      auto result = co_await op(*conns_[index]);
      if (result.ok() || !transport_error(result.error())) {
        note_success(index);
        co_return std::move(result);
      }
      failure = result.error();
    }
    note_failure(index);
    if (attempt >= behavior_.max_retries) co_return failure;
    obs::registry().counter("mc.client.retries").inc();
    co_await sched_->delay(behavior_.retry_backoff << std::min(attempt, 6u));
  }
}

sim::Task<Result<std::uint64_t>> Client::write(StoreOp op, std::string_view key,
                                               std::span<const std::byte> value,
                                               std::size_t server) {
  // Not a coroutine: the lambda, `op` with it, lives in with_retries' frame.
  return with_retries(
      key, [op, key, value](ServerConn& c) { return c.call(op, key, value); }, server);
}

sim::Task<Status> Client::set(std::string_view key, std::span<const std::byte> value,
                              std::uint32_t flags, std::uint32_t exptime) {
  obs::registry().counter("mc.client.sets").inc();
  co_return (co_await write({.verb = StoreOp::Verb::store, .flags = flags, .exptime = exptime},
                            key, value))
      .error();
}
sim::Task<Status> Client::add(std::string_view key, std::span<const std::byte> value,
                              std::uint32_t flags, std::uint32_t exptime) {
  co_return (co_await write({.verb = StoreOp::Verb::store, .mode = SetMode::add, .flags = flags,
                             .exptime = exptime},
                            key, value))
      .error();
}
sim::Task<Status> Client::replace(std::string_view key, std::span<const std::byte> value,
                                  std::uint32_t flags, std::uint32_t exptime) {
  co_return (co_await write({.verb = StoreOp::Verb::store, .mode = SetMode::replace,
                             .flags = flags, .exptime = exptime},
                            key, value))
      .error();
}
sim::Task<Status> Client::append(std::string_view key, std::span<const std::byte> value) {
  co_return (co_await write({.verb = StoreOp::Verb::store, .mode = SetMode::append}, key, value))
      .error();
}
sim::Task<Status> Client::prepend(std::string_view key, std::span<const std::byte> value) {
  co_return (co_await write({.verb = StoreOp::Verb::store, .mode = SetMode::prepend}, key, value))
      .error();
}
sim::Task<Status> Client::cas(std::string_view key, std::span<const std::byte> value,
                              std::uint64_t cas_unique, std::uint32_t flags,
                              std::uint32_t exptime) {
  // CAS ids start at 1, so 0 names no item (binary would read it as "no
  // compare" and store unconditionally).
  if (cas_unique == 0) co_return Errc::invalid_argument;
  co_return (co_await write({.verb = StoreOp::Verb::store, .mode = SetMode::cas, .flags = flags,
                             .exptime = exptime, .cas = cas_unique},
                            key, value))
      .error();
}

// get/gets: get_into with no caller buffer, copied out of connection
// storage into an owning Value.
sim::Task<Result<Value>> Client::get(std::string_view key) {
  obs::registry().counter("mc.client.gets").inc();
  co_return owned_result(
      key, co_await with_retries(key, [&](ServerConn& c) { return c.get_into(key, {}, false); }));
}
sim::Task<Result<Value>> Client::gets(std::string_view key) {
  co_return owned_result(
      key, co_await with_retries(key, [&](ServerConn& c) { return c.get_into(key, {}, true); }));
}
sim::Task<Result<GetIntoResult>> Client::get_into(std::string_view key,
                                                  std::span<std::byte> dest) {
  obs::registry().counter("mc.client.gets").inc();
  auto r = co_await with_retries(
      key, [&](ServerConn& c) { return c.get_into(key, dest, false); });
  if (r.ok() && r->value_len > dest.size()) co_return Errc::too_large;
  co_return r;
}

sim::Task<Result<std::vector<std::optional<Value>>>> Client::mget(
    std::span<const std::string> keys) {
  if (!std::all_of(keys.begin(), keys.end(), key_fits)) co_return Errc::invalid_argument;
  // Group keys per server and issue all per-server mgets concurrently
  // (libmemcached pipelines across the pool), then reassemble
  // positionally.
  std::vector<std::vector<std::string_view>> grouped(conns_.size());
  std::vector<std::vector<std::size_t>> positions(conns_.size());
  std::size_t groups = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::size_t server = server_index(keys[i]);
    if (grouped[server].empty()) ++groups;
    grouped[server].push_back(keys[i]);
    positions[server].push_back(i);
  }

  std::vector<std::optional<Value>> out(keys.size());
  Errc first_error = Errc::ok;
  sim::Counter finished(*sched_);
  for (std::size_t server = 0; server < conns_.size(); ++server) {
    if (grouped[server].empty()) continue;
    // The spawned tasks only reference this frame's locals, and this
    // coroutine stays suspended on `finished` until all of them are done.
    sched_->spawn([](Client& client, std::size_t index,
                     const std::vector<std::string_view>& group,
                     const std::vector<std::size_t>& pos,
                     std::vector<std::optional<Value>>& results, Errc& err,
                     sim::Counter& done) -> sim::Task<> {
      // rmclint:allow(coro-lifetime): all arguments live in mget's frame, which
      // stays suspended on `finished` until every per-server task calls done.add().
      std::vector<MgetSlot> slots(group.size());
      auto st = co_await client.with_retries(
          {}, [&](ServerConn& c) { return c.mget_into(group, slots, false); }, index);
      if (st.ok()) {
        for (std::size_t j = 0; j < pos.size(); ++j) {
          const MgetSlot& s = slots[j];
          if (s.hit) results[pos[j]] = owned_value(group[j], s.flags, s.cas, s.value);
        }
      } else if (err == Errc::ok) {
        err = st.error();
      }
      done.add();
    }(*this, server, grouped[server], positions[server], out, first_error, finished));
  }
  co_await finished.wait_geq(groups);
  if (first_error != Errc::ok) co_return first_error;
  co_return out;
}

sim::Task<Status> Client::mget_into(std::span<const std::string_view> keys,
                                    std::span<MgetSlot> slots) {
  if (keys.size() > slots.size()) co_return Errc::invalid_argument;
  if (!std::all_of(keys.begin(), keys.end(), key_fits)) co_return Errc::invalid_argument;
  if (keys.empty()) co_return Status{};
  // Single-server pool: zero-alloc pass-through to the batched transport
  // path (the common benchmark/zero-alloc configuration).
  if (conns_.size() == 1) {
    co_return co_await with_retries(
        {}, [&](ServerConn& c) { return c.mget_into(keys, slots, false); }, 0);
  }

  // Multi-server pool: group per server first (allocates), run the
  // per-server batches sequentially, and copy the answers back into the
  // caller's positional slots.
  std::vector<std::vector<std::string_view>> grouped(conns_.size());
  std::vector<std::vector<std::size_t>> positions(conns_.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::size_t server = server_index(keys[i]);
    grouped[server].push_back(keys[i]);
    positions[server].push_back(i);
  }
  std::vector<MgetSlot> scratch;
  for (std::size_t server = 0; server < conns_.size(); ++server) {
    if (grouped[server].empty()) continue;
    scratch.assign(grouped[server].size(), MgetSlot{});
    for (std::size_t j = 0; j < positions[server].size(); ++j) {
      scratch[j].dest = slots[positions[server][j]].dest;
    }
    auto st = co_await with_retries(
        {}, [&](ServerConn& c) { return c.mget_into(grouped[server], scratch, false); }, server);
    if (!st.ok()) co_return st;
    for (std::size_t j = 0; j < positions[server].size(); ++j) {
      slots[positions[server][j]] = scratch[j];
    }
  }
  co_return Status{};
}

sim::Task<Status> Client::del(std::string_view key) {
  co_return (co_await write({.verb = StoreOp::Verb::del}, key)).error();
}
sim::Task<Result<std::uint64_t>> Client::incr(std::string_view key, std::uint64_t delta) {
  co_return co_await write({.verb = StoreOp::Verb::arith, .delta = delta}, key);
}
sim::Task<Result<std::uint64_t>> Client::decr(std::string_view key, std::uint64_t delta) {
  co_return co_await write({.verb = StoreOp::Verb::arith, .decrement = true, .delta = delta}, key);
}
sim::Task<Status> Client::touch(std::string_view key, std::uint32_t exptime) {
  co_return (co_await write({.verb = StoreOp::Verb::touch, .exptime = exptime}, key)).error();
}

sim::Task<Status> Client::flush_all() {
  for (std::size_t server = 0; server < conns_.size(); ++server) {
    auto done = co_await write({.verb = StoreOp::Verb::flush_all}, {}, {}, server);
    if (!done.ok()) co_return done.error();
  }
  co_return Status{};
}

}  // namespace rmc::mc
