// rmclint:hotpath — request fast path; zero-alloc rule enforced here
#include "memcached/server.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <utility>

#include "common/log.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "ucr/wire.hpp"

namespace rmc::mc {

namespace {
/// Payload-stage scopes: wall-clock spent doing the cache's actual work
/// (parsing requests, store operations, formatting replies), as opposed
/// to the engine overhead charged to the prof.sim.* / prof.ucr.* scopes.
/// Each wraps only the straight-line section between cpu() awaits — a
/// ProfScope must never span a co_await.
const std::uint16_t kProfParse =
    obs::profiler().register_scope("prof.mc.server.parse", obs::ScopeKind::payload);
const std::uint16_t kProfExecute =
    obs::profiler().register_scope("prof.mc.server.execute", obs::ScopeKind::payload);
const std::uint16_t kProfFormat =
    obs::profiler().register_scope("prof.mc.server.format", obs::ScopeKind::payload);

constexpr std::string_view kVersion = "1.4.5-rmc";

/// `base` plus `bytes` at `ns_per_byte`: every per-byte CPU charge.
sim::Time charge(sim::Time base, std::size_t bytes, double ns_per_byte) {
  return base + static_cast<sim::Time>(static_cast<double>(bytes) * ns_per_byte);
}

/// The text reply to a store op's outcome (memcached's reply lines).
proto::Response text_reply(proto::Command command, const Outcome& out) {
  using Type = proto::Response::Type;
  proto::Response resp;
  switch (out.error) {
    case Errc::ok:
      switch (command) {
        case proto::Command::del: resp.type = Type::deleted; break;
        case proto::Command::touch: resp.type = Type::touched; break;
        case proto::Command::flush_all: resp.type = Type::ok; break;
        case proto::Command::incr:
        case proto::Command::decr:
          resp.type = Type::number;
          resp.number = out.number;
          break;
        default: resp.type = Type::stored; break;
      }
      break;
    case Errc::not_stored: resp.type = Type::not_stored; break;
    case Errc::exists: resp.type = Type::exists; break;
    case Errc::not_found: resp.type = Type::not_found; break;
    case Errc::too_large:
      resp.type = Type::server_error;
      resp.message = "object too large for cache";
      break;
    case Errc::invalid_argument:
      resp.type = Type::client_error;
      resp.message = command == proto::Command::incr || command == proto::Command::decr
                         ? "cannot increment or decrement non-numeric value"
                         : "bad command line format";
      break;
    default:
      resp.type = Type::server_error;
      resp.message = "out of memory storing object";
      break;
  }
  return resp;
}

/// The binary status of an outcome. The binary protocol tells add-exists
/// from replace-miss; append and prepend say not_stored.
bproto::BStatus binary_status(bproto::Opcode op, Errc e) {
  using bproto::BStatus;
  using bproto::Opcode;
  switch (e) {
    case Errc::ok: return BStatus::ok;
    case Errc::not_stored:
      if (op == Opcode::add) return BStatus::key_exists;
      if (op == Opcode::replace) return BStatus::key_not_found;
      return BStatus::not_stored;
    case Errc::exists: return BStatus::key_exists;
    case Errc::not_found: return BStatus::key_not_found;
    case Errc::too_large: return BStatus::value_too_large;
    case Errc::invalid_argument:
      return op == Opcode::increment || op == Opcode::decrement ? BStatus::delta_badval
                                                                 : BStatus::invalid_arguments;
    default: return BStatus::out_of_memory;
  }
}
}  // namespace

StoreOp ucr_op(const ucrp::RequestHeader& header) {
  return decode_verb(ucrp::kVerbs, header.op,
                     {.flags = header.flags, .exptime = header.exptime, .cas = header.cas,
                      .delta = header.delta});
}

ucrp::ResponseHeader ucr_response(ucrp::Op op, std::uint64_t req_id, const Outcome& out) {
  using ucrp::RStatus;
  ucrp::ResponseHeader resp;
  resp.req_id = req_id;
  switch (out.error) {
    case Errc::ok: break;
    case Errc::not_stored: resp.status = RStatus::not_stored; return resp;
    case Errc::exists: resp.status = RStatus::exists; return resp;
    case Errc::not_found: resp.status = RStatus::not_found; return resp;
    case Errc::too_large: resp.status = RStatus::too_large; return resp;
    case Errc::invalid_argument: resp.status = RStatus::client_error; return resp;
    default: resp.status = RStatus::server_error; return resp;
  }
  switch (op) {
    case ucrp::Op::get:
    case ucrp::Op::gets:
      resp.status = RStatus::value;
      resp.flags = out.item->flags;
      resp.cas = out.item->cas;
      break;
    case ucrp::Op::del: resp.status = RStatus::deleted; break;
    case ucrp::Op::incr:
    case ucrp::Op::decr:
      resp.status = RStatus::number;
      resp.number = out.number;
      break;
    case ucrp::Op::touch: resp.status = RStatus::touched; break;
    case ucrp::Op::flush_all:
    case ucrp::Op::version: resp.status = RStatus::ok; break;
    case ucrp::Op::set:
    case ucrp::Op::add:
    case ucrp::Op::replace:
    case ucrp::Op::append:
    case ucrp::Op::prepend:
    case ucrp::Op::cas: resp.status = RStatus::stored; break;
    default: resp.status = RStatus::client_error; break;  // names no single-key op
  }
  return resp;
}

/// Per-UCR-connection state hung off the endpoint's user_data: the SETs
/// whose header has arrived and whose value has not, in arrival order,
/// each with the item its value lands in or the store's error for a SET
/// that found no item. One vector that keeps its capacity, so a SET
/// allocates nothing once the connection has seen its most SETs in flight.
struct Server::UcrConnState {
  struct PendingSet {
    std::uint64_t req_id;
    ItemHeader* item;  ///< null when the store failed the allocation
    Errc error;
  };
  std::vector<PendingSet> pending_sets;
  std::size_t worker = 0;  ///< round-robin worker owning this connection
};

Server::Server(sim::Scheduler& sched, sim::Host& host, ServerConfig config)
    : sched_(&sched),
      host_(&host),
      config_(config),
      store_(config.store),
      stage_parse_(&obs::registry().timer("mc.server.stage.parse")),
      stage_queue_(&obs::registry().timer("mc.server.stage.queue")),
      stage_execute_(&obs::registry().timer("mc.server.stage.execute")),
      stage_format_(&obs::registry().timer("mc.server.stage.format")),
      queue_depth_(&obs::registry().gauge("mc.worker.queue_depth")),
      mget_batch_(&obs::registry().timer("mc.mget.batch_size")) {
  config_.workers = std::max(1u, config_.workers);
  for (unsigned i = 0; i < config_.workers; ++i) {
    // rmclint:allow(zeroalloc): server construction — worker channels exist for the process lifetime
    worker_queues_.push_back(std::make_unique<sim::Channel<Work>>(sched));
    sched.spawn(worker_loop(i));
  }
}

Server::~Server() {
  if (ucr_runtime_ != nullptr && ucr_down_handler_ != 0) {
    ucr_runtime_->remove_endpoint_handler(ucr_down_handler_);
  }
}

void Server::schedule_flush(std::uint32_t exptime_s) {
  // Every flush — immediate or delayed — starts a new generation, so any
  // still-pending timer from an earlier flush_all is superseded (memcached
  // semantics: the newest flush wins).
  const std::uint64_t gen = ++flush_gen_;
  if (exptime_s == 0) {
    store_.flush_all();
    return;
  }
  std::weak_ptr<bool> alive = flush_alive_;
  sched_->call_in(static_cast<sim::Time>(exptime_s) * kNsPerSec, [this, alive, gen] {
    // The token expires with the Server: a timer outliving the server (or
    // superseded by a newer flush) must not touch freed state.
    if (alive.expired() || gen != flush_gen_) return;
    store_.flush_all();
  });
}

void Server::advance_clock() {
  store_.set_clock(static_cast<std::uint32_t>(1 + sched_->now() / kNsPerSec));
}

void Server::enqueue_work(std::size_t index, Work work) {
  work.enqueued_at = sched_->now();
  worker_queues_[index]->send(std::move(work));
  queue_depth_->set(static_cast<std::int64_t>(worker_queues_[index]->size()));
}

// ------------------------------------------------------ socket frontend

void Server::attach_socket_frontend(sock::NetStack& stack) {
  sock::Listener& listener = stack.listen(config_.port);
  sched_->spawn(accept_loop(stack, listener));
}

sim::Task<> Server::accept_loop(sock::NetStack& stack, sock::Listener& listener) {
  // rmclint:allow(coro-lifetime): the NetStack (and the Listener it owns) is a
  // bed-scoped fixture that outlives the scheduler run this loop lives in.
  (void)stack;
  while (true) {
    sock::Socket* socket = co_await listener.accept();
    if (!socket) co_return;
    ++total_connections_;
    obs::registry().counter("mc.server.connections").inc();
    // Round-robin: all requests of this connection go to one worker, as
    // §V-A describes for the thread assignment.
    const std::size_t worker = next_worker_++ % worker_queues_.size();
    sched_->spawn(stream_loop(*socket, worker));
  }
}

sim::Task<> Server::stream_loop(sock::Socket& socket, std::size_t worker) {
  std::vector<std::byte> chunk(16 * 1024);
  proto::RequestParser text;
  bproto::RequestParser binary;
  std::optional<Frontend> frontend;
  while (true) {
    // rmclint:allow(coro-lifetime): sockets are pool-owned by the NetStack; close()
    // only marks state, so the reference stays valid until stack teardown.
    auto n = co_await socket.recv(chunk);
    if (!n.ok() || *n == 0) {
      socket.close();
      co_return;
    }
    bytes_read_ += *n;
    const std::span<const std::byte> bytes(chunk.data(), *n);
    // Protocol auto-detection, as memcached 1.4 does on a shared port: a
    // first byte of 0x80 means the binary protocol.
    if (!frontend) {
      frontend = bytes[0] == std::byte{bproto::kMagicRequest} ? Frontend::binary : Frontend::text;
    }
    const bool is_binary = *frontend == Frontend::binary;
    if (is_binary) {
      binary.feed(bytes);
    } else {
      text.feed(bytes);
    }
    // libevent fired for this connection: dispatch cost.
    co_await host_->cpu().consume(McCosts::event_dispatch_ns);
    while (true) {
      Work work;
      work.frontend = *frontend;
      work.socket = &socket;
      auto parse_ns = [&] {
        obs::ProfScope prof{kProfParse};
        return is_binary ? next_binary(binary, work.request) : next_text(text, work.request);
      }();
      if (!parse_ns.ok()) {
        if (!is_binary) {
          // Garbage on the stream: memcached answers ERROR and closes.
          std::vector<std::byte> reply;
          proto::encode_response({.type = proto::Response::Type::error}, reply);
          (void)co_await socket.send(reply);
        }
        socket.close();  // binary: the framing is broken; nothing sane to answer
        co_return;
      }
      if (!parse_ns->has_value()) break;
      const sim::Time parse_start = sched_->now();
      co_await host_->cpu().consume(**parse_ns);
      stage_parse_->record(sched_->now() - parse_start);
      const bool quit =
          work.request.command == (is_binary ? static_cast<std::uint8_t>(bproto::Opcode::quit)
                                             : static_cast<std::uint8_t>(proto::Command::quit));
      enqueue_work(worker, std::move(work));
      if (quit) co_return;  // stop reading; the worker closes after draining
    }
  }
}

std::byte* Server::carry(Request& request, std::size_t key_bytes,
                         std::span<const std::byte> value) {
  Bytes& bytes = request.bytes;
  bytes.key_bytes = static_cast<std::uint32_t>(key_bytes);
  bytes.size = static_cast<std::uint32_t>(key_bytes + value.size());
  std::byte* at = bytes.inline_bytes.data();
  if (bytes.size > Bytes::kInline) {
    if (free_blocks_.empty()) {
      // rmclint:allow(zeroalloc): one block per wide request in flight, created once; finished requests hand theirs back
      bytes.block = std::make_unique<std::vector<std::byte>>();
    } else {
      bytes.block = std::move(free_blocks_.back());
      free_blocks_.pop_back();
    }
    bytes.block->resize(bytes.size);  // a recycled block grows to its high-water size once
    at = bytes.block->data();
  }
  if (!value.empty()) std::memcpy(at + key_bytes, value.data(), value.size());
  return at;
}

Result<std::optional<sim::Time>> Server::next_text(proto::RequestParser& parser, Request& out) {
  auto parsed = parser.next();
  if (!parsed.ok()) return parsed.error();
  if (!parsed->has_value()) return std::optional<sim::Time>{};
  const proto::Request& req = **parsed;
  out.command = static_cast<std::uint8_t>(req.command);
  out.noreply = req.noreply;
  out.op = decode_verb(proto::kVerbs, req.command,
                       {.flags = req.flags, .exptime = req.exptime, .cas = req.cas_unique,
                        .delta = req.delta});
  // The stream loop feeds the parser again before the worker runs, so the
  // keys and the value are copied out of its buffer.
  std::byte* keys = carry(out, req.keys.size(), req.data);
  if (!req.keys.empty()) std::memcpy(keys, req.keys.data(), req.keys.size());
  // The line is scanned; the data block is not.
  return std::optional<sim::Time>{charge(McCosts::parse_base_ns, req.wire_bytes - req.data.size(),
                                         McCosts::parse_ns_per_byte)};
}

Result<std::optional<sim::Time>> Server::next_binary(bproto::RequestParser& parser,
                                                     Request& out) {
  auto parsed = parser.next();
  if (!parsed.ok()) return parsed.error();
  if (!parsed->has_value()) return std::optional<sim::Time>{};
  const bproto::Request& req = **parsed;
  out.command = static_cast<std::uint8_t>(req.opcode);
  out.tag = req.opaque;
  out.initial = req.initial;
  StoreOp& op = out.op;
  op = decode_verb(
      bproto::kVerbs, req.opcode,
      {.flags = req.flags, .exptime = req.exptime, .cas = req.cas, .delta = req.delta});
  if (op.verb == StoreOp::Verb::arith) op.exptime = req.arith_exptime;
  // The binary CAS: a set, add or replace with a non-zero CAS id.
  if (req.cas != 0 && op.verb == StoreOp::Verb::store && op.mode != SetMode::append &&
      op.mode != SetMode::prepend) {
    op.mode = SetMode::cas;
  }
  // memcached's key limit, as the text parser and the UCR request check
  // apply it; the binary frame allows 65 535 B.
  const bool key_fits = req.key.size() <= proto::Request::kMaxKeyLen;
  if (!key_fits) out.error = Errc::invalid_argument;
  std::byte* keys = carry(out, key_fits ? mget_entry_size(req.key) : 0, req.value);
  if (key_fits) pack_mget_key(keys, req.key);
  // Binary framing needs no line scanning: flat parse cost.
  return std::optional<sim::Time>{McCosts::parse_base_ns / 2};
}

sim::Task<> Server::worker_loop(std::size_t index) {
  sim::Channel<Work>& queue = *worker_queues_[index];
  WorkerScratch scratch;
  obs::Counter& ucr_requests = obs::registry().counter("mc.requests.ucr");
  obs::Counter& binary_requests = obs::registry().counter("mc.requests.binary");
  obs::Counter& text_requests = obs::registry().counter("mc.requests.text");
  while (true) {
    auto work = co_await queue.recv();
    if (!work) co_return;
    queue_depth_->set(static_cast<std::int64_t>(queue.size()));
    ++requests_served_;
    const sim::Time dequeued_at = sched_->now();
    stage_queue_->record(dequeued_at - work->enqueued_at);
    const char* kind = "text";
    switch (work->frontend) {
      case Frontend::ucr:
        kind = "ucr";
        ucr_requests.inc();
        co_await serve_ucr(*work, scratch);
        break;
      case Frontend::binary:
        kind = "binary";
        binary_requests.inc();
        co_await serve_binary(*work, scratch);
        break;
      case Frontend::text:
        text_requests.inc();
        co_await serve_text(*work, scratch);
        break;
    }
    if (work->request.bytes.block) {
      // rmclint:allow(zeroalloc): the free list grows to the wide requests in flight once
      free_blocks_.push_back(std::move(work->request.bytes.block));
    }
    if (obs::tracer().enabled()) {
      obs::tracer().complete(dequeued_at, sched_->now() - dequeued_at,
                             // rmclint:allow(zeroalloc): tracing-only label, gated by tracer().enabled() above
                             "mc:" + host_->name() + "/w" + std::to_string(index), kind,
                             "mc");
    }
  }
}

Outcome Server::execute(const StoreOp& op, std::string_view key,
                        std::span<const std::byte> value) {
  advance_clock();
  Outcome out;
  switch (op.verb) {
    case StoreOp::Verb::none: break;
    case StoreOp::Verb::get:
      out.item = store_.get_pinned(key);
      if (out.item == nullptr) out.error = Errc::not_found;
      break;
    case StoreOp::Verb::store: {
      auto stored = store_.store(op.mode, key, value, op.flags, op.exptime, op.cas);
      if (stored.ok()) {
        out.cas = (*stored)->cas;
      } else {
        out.error = stored.error();
      }
      break;
    }
    case StoreOp::Verb::del:
      if (!store_.del(key)) out.error = Errc::not_found;
      break;
    case StoreOp::Verb::arith: {
      auto result = store_.arith(key, op.delta, op.decrement);
      if (result.ok()) {
        out.number = *result;
      } else {
        out.error = result.error();
      }
      break;
    }
    case StoreOp::Verb::touch:
      if (!store_.touch(key, op.exptime)) out.error = Errc::not_found;
      break;
    case StoreOp::Verb::flush_all: schedule_flush(op.exptime); break;
  }
  return out;
}

void Server::pin_all(std::span<const std::byte> keys, std::vector<ItemHeader*>& items) {
  items.clear();
  MgetKeyReader reader{keys.data(), keys.size()};
  std::string_view key;
  while (reader.next(key)) {
    // rmclint:allow(zeroalloc): reusable per-worker scratch; capacity reaches its high-water mark at warmup
    items.push_back(store_.get_pinned(key));
  }
}

sim::Task<> Server::serve_text(Work& work, WorkerScratch& scratch) {
  const Request& req = work.request;
  const auto command = static_cast<proto::Command>(req.command);

  if (command == proto::Command::get || command == proto::Command::gets) {
    // One pinned pass over the keys, then VALUE lines rendered straight
    // from the slab into the worker's reusable scratch buffer — no
    // Response, no per-request value copies on the heap.
    const sim::Time exec_start = sched_->now();
    co_await host_->cpu().consume(McCosts::op_base_ns);
    advance_clock();
    std::size_t value_bytes = 0;
    {
      obs::ProfScope prof{kProfExecute};
      pin_all(req.bytes.keys(), scratch.items);
      for (const ItemHeader* item : scratch.items) {
        if (item != nullptr) value_bytes += item->value().size();
      }
    }
    stage_execute_->record(sched_->now() - exec_start);

    const sim::Time format_start = sched_->now();
    co_await host_->cpu().consume(
        charge(McCosts::format_base_ns, value_bytes, McCosts::value_copy_ns_per_byte));
    const bool with_cas = command == proto::Command::gets;
    {
      obs::ProfScope prof{kProfFormat};
      scratch.out.clear();
      for (ItemHeader* item : scratch.items) {
        if (item == nullptr) continue;
        proto::append_bytes(scratch.out, "VALUE ");
        proto::append_bytes(scratch.out, item->key());
        proto::append_bytes(scratch.out, " ");
        proto::append_u64(scratch.out, item->flags);
        proto::append_bytes(scratch.out, " ");
        proto::append_u64(scratch.out, item->value().size());
        if (with_cas) {
          proto::append_bytes(scratch.out, " ");
          proto::append_u64(scratch.out, item->cas);
        }
        proto::append_bytes(scratch.out, "\r\n");
        // rmclint:allow(zeroalloc): reusable per-worker scratch; capacity reaches its high-water mark at warmup
        scratch.out.insert(scratch.out.end(), item->value().begin(), item->value().end());
        proto::append_bytes(scratch.out, "\r\n");
      }
      proto::append_bytes(scratch.out, "END\r\n");
      for (ItemHeader* item : scratch.items) {
        if (item != nullptr) store_.release(item);
      }
      scratch.items.clear();
    }
    stage_format_->record(sched_->now() - format_start);
    bytes_written_ += scratch.out.size();
    (void)co_await work.socket->send(scratch.out);
    co_return;
  }

  const sim::Time exec_start = sched_->now();
  co_await host_->cpu().consume(
      charge(McCosts::op_base_ns, req.bytes.value().size(), McCosts::value_copy_ns_per_byte));
  proto::Response resp;
  std::string stats;  // the stats reply's message
  {
    obs::ProfScope prof{kProfExecute};
    switch (command) {
      case proto::Command::stats:
        stats = render_stats();
        resp.type = proto::Response::Type::stats;
        resp.message = stats;
        break;
      case proto::Command::version:
        resp.type = proto::Response::Type::version;
        resp.message = kVersion;
        break;
      case proto::Command::quit: break;
      default:
        resp = text_reply(command, execute(req.op, req.bytes.first(), req.bytes.value()));
        break;
    }
  }
  stage_execute_->record(sched_->now() - exec_start);

  if (command == proto::Command::quit) {
    work.socket->close();
    co_return;
  }
  if (req.noreply) co_return;

  const sim::Time format_start = sched_->now();
  co_await host_->cpu().consume(McCosts::format_base_ns);
  {
    obs::ProfScope prof{kProfFormat};
    scratch.out.clear();
    proto::encode_response(resp, scratch.out);
  }
  stage_format_->record(sched_->now() - format_start);
  bytes_written_ += scratch.out.size();
  (void)co_await work.socket->send(scratch.out);
}

sim::Task<> Server::serve_binary(Work& work, WorkerScratch& scratch) {
  using bproto::BStatus;
  using bproto::Opcode;
  const Request& req = work.request;
  const auto opcode = static_cast<Opcode>(req.command);
  const sim::Time exec_start = sched_->now();
  co_await host_->cpu().consume(
      charge(McCosts::op_base_ns, req.bytes.value().size(), McCosts::value_copy_ns_per_byte));

  bproto::Response resp;
  resp.opcode = opcode;
  resp.opaque = static_cast<std::uint32_t>(req.tag);
  bool reply = true;
  ItemHeader* hit = nullptr;  // pinned until the reply holds its value
  {
    obs::ProfScope exec_prof{kProfExecute};
    switch (opcode) {
      case Opcode::noop:
      case Opcode::stat:  // minimal stat support: the empty-key terminator packet
        break;
      case Opcode::version:
        resp.value = std::as_bytes(std::span(kVersion));
        break;
      case Opcode::quit:
        work.socket->close();
        co_return;
      default: {
        if (req.error != Errc::ok) {
          resp.status = BStatus::invalid_arguments;  // an overlong key
          break;
        }
        if (req.op.verb == StoreOp::Verb::none) {
          resp.status = BStatus::unknown_command;
          break;
        }
        const std::string_view key = req.bytes.first();
        Outcome out = execute(req.op, key, req.bytes.value());
        if (out.error == Errc::not_found && req.op.verb == StoreOp::Verb::arith &&
            req.op.exptime != 0xffffffffu) {
          // Binary-only semantics: a miss seeds the counter with `initial`.
          // rmclint:allow(zeroalloc): binary incr-miss seeding path (rare); not the steady-state GET path
          const std::string seed = std::to_string(req.initial);
          (void)execute({.verb = StoreOp::Verb::store, .exptime = req.op.exptime}, key,
                        std::as_bytes(std::span(seed)));
          out = {.number = req.initial};
        }
        resp.status = binary_status(opcode, out.error);
        resp.cas = out.cas;
        resp.number = out.number;
        if (out.item != nullptr) {
          hit = out.item;
          resp.flags = hit->flags;
          resp.cas = hit->cas;
          resp.value = hit->value();
          if (opcode == Opcode::getk || opcode == Opcode::getkq) resp.key = key;
        } else if (out.error == Errc::not_found && bproto::is_quiet(opcode)) {
          reply = false;  // quiet miss: say nothing (pipelined multiget)
        }
        break;
      }
    }
  }
  if (reply) {
    // Rendered now, while the hit is pinned; sent after the format charge.
    obs::ProfScope prof{kProfFormat};
    scratch.out.clear();
    bproto::encode_response(resp, scratch.out);
  }
  if (hit != nullptr) store_.release(hit);

  stage_execute_->record(sched_->now() - exec_start);
  if (!reply) co_return;
  const sim::Time format_start = sched_->now();
  co_await host_->cpu().consume(McCosts::format_base_ns / 2);
  stage_format_->record(sched_->now() - format_start);
  bytes_written_ += scratch.out.size();
  (void)co_await work.socket->send(scratch.out);
}

// --------------------------------------------------------- UCR frontend

void Server::attach_ucr_frontend(ucr::Runtime& runtime) {
  ucr_runtime_ = &runtime;
  register_new_slab_pages();

  runtime.register_handler(
      ucrp::kMsgRequest,
      {.on_header =
           [this](ucr::Endpoint& ep, std::span<const std::byte> header,
                  std::uint32_t data_len) -> std::span<std::byte> {
             // SET-family values get their destination named here: the
             // final slab location of the item (§V-B). A request that fails
             // the check names none; its completion answers client_error.
             ucrp::RequestView req;
             if (ucrp::parse_request(header, req) != ucrp::RequestCheck::ok ||
                 !ucrp::is_storage(req.header.op) || data_len == 0) {
               return {};
             }
             advance_clock();
             auto* state = static_cast<UcrConnState*>(ep.user_data());
             if (state == nullptr) return {};  // connection already reaped
             auto item =
                 store_.allocate_item(req.key, data_len, req.header.flags, req.header.exptime);
             if (item.ok()) register_new_slab_pages();
             // A failure is remembered too, so the completion path answers
             // the store's error instead of the client timing out.
             // rmclint:allow(zeroalloc): grows to the most SETs in flight, then reuses capacity
             state->pending_sets.push_back(
                 {req.header.req_id, item.ok() ? *item : nullptr, item.error()});
             return item.ok() ? (*item)->value_mut() : std::span<std::byte>{};
           },
       .on_complete =
           [this](ucr::Endpoint& ep, std::span<const std::byte> header,
                  std::span<std::byte> data) {
             bytes_read_ += header.size() + data.size();
             ucrp::RequestView req;
             switch (ucrp::parse_request(header, req)) {
               case ucrp::RequestCheck::short_header:
                 return;  // no req_id or reply counter: no reply can be addressed
               case ucrp::RequestCheck::bad_key:
                 ucr_reply(ep,
                           {.status = ucrp::RStatus::client_error, .req_id = req.header.req_id},
                           nullptr, req.header.reply_counter);
                 return;
               case ucrp::RequestCheck::ok:
                 break;
             }
             auto* state = static_cast<UcrConnState*>(ep.user_data());
             if (state == nullptr) return;  // connection already reaped
             Work work;
             work.frontend = Frontend::ucr;
             work.ep = &ep;
             work.reply_counter = req.header.reply_counter;
             Request& request = work.request;
             request.command = static_cast<std::uint8_t>(req.header.op);
             request.op = ucr_op(req.header);
             request.tag = req.header.req_id;
             // The receive slot is reposted before the worker runs, so the
             // keys are copied out. An mget's key is the packed key block.
             const auto key = std::as_bytes(std::span(req.key));
             if (req.header.op == ucrp::Op::mget) {
               std::memcpy(carry(request, key.size()), key.data(), key.size());
             } else {
               pack_mget_key(carry(request, mget_entry_size(req.key)), req.key);
             }
             auto& pending = state->pending_sets;
             if (auto it = std::find_if(pending.begin(), pending.end(),
                                        [&](const UcrConnState::PendingSet& p) {
                                          return p.req_id == req.header.req_id;
                                        });
                 it != pending.end()) {
               request.prepared_item = it->item;
               request.error = it->error;
               pending.erase(it);
             }
             // Same worker for all requests of this endpoint (§V-A).
             enqueue_work(state->worker, std::move(work));
           }});

  runtime.listen(config_.port, [this](ucr::Endpoint& ep) {
    ++total_connections_;
    obs::registry().counter("mc.server.connections").inc();
    // rmclint:allow(zeroalloc): connection setup, once per accepted endpoint
    auto state = std::make_unique<UcrConnState>();
    state->worker = next_worker_++ % worker_queues_.size();
    ep.set_user_data(state.get());
    // rmclint:allow(zeroalloc): connection setup, once per accepted endpoint
    ucr_conns_.push_back(std::move(state));
  });

  // Reap per-connection state when a client endpoint dies: abandon
  // half-arrived SET values (their slab chunks go back to the free lists)
  // and drop the UcrConnState before the endpoint storage is reclaimed.
  ucr_down_handler_ = runtime.on_endpoint_down([this](ucr::Endpoint& ep, Errc) {
    auto* state = static_cast<UcrConnState*>(ep.user_data());
    if (state == nullptr) return;
    // Abandon in req_id order, which the slab free list sees. A req_id is
    // the client's slot-map key, so this is not always arrival order.
    auto& pending = state->pending_sets;
    std::sort(pending.begin(), pending.end(),
              [](const UcrConnState::PendingSet& a, const UcrConnState::PendingSet& b) {
                return a.req_id < b.req_id;
              });
    for (const UcrConnState::PendingSet& p : pending) {
      if (p.item != nullptr) store_.abandon_item(p.item);
    }
    pending.clear();
    ep.set_user_data(nullptr);
    std::erase_if(ucr_conns_, [state](const std::unique_ptr<UcrConnState>& p) {
      return p.get() == state;
    });
    obs::registry().counter("mc.server.conns_reaped").inc();
  });
}

void Server::register_new_slab_pages() {
  if (!ucr_runtime_) return;
  for (auto [base, len] : store_.slabs().take_new_pages()) {
    ucr_runtime_->register_region({base, len});
  }
}

void Server::ucr_reply(ucr::Endpoint& ep, const ucrp::ResponseHeader& header,
                       ItemHeader* pinned_item, std::uint64_t reply_counter) {
  std::byte hdr[ucrp::ResponseHeader::kSize];
  header.encode(hdr);
  if (pinned_item == nullptr) {
    bytes_written_ += sizeof(hdr);
    (void)ucr_runtime_->send_message(ep, ucrp::kMsgResponse, hdr, {}, nullptr,
                                     ucr::CounterRef{reply_counter}, nullptr);
    return;
  }
  const std::span<const std::byte> data = pinned_item->value();
  bytes_written_ += sizeof(hdr) + data.size();
  Status sent;
  if (ucr::wire::AmWire::kSize + sizeof(hdr) + data.size() <=
      ucr_runtime_->config().eager_limit) {
    // Eager responses copy the value out synchronously inside
    // send_message (into a staging slot or the backlog), so the item can
    // be unpinned right away — no completion counter, no tracking task.
    sent = ucr_runtime_->send_message(ep, ucrp::kMsgResponse, hdr, data, nullptr,
                                      ucr::CounterRef{reply_counter}, nullptr);
    store_.release(pinned_item);
  } else {
    sent = send_pinned(ep, hdr, pinned_item, reply_counter);
  }
  // A UD endpoint and a value too large for a datagram (§VII UD mode
  // serves small items only): answer an error header instead of leaving
  // the client to time out.
  if (!sent.ok()) ucr_error(ep, header, reply_counter);
}

Status Server::send_pinned(ucr::Endpoint& ep, std::span<const std::byte> header,
                           ItemHeader* item, std::uint64_t reply_counter) {
  // The origin counter fires once the client's RDMA Read has the value. A
  // counter only grows, so a recycled one is awaited one past its value.
  if (spare_counters_.empty()) {
    // rmclint:allow(zeroalloc): one counter per rendezvous reply in flight, made once; finished replies hand theirs back
    spare_counters_.push_back(std::make_unique<sim::Counter>(*sched_));
  }
  sim::Counter& counter = *spare_counters_.back();
  const std::uint64_t target = counter.value() + 1;
  const Status sent = ucr_runtime_->send_message(ep, ucrp::kMsgResponse, header, item->value(),
                                                 &counter, ucr::CounterRef{reply_counter},
                                                 nullptr);
  if (!sent.ok()) {
    store_.release(item);
    return sent;  // the counter stays on the free list
  }
  std::unique_ptr<sim::Counter> taken = std::move(spare_counters_.back());
  spare_counters_.pop_back();
  sched_->spawn([](Server& server, ItemHeader* pinned, std::unique_ptr<sim::Counter> done,
                   std::uint64_t read_at) -> sim::Task<> {
    // The Read's ack wakes this wait, or the endpoint's failure does after
    // erasing the send's record: either way no later add can follow.
    co_await done->wait_geq(read_at);
    // rmclint:allow(coro-lifetime): the Server owns store_ and the free list
    // and outlives every send it made; `pinned` is refcount-pinned until
    // this release.
    server.store_.release(pinned);
    // rmclint:allow(zeroalloc): the free list grows to the rendezvous replies in flight once
    server.spare_counters_.push_back(std::move(done));
  }(*this, item, std::move(taken), target));
  return sent;
}

void Server::ucr_error(ucr::Endpoint& ep, ucrp::ResponseHeader header,
                       std::uint64_t reply_counter) {
  header.status = ucrp::RStatus::server_error;
  std::byte hdr[ucrp::ResponseHeader::kSize];
  header.encode(hdr);
  (void)ucr_runtime_->send_message(ep, ucrp::kMsgResponse, hdr, {}, nullptr,
                                   ucr::CounterRef{reply_counter}, nullptr);
}

sim::Task<> Server::serve_ucr_mget(Work& work, WorkerScratch& scratch) {
  const std::uint64_t req_id = work.request.tag;
  const std::uint64_t reply_counter = work.reply_counter;
  ucr::Endpoint& ep = *work.ep;

  // Parse: AM decode plus one scan of the packed key block.
  const sim::Time parse_start = sched_->now();
  co_await host_->cpu().consume(
      charge(McCosts::ucr_request_ns, work.request.bytes.size, McCosts::parse_ns_per_byte));
  stage_parse_->record(sched_->now() - parse_start);

  // Execute: ONE pass over the hashtable pinning every hit — the batch
  // pays op_base_ns once, exactly like the socket path's multi-key GET.
  const sim::Time exec_start = sched_->now();
  co_await host_->cpu().consume(McCosts::op_base_ns);
  advance_clock();
  {
    obs::ProfScope prof{kProfExecute};
    pin_all(work.request.bytes.keys(), scratch.items);
  }
  const auto n = static_cast<std::uint32_t>(scratch.items.size());
  mget_batch_->record(n);
  stage_execute_->record(sched_->now() - exec_start);

  // Format: plan the chunking, then emit one scatter-gather AM per chunk.
  // Every chunk bumps the client's reply counter by one; the chunk header
  // carries total_chunks so the client knows when the reply is whole.
  std::size_t frame = ucr_runtime_->config().eager_limit;
  if (ep.type() == ucr::EpType::unreliable) {
    // UD datagrams cannot exceed the MTU and cannot rendezvous (§VII).
    frame = std::min<std::size_t>(frame, verbs::kUdMtu);
  }
  constexpr std::size_t kMaxRecordsPerChunk = 256;
  const std::size_t fixed = ucr::wire::AmWire::kSize + ucrp::ResponseHeader::kSize +
                            ucrp::MgetChunkHeader::kSize;
  const std::size_t budget = frame > fixed ? frame - fixed : 0;

  const sim::Time format_start = sched_->now();
  std::size_t eager_bytes = 0;  // gathered (copied) value bytes, for the CPU charge
  {
    obs::ProfScope prof{kProfFormat};
    scratch.mget_chunks.clear();
    std::uint32_t start = 0;
    while (start < n) {
      std::size_t used = 0;
      std::uint32_t count = 0;
      while (start + count < n && count < kMaxRecordsPerChunk) {
        ItemHeader* item = scratch.items[start + count];
        const std::size_t need =
            ucrp::MgetRecord::kSize + (item ? item->value().size() : 0);
        if (count > 0 && used + need > budget) break;
        used += need;
        ++count;
        // A value too large for an empty eager chunk becomes its own
        // single-record chunk, answered rendezvous (zero-copy slab read).
        if (used > budget) break;
      }
      if (used <= budget) {
        eager_bytes += used - count * ucrp::MgetRecord::kSize;
      }
      // rmclint:allow(zeroalloc): reusable per-worker scratch; capacity reaches its high-water mark at warmup
      scratch.mget_chunks.push_back({start, count});
      start += count;
    }
    if (scratch.mget_chunks.empty()) {
      // Empty key list: still answer one (empty) chunk so the client's
      // reply counter fires.
      // rmclint:allow(zeroalloc): reusable per-worker scratch; capacity reaches its high-water mark at warmup
      scratch.mget_chunks.push_back({0, 0});
    }
  }
  co_await host_->cpu().consume(
      charge(McCosts::format_base_ns, eager_bytes, McCosts::value_copy_ns_per_byte));
  {
    obs::ProfScope prof{kProfFormat};
    const auto total = static_cast<std::uint32_t>(scratch.mget_chunks.size());
    std::byte hdr[ucrp::ResponseHeader::kSize + ucrp::MgetChunkHeader::kSize +
                  kMaxRecordsPerChunk * ucrp::MgetRecord::kSize];
    bool failed = false;
    // All chunks of one reply ride a single doorbell.
    ucr_runtime_->begin_send_batch();
    for (std::uint32_t ci = 0; ci < total; ++ci) {
      const auto [start, count] = scratch.mget_chunks[ci];
      if (failed) {
        // A previous chunk could not be sent; just unpin the rest.
        for (std::uint32_t i = 0; i < count; ++i) {
          if (ItemHeader* item = scratch.items[start + i]) store_.release(item);
        }
        continue;
      }
      ucrp::ResponseHeader resp;
      resp.status = ucrp::RStatus::value;
      resp.req_id = req_id;
      resp.encode(hdr);
      const ucrp::MgetChunkHeader chunk{start, count, total, n};
      chunk.encode(hdr + ucrp::ResponseHeader::kSize);
      std::size_t ho = ucrp::ResponseHeader::kSize + ucrp::MgetChunkHeader::kSize;
      std::size_t data_bytes = 0;
      for (std::uint32_t i = 0; i < count; ++i) {
        ItemHeader* item = scratch.items[start + i];
        ucrp::MgetRecord rec;
        if (item) {
          rec.status = ucrp::RStatus::value;
          rec.flags = item->flags;
          rec.cas = item->cas;
          rec.value_len = static_cast<std::uint32_t>(item->value().size());
          data_bytes += item->value().size();
        }
        rec.encode(hdr + ho);
        ho += ucrp::MgetRecord::kSize;
      }
      ItemHeader* single = count == 1 ? scratch.items[start] : nullptr;
      if (ucr::wire::AmWire::kSize + ho + data_bytes > frame && single != nullptr &&
          ep.type() != ucr::EpType::unreliable) {
        // Oversized single value: rendezvous straight out of the slab —
        // the client RDMA-reads it, the origin counter unpins it.
        bytes_written_ += ho + single->value().size();
        if (!send_pinned(ep, {hdr, ho}, single, reply_counter).ok()) failed = true;
        continue;
      }
      if (ucr::wire::AmWire::kSize + ho + data_bytes > frame && single != nullptr) {
        // UD endpoint, value larger than a datagram: answer the record as
        // a server error instead of leaving the client to time out.
        ucrp::MgetRecord rec;
        rec.status = ucrp::RStatus::server_error;
        rec.encode(hdr + ucrp::ResponseHeader::kSize + ucrp::MgetChunkHeader::kSize);
        data_bytes = 0;
        store_.release(single);
        scratch.items[start] = nullptr;
      }
      // Eager chunk: gather the hit values into the worker's scratch and
      // let send_message copy them out synchronously — the items can be
      // unpinned as soon as it returns.
      scratch.out.clear();
      for (std::uint32_t i = 0; i < count && data_bytes > 0; ++i) {
        ItemHeader* item = scratch.items[start + i];
        if (!item) continue;
        // rmclint:allow(zeroalloc): reusable per-worker scratch; capacity reaches its high-water mark at warmup
        scratch.out.insert(scratch.out.end(), item->value().begin(), item->value().end());
      }
      const Status sent = ucr_runtime_->send_message(
          ep, ucrp::kMsgResponse, std::span<const std::byte>{hdr, ho}, scratch.out,
          nullptr, ucr::CounterRef{reply_counter}, nullptr);
      bytes_written_ += ho + scratch.out.size();
      for (std::uint32_t i = 0; i < count; ++i) {
        if (ItemHeader* item = scratch.items[start + i]) store_.release(item);
      }
      if (!sent.ok()) failed = true;
    }
    ucr_runtime_->end_send_batch();
    if (failed) {
      // Chunks went missing; answer a bare error header (no chunk header)
      // so the client fails the whole request fast instead of timing out.
      ucr_error(ep, {.req_id = req_id}, reply_counter);
    }
    scratch.items.clear();
  }
  stage_format_->record(sched_->now() - format_start);
  co_return;
}

sim::Task<> Server::serve_ucr(Work& work, WorkerScratch& scratch) {
  Request& req = work.request;
  const auto op = static_cast<ucrp::Op>(req.command);
  if (op == ucrp::Op::mget) {
    co_await serve_ucr_mget(work, scratch);
    co_return;
  }
  // Stage split: the AM-header decode is the UCR path's "parse", the store
  // operation is its "execute".
  const sim::Time parse_start = sched_->now();
  co_await host_->cpu().consume(McCosts::ucr_request_ns);
  stage_parse_->record(sched_->now() - parse_start);
  const sim::Time exec_start = sched_->now();
  co_await host_->cpu().consume(McCosts::op_base_ns);
  advance_clock();

  Outcome out{.error = req.error};  // a SET whose value never had a home
  {
    obs::ProfScope exec_prof{kProfExecute};
    if (req.prepared_item != nullptr && op == ucrp::Op::set) {
      // Fast path: the value already sits in its slab chunk; link it.
      store_.commit_item(req.prepared_item);
    } else if (req.error == Errc::ok) {
      std::span<const std::byte> value{};
      if (req.prepared_item != nullptr) value = req.prepared_item->value();
      out = execute(req.op, req.bytes.first(), value);
      if (req.prepared_item != nullptr) store_.abandon_item(req.prepared_item);
    }
  }

  stage_execute_->record(sched_->now() - exec_start);
  const sim::Time format_start = sched_->now();
  {
    obs::ProfScope prof{kProfFormat};
    ucr_reply(*work.ep, ucr_response(op, req.tag, out), out.item, work.reply_counter);
  }
  stage_format_->record(sched_->now() - format_start);
  co_return;
}

std::string Server::render_stats() const {
  const StoreStats& s = store_.stats();
  std::vector<std::pair<std::string, std::string>> stats;
  auto stat = [&](std::string name, std::uint64_t value) {
    // rmclint:allow(zeroalloc): STATS command assembly — an admin query, not the request fast path
    stats.emplace_back(std::move(name), std::to_string(value));
  };
  stat("uptime", sched_->now() / kNsPerSec);
  stat("total_connections", total_connections_);
  stat("bytes_read", bytes_read_);
  stat("bytes_written", bytes_written_);
  stat("cmd_get", s.cmd_get);
  stat("cmd_set", s.cmd_set);
  stat("get_hits", s.get_hits);
  stat("get_misses", s.get_misses);
  stat("delete_hits", s.delete_hits);
  stat("delete_misses", s.delete_misses);
  stat("incr_hits", s.incr_hits);
  stat("incr_misses", s.incr_misses);
  stat("cas_hits", s.cas_hits);
  stat("cas_misses", s.cas_misses);
  stat("cas_badval", s.cas_badval);
  stat("evictions", s.evictions);
  stat("expired_unfetched", s.expired_unfetched);
  stat("total_items", s.total_items);
  stat("curr_items", s.curr_items);
  stat("bytes", s.bytes);
  stat("limit_maxbytes", config_.store.slabs.memory_limit);
  stat("threads", config_.workers);
  // Surface the cross-layer metrics registry over the same protocol, as
  // real memcached does with its internal counters.
  obs::registry().for_each_stat([&](const std::string& name, std::string value) {
    // rmclint:allow(zeroalloc): STATS command assembly — an admin query, not the request fast path
    stats.emplace_back(name, std::move(value));
  });
  // Stable sort: fixed stats and registry entries interleave in a
  // deterministic, name-ordered stream.
  std::stable_sort(stats.begin(), stats.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::ostringstream out;
  for (const auto& [name, value] : stats) {
    out << "STAT " << name << " " << value << "\r\n";
  }
  return out.str();
}

}  // namespace rmc::mc
