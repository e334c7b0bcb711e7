// rmclint:hotpath — request fast path; zero-alloc rule enforced here
#include "memcached/server.hpp"

#include <algorithm>
#include <cassert>
#include <map>
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
}  // namespace

/// Per-UCR-connection state hung off the endpoint's user_data: items
/// allocated by SET header handlers, waiting for their value to arrive.
/// Ordered map: teardown iterates it to release the items, and release
/// order feeds the slab free list (sim-visible); req_ids are monotonic,
/// so iteration equals arrival order.
struct Server::UcrConnState {
  std::map<std::uint64_t, ItemHeader*> pending_sets;  // req_id -> item
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
    sched_->spawn(connection_loop(*socket, worker));
  }
}

sim::Task<> Server::connection_loop(sock::Socket& socket, std::size_t worker) {
  // Protocol auto-detection, as memcached 1.4 does on a shared port: a
  // first byte of 0x80 means the binary protocol.
  std::vector<std::byte> first(16 * 1024);
  // rmclint:allow(coro-lifetime): sockets are pool-owned by the NetStack; close()
  // only marks state, so the reference stays valid until stack teardown.
  auto n = co_await socket.recv(first);
  if (!n.ok() || *n == 0) {
    socket.close();
    co_return;
  }
  bytes_read_ += *n;
  const std::span<const std::byte> initial(first.data(), *n);
  if (first[0] == std::byte{bproto::kMagicRequest}) {
    co_await binary_loop(socket, worker, initial);
  } else {
    co_await text_loop(socket, worker, initial);
  }
}

sim::Task<> Server::text_loop(sock::Socket& socket, std::size_t worker,
                              std::span<const std::byte> initial) {
  proto::RequestParser parser;
  parser.feed(initial);
  bool first_pass = true;
  std::vector<std::byte> chunk(16 * 1024);
  while (true) {
    if (!first_pass) {
      auto n = co_await socket.recv(chunk);
      if (!n.ok() || *n == 0) {
        socket.close();
        co_return;
      }
      bytes_read_ += *n;
      parser.feed(std::span<const std::byte>(chunk.data(), *n));
    }
    first_pass = false;
    // libevent fired for this connection: dispatch cost.
    co_await host_->cpu().consume(config_.costs.event_dispatch_ns);
    while (true) {
      auto parsed = [&] {
        obs::ProfScope prof{kProfParse};
        return parser.next();
      }();
      if (!parsed.ok()) {
        // Garbage on the stream: memcached answers ERROR and closes.
        proto::Response error_resp;
        error_resp.type = proto::Response::Type::error;
        const auto bytes = proto::encode_response(error_resp, false);
        (void)co_await socket.send(bytes);
        socket.close();
        co_return;
      }
      if (!parsed->has_value()) break;
      proto::Request& request = **parsed;
      const sim::Time parse_start = sched_->now();
      co_await host_->cpu().consume(
          config_.costs.parse_base_ns +
          static_cast<sim::Time>(static_cast<double>(request.wire_bytes - request.data.size()) *
                                 config_.costs.parse_ns_per_byte));
      stage_parse_->record(sched_->now() - parse_start);
      const bool quit = request.command == proto::Command::quit;
      Work work;
      work.request = std::move(request);
      work.socket = &socket;
      enqueue_work(worker, std::move(work));
      if (quit) co_return;  // stop reading; worker closes after draining
    }
  }
}

sim::Task<> Server::binary_loop(sock::Socket& socket, std::size_t worker,
                                std::span<const std::byte> initial) {
  bproto::RequestParser parser;
  parser.feed(initial);
  bool first_pass = true;
  std::vector<std::byte> chunk(16 * 1024);
  while (true) {
    if (!first_pass) {
      auto n = co_await socket.recv(chunk);
      if (!n.ok() || *n == 0) {
        socket.close();
        co_return;
      }
      bytes_read_ += *n;
      parser.feed(std::span<const std::byte>(chunk.data(), *n));
    }
    first_pass = false;
    co_await host_->cpu().consume(config_.costs.event_dispatch_ns);
    while (true) {
      auto parsed = [&] {
        obs::ProfScope prof{kProfParse};
        return parser.next();
      }();
      if (!parsed.ok()) {
        socket.close();  // framing is broken; nothing sane to answer
        co_return;
      }
      if (!parsed->has_value()) break;
      // Binary framing needs no line scanning: flat parse cost.
      const sim::Time parse_start = sched_->now();
      co_await host_->cpu().consume(config_.costs.parse_base_ns / 2);
      stage_parse_->record(sched_->now() - parse_start);
      const bool quit = (*parsed)->opcode == bproto::Opcode::quit;
      Work work;
      work.is_binary = true;
      work.bin_request = std::move(**parsed);
      work.socket = &socket;
      enqueue_work(worker, std::move(work));
      if (quit) co_return;
    }
  }
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
    const char* kind;
    if (work->is_ucr) {
      kind = "ucr";
      ucr_requests.inc();
      co_await process_ucr(*work, scratch);
    } else if (work->is_binary) {
      kind = "binary";
      binary_requests.inc();
      co_await process_binary(*work);
    } else {
      kind = "text";
      text_requests.inc();
      co_await process_socket(*work, scratch);
    }
    if (obs::tracer().enabled()) {
      obs::tracer().complete(dequeued_at, sched_->now() - dequeued_at,
                             // rmclint:allow(zeroalloc): tracing-only label, gated by tracer().enabled() above
                             "mc:" + host_->name() + "/w" + std::to_string(index), kind,
                             "mc");
    }
  }
}

proto::Response Server::execute(const proto::Request& request) {
  advance_clock();
  using Type = proto::Response::Type;
  proto::Response resp;

  switch (request.command) {
    case proto::Command::get:
    case proto::Command::gets: {
      resp.type = Type::values;
      for (std::size_t i = 0; i < request.key_count(); ++i) {
        const std::string_view key = request.key_at(i);
        ItemHeader* item = store_.get(key);
        if (!item) continue;
        proto::Value v;
        v.key.assign(key.data(), key.size());
        v.flags = item->flags;
        v.cas = item->cas;
        v.data.assign(item->value().begin(), item->value().end());
        // rmclint:allow(zeroalloc): socket-transport response assembly — the measured-overhead baseline, off the PR 2 UCR budget
        resp.values.push_back(std::move(v));
      }
      return resp;
    }
    case proto::Command::set:
    case proto::Command::add:
    case proto::Command::replace:
    case proto::Command::append:
    case proto::Command::prepend:
    case proto::Command::cas: {
      SetMode mode = SetMode::set;
      switch (request.command) {
        case proto::Command::add: mode = SetMode::add; break;
        case proto::Command::replace: mode = SetMode::replace; break;
        case proto::Command::append: mode = SetMode::append; break;
        case proto::Command::prepend: mode = SetMode::prepend; break;
        case proto::Command::cas: mode = SetMode::cas; break;
        default: break;
      }
      auto stored = store_.store(mode, request.key(), request.data, request.flags,
                                 request.exptime, request.cas_unique);
      if (stored.ok()) {
        resp.type = Type::stored;
      } else {
        switch (stored.error()) {
          case Errc::not_stored: resp.type = Type::not_stored; break;
          case Errc::exists: resp.type = Type::exists; break;
          case Errc::not_found: resp.type = Type::not_found; break;
          case Errc::too_large:
            resp.type = Type::server_error;
            resp.message = "object too large for cache";
            break;
          case Errc::invalid_argument:
            resp.type = Type::client_error;
            resp.message = "bad command line format";
            break;
          default:
            resp.type = Type::server_error;
            resp.message = "out of memory storing object";
            break;
        }
      }
      return resp;
    }
    case proto::Command::del:
      resp.type = store_.del(request.key()) ? Type::deleted : Type::not_found;
      return resp;
    case proto::Command::incr:
    case proto::Command::decr: {
      auto result =
          store_.arith(request.key(), request.delta, request.command == proto::Command::decr);
      if (result.ok()) {
        resp.type = Type::number;
        resp.number = *result;
      } else if (result.error() == Errc::not_found) {
        resp.type = Type::not_found;
      } else {
        resp.type = Type::client_error;
        resp.message = "cannot increment or decrement non-numeric value";
      }
      return resp;
    }
    case proto::Command::touch:
      resp.type = store_.touch(request.key(), request.exptime) ? Type::touched : Type::not_found;
      return resp;
    case proto::Command::flush_all:
      schedule_flush(request.exptime);
      resp.type = Type::ok;
      return resp;
    case proto::Command::stats:
      resp.type = Type::stats;
      resp.message = render_stats();
      return resp;
    case proto::Command::version:
      resp.type = Type::version;
      resp.message = "1.4.5-rmc";
      return resp;
    case proto::Command::quit:
      resp.type = Type::ok;
      return resp;
  }
  resp.type = Type::error;
  return resp;
}

sim::Task<> Server::process_socket(Work& work, WorkerScratch& scratch) {
  const proto::Request& request = work.request;

  if (request.command == proto::Command::get || request.command == proto::Command::gets) {
    // GET fast path: pin matching items, render VALUE lines straight from
    // the slab into the worker's reusable scratch buffer — no Response, no
    // per-request value copies on the heap. Charged costs and emitted
    // bytes are identical to the generic path.
    const sim::Time exec_start = sched_->now();
    co_await host_->cpu().consume(config_.costs.op_base_ns);
    advance_clock();
    std::size_t value_bytes = 0;
    {
      obs::ProfScope prof{kProfExecute};
      scratch.items.clear();
      for (std::size_t i = 0; i < request.key_count(); ++i) {
        ItemHeader* item = store_.get_pinned(request.key_at(i));
        if (!item) continue;
        // rmclint:allow(zeroalloc): reusable per-worker scratch; capacity reaches its high-water mark at warmup
        scratch.items.push_back(item);
        value_bytes += item->value().size();
      }
    }
    stage_execute_->record(sched_->now() - exec_start);

    const sim::Time format_start = sched_->now();
    co_await host_->cpu().consume(
        config_.costs.format_base_ns +
        static_cast<sim::Time>(static_cast<double>(value_bytes) *
                               config_.costs.value_copy_ns_per_byte));
    const bool with_cas = request.command == proto::Command::gets;
    {
      obs::ProfScope prof{kProfFormat};
      scratch.out.clear();
      for (ItemHeader* item : scratch.items) {
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
      for (ItemHeader* item : scratch.items) store_.release(item);
      scratch.items.clear();
    }
    stage_format_->record(sched_->now() - format_start);
    bytes_written_ += scratch.out.size();
    (void)co_await work.socket->send(scratch.out);
    co_return;
  }

  const sim::Time exec_start = sched_->now();
  co_await host_->cpu().consume(
      config_.costs.op_base_ns +
      static_cast<sim::Time>(static_cast<double>(request.data.size()) *
                             config_.costs.value_copy_ns_per_byte));
  proto::Response resp;
  {
    obs::ProfScope prof{kProfExecute};
    resp = execute(request);
  }
  stage_execute_->record(sched_->now() - exec_start);

  if (request.command == proto::Command::quit) {
    work.socket->close();
    co_return;
  }
  if (request.noreply) co_return;

  std::size_t value_bytes = 0;
  for (const auto& v : resp.values) value_bytes += v.data.size();
  const sim::Time format_start = sched_->now();
  co_await host_->cpu().consume(
      config_.costs.format_base_ns +
      static_cast<sim::Time>(static_cast<double>(value_bytes) *
                             config_.costs.value_copy_ns_per_byte));

  const bool with_cas = request.command == proto::Command::gets;
  {
    obs::ProfScope prof{kProfFormat};
    scratch.out.clear();
    proto::encode_response_into(resp, with_cas, scratch.out);
  }
  stage_format_->record(sched_->now() - format_start);
  bytes_written_ += scratch.out.size();
  (void)co_await work.socket->send(scratch.out);
}


sim::Task<> Server::process_binary(Work& work) {
  using bproto::BStatus;
  using bproto::Opcode;
  const bproto::Request& req = work.bin_request;
  const sim::Time exec_start = sched_->now();
  co_await host_->cpu().consume(
      config_.costs.op_base_ns +
      static_cast<sim::Time>(static_cast<double>(req.value.size()) *
                             config_.costs.value_copy_ns_per_byte));
  advance_clock();

  bproto::Response resp;
  resp.opcode = req.opcode;
  resp.opaque = req.opaque;
  bool reply = true;

  {
  obs::ProfScope exec_prof{kProfExecute};
  switch (req.opcode) {
    case Opcode::get:
    case Opcode::getq:
    case Opcode::getk:
    case Opcode::getkq: {
      ItemHeader* item = store_.get(req.key);
      if (!item) {
        if (bproto::is_quiet(req.opcode)) {
          reply = false;  // quiet miss: say nothing (pipelined multiget)
        } else {
          resp.status = BStatus::key_not_found;
        }
        break;
      }
      resp.status = BStatus::ok;
      resp.flags = item->flags;
      resp.cas = item->cas;
      resp.value.assign(item->value().begin(), item->value().end());
      if (req.opcode == Opcode::getk || req.opcode == Opcode::getkq) resp.key = req.key;
      break;
    }
    case Opcode::set:
    case Opcode::add:
    case Opcode::replace: {
      SetMode mode = SetMode::set;
      if (req.opcode == Opcode::add) mode = SetMode::add;
      if (req.opcode == Opcode::replace) mode = SetMode::replace;
      // A non-zero CAS on a binary set means compare-and-swap.
      if (req.cas != 0) mode = SetMode::cas;
      auto stored = store_.store(mode, req.key, req.value, req.flags, req.exptime, req.cas);
      if (stored.ok()) {
        resp.status = BStatus::ok;
        resp.cas = (*stored)->cas;
      } else {
        switch (stored.error()) {
          case Errc::not_stored:
            // Binary protocol distinguishes add-exists from replace-miss.
            resp.status = req.opcode == Opcode::add ? BStatus::key_exists
                                                    : BStatus::key_not_found;
            break;
          case Errc::exists: resp.status = BStatus::key_exists; break;
          case Errc::not_found: resp.status = BStatus::key_not_found; break;
          case Errc::too_large: resp.status = BStatus::value_too_large; break;
          case Errc::invalid_argument: resp.status = BStatus::invalid_arguments; break;
          default: resp.status = BStatus::out_of_memory; break;
        }
      }
      break;
    }
    case Opcode::append:
    case Opcode::prepend: {
      const SetMode mode = req.opcode == Opcode::append ? SetMode::append : SetMode::prepend;
      auto stored = store_.store(mode, req.key, req.value, 0, 0);
      if (stored.ok()) {
        resp.status = BStatus::ok;
        resp.cas = (*stored)->cas;
      } else {
        resp.status = BStatus::not_stored;
      }
      break;
    }
    case Opcode::del:
      resp.status = store_.del(req.key) ? BStatus::ok : BStatus::key_not_found;
      break;
    case Opcode::increment:
    case Opcode::decrement: {
      auto result = store_.arith(req.key, req.delta, req.opcode == Opcode::decrement);
      if (result.ok()) {
        resp.status = BStatus::ok;
        resp.number = *result;
      } else if (result.error() == Errc::not_found) {
        if (req.arith_exptime != 0xffffffffu) {
          // Binary-only semantics: seed the counter with `initial`.
          // rmclint:allow(zeroalloc): binary incr-miss seeding path (rare); not the steady-state GET path
          const std::string text = std::to_string(req.initial);
          (void)store_.store(SetMode::set, req.key,
                             {reinterpret_cast<const std::byte*>(text.data()), text.size()},
                             0, req.arith_exptime);
          resp.status = BStatus::ok;
          resp.number = req.initial;
        } else {
          resp.status = BStatus::key_not_found;
        }
      } else {
        resp.status = BStatus::delta_badval;
      }
      break;
    }
    case Opcode::touch:
      resp.status =
          store_.touch(req.key, req.exptime) ? BStatus::ok : BStatus::key_not_found;
      break;
    case Opcode::flush:
      schedule_flush(req.exptime);
      resp.status = BStatus::ok;
      break;
    case Opcode::noop:
      resp.status = BStatus::ok;
      break;
    case Opcode::version: {
      static constexpr char kVersion[] = "1.4.5-rmc";
      resp.status = BStatus::ok;
      resp.value.assign(reinterpret_cast<const std::byte*>(kVersion),
                        reinterpret_cast<const std::byte*>(kVersion) + sizeof(kVersion) - 1);
      break;
    }
    case Opcode::stat:
      // Minimal stat support: the empty-key terminator packet.
      resp.status = BStatus::ok;
      break;
    case Opcode::quit:
      work.socket->close();
      co_return;
    default:
      resp.status = BStatus::unknown_command;
      break;
  }
  }

  stage_execute_->record(sched_->now() - exec_start);
  if (!reply) co_return;
  const sim::Time format_start = sched_->now();
  co_await host_->cpu().consume(config_.costs.format_base_ns / 2);
  const auto bytes = [&] {
    obs::ProfScope prof{kProfFormat};
    return bproto::encode_response(resp);
  }();
  stage_format_->record(sched_->now() - format_start);
  bytes_written_ += bytes.size();
  (void)co_await work.socket->send(bytes);
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
             if (!item.ok()) {
               // Remember the failure so the completion path can answer
               // with an error instead of the client timing out.
               state->pending_sets[req.header.req_id] = nullptr;
               return {};
             }
             register_new_slab_pages();
             state->pending_sets[req.header.req_id] = *item;
             return (*item)->value_mut();
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
             Work work;
             work.is_ucr = true;
             work.ep = &ep;
             work.ucr_header = req.header;
             if (req.header.op == ucrp::Op::mget) {
               // Multiget: the key is the packed key block. Copy it into the
               // Work's inline carrier — the receive slot is reposted
               // before the worker runs, so it must not alias.
               std::memcpy(work.mget_keys.data(), req.key.data(), req.key.size());
               work.mget_keys_len = static_cast<std::uint16_t>(req.key.size());
               work.mget_key_count = static_cast<std::uint32_t>(req.header.delta);
             } else {
               work.set_key(req.key);
             }
             auto* state = static_cast<UcrConnState*>(ep.user_data());
             if (state == nullptr) return;  // connection already reaped
             auto it = state->pending_sets.find(req.header.req_id);
             if (it != state->pending_sets.end()) {
               work.prepared_item = it->second;
               work.alloc_failed = it->second == nullptr;
               state->pending_sets.erase(it);
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
    for (auto& [req_id, item] : state->pending_sets) {
      if (item != nullptr) store_.abandon_item(item);
    }
    state->pending_sets.clear();
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
  std::span<const std::byte> data{};
  if (pinned_item) data = pinned_item->value();
  bytes_written_ += sizeof(hdr) + data.size();

  // The origin counter tells us when the value memory may be unpinned —
  // immediately for eager responses, after the client's RDMA read for
  // rendezvous ones.
  if (pinned_item) {
    if (ucr::wire::AmWire::kSize + sizeof(hdr) + data.size() <=
        ucr_runtime_->config().eager_limit) {
      // Eager responses copy the value out synchronously inside
      // send_message (into a staging slot or the backlog), so the item can
      // be unpinned right away — no completion counter, no tracking task.
      const Status sent = ucr_runtime_->send_message(
          ep, ucrp::kMsgResponse, hdr, data, nullptr, ucr::CounterRef{reply_counter},
          nullptr);
      store_.release(pinned_item);
      if (!sent.ok()) {
        ucrp::ResponseHeader err = header;
        err.status = ucrp::RStatus::server_error;
        std::byte err_hdr[ucrp::ResponseHeader::kSize];
        err.encode(err_hdr);
        (void)ucr_runtime_->send_message(ep, ucrp::kMsgResponse, err_hdr, {}, nullptr,
                                         ucr::CounterRef{reply_counter}, nullptr);
      }
      return;
    }
    // rmclint:allow(zeroalloc): rendezvous response path (value > eager_limit); the eager GET budget never reaches here
    auto counter = std::make_unique<sim::Counter>(*sched_);
    const Status sent =
        ucr_runtime_->send_message(ep, ucrp::kMsgResponse, hdr, data, counter.get(),
                                   ucr::CounterRef{reply_counter}, nullptr);
    if (!sent.ok()) {
      // Unreliable (UD) endpoint and a value too large for a datagram:
      // answer with an error header instead of leaving the client to time
      // out (§VII UD mode serves small items only).
      store_.release(pinned_item);
      ucrp::ResponseHeader err = header;
      err.status = ucrp::RStatus::server_error;
      std::byte err_hdr[ucrp::ResponseHeader::kSize];
      err.encode(err_hdr);
      (void)ucr_runtime_->send_message(ep, ucrp::kMsgResponse, err_hdr, {}, nullptr,
                                       ucr::CounterRef{reply_counter}, nullptr);
      return;
    }
    sched_->spawn([](ItemStore& store, ItemHeader* item,
                     std::unique_ptr<sim::Counter> done) -> sim::Task<> {
      co_await done->wait_geq(1);
      // rmclint:allow(coro-lifetime): store_ is a Server member and `item` is
      // refcount-pinned until this release; both outlive the send completion.
      store.release(item);
    }(store_, pinned_item, std::move(counter)));
  } else {
    (void)ucr_runtime_->send_message(ep, ucrp::kMsgResponse, hdr, data, nullptr,
                                     ucr::CounterRef{reply_counter}, nullptr);
  }
}

sim::Task<> Server::process_ucr_mget(Work& work, WorkerScratch& scratch) {
  const ucrp::RequestHeader& req = work.ucr_header;
  ucr::Endpoint& ep = *work.ep;

  // Parse: AM decode plus one scan of the packed key block.
  const sim::Time parse_start = sched_->now();
  co_await host_->cpu().consume(
      config_.costs.ucr_request_ns +
      static_cast<sim::Time>(static_cast<double>(work.mget_keys_len) *
                             config_.costs.parse_ns_per_byte));
  stage_parse_->record(sched_->now() - parse_start);

  // Execute: ONE pass over the hashtable pinning every hit — the batch
  // pays op_base_ns once, exactly like the socket path's multi-key GET.
  const sim::Time exec_start = sched_->now();
  co_await host_->cpu().consume(config_.costs.op_base_ns);
  advance_clock();
  {
    obs::ProfScope prof{kProfExecute};
    scratch.mget_items.clear();
    ucrp::MgetKeyReader reader{work.mget_keys.data(), work.mget_keys_len};
    std::string_view key;
    while (reader.next(key)) {
      // rmclint:allow(zeroalloc): reusable per-worker scratch; capacity reaches its high-water mark at warmup
      scratch.mget_items.push_back(store_.get_pinned(key));
    }
  }
  const auto n = static_cast<std::uint32_t>(scratch.mget_items.size());
  mget_batch_->record(n);
  stage_execute_->record(sched_->now() - exec_start);

  // Format: plan the chunking, then emit one scatter-gather AM per chunk.
  // Every chunk bumps the client's reply counter by one; the chunk header
  // carries total_chunks so the client knows when the reply is whole.
  std::size_t frame = ucr_runtime_->config().eager_limit;
  if (ep.type() == ucr::EpType::unreliable) {
    // UD datagrams cannot exceed the MTU and cannot rendezvous (§VII).
    frame = std::min<std::size_t>(frame, ucr_runtime_->hca().costs().ud_mtu);
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
        ItemHeader* item = scratch.mget_items[start + count];
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
      config_.costs.format_base_ns +
      static_cast<sim::Time>(static_cast<double>(eager_bytes) *
                             config_.costs.value_copy_ns_per_byte));
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
          if (ItemHeader* item = scratch.mget_items[start + i]) store_.release(item);
        }
        continue;
      }
      ucrp::ResponseHeader resp;
      resp.status = ucrp::RStatus::value;
      resp.req_id = req.req_id;
      resp.encode(hdr);
      const ucrp::MgetChunkHeader chunk{start, count, total, n};
      chunk.encode(hdr + ucrp::ResponseHeader::kSize);
      std::size_t ho = ucrp::ResponseHeader::kSize + ucrp::MgetChunkHeader::kSize;
      std::size_t data_bytes = 0;
      for (std::uint32_t i = 0; i < count; ++i) {
        ItemHeader* item = scratch.mget_items[start + i];
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
      ItemHeader* single = count == 1 ? scratch.mget_items[start] : nullptr;
      if (ucr::wire::AmWire::kSize + ho + data_bytes > frame && single != nullptr &&
          ep.type() != ucr::EpType::unreliable) {
        // Oversized single value: rendezvous straight out of the slab —
        // the client RDMA-reads it, the origin counter unpins it.
        // rmclint:allow(zeroalloc): rendezvous chunk (value > eager frame); the eager mget budget never reaches here
        auto counter = std::make_unique<sim::Counter>(*sched_);
        const Status sent = ucr_runtime_->send_message(
            ep, ucrp::kMsgResponse, std::span<const std::byte>{hdr, ho},
            single->value(), counter.get(), ucr::CounterRef{req.reply_counter},
            nullptr);
        bytes_written_ += ho + single->value().size();
        if (!sent.ok()) {
          store_.release(single);
          failed = true;
          continue;
        }
        sched_->spawn([](ItemStore& store, ItemHeader* item,
                         std::unique_ptr<sim::Counter> done) -> sim::Task<> {
          co_await done->wait_geq(1);
          // rmclint:allow(coro-lifetime): store_ is a Server member and `item` is
          // refcount-pinned until this release; both outlive the send completion.
          store.release(item);
        }(store_, single, std::move(counter)));
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
        scratch.mget_items[start] = nullptr;
      }
      // Eager chunk: gather the hit values into the worker's scratch and
      // let send_message copy them out synchronously — the items can be
      // unpinned as soon as it returns.
      scratch.out.clear();
      for (std::uint32_t i = 0; i < count && data_bytes > 0; ++i) {
        ItemHeader* item = scratch.mget_items[start + i];
        if (!item) continue;
        // rmclint:allow(zeroalloc): reusable per-worker scratch; capacity reaches its high-water mark at warmup
        scratch.out.insert(scratch.out.end(), item->value().begin(), item->value().end());
      }
      const Status sent = ucr_runtime_->send_message(
          ep, ucrp::kMsgResponse, std::span<const std::byte>{hdr, ho}, scratch.out,
          nullptr, ucr::CounterRef{req.reply_counter}, nullptr);
      bytes_written_ += ho + scratch.out.size();
      for (std::uint32_t i = 0; i < count; ++i) {
        if (ItemHeader* item = scratch.mget_items[start + i]) store_.release(item);
      }
      if (!sent.ok()) failed = true;
    }
    ucr_runtime_->end_send_batch();
    if (failed) {
      // Chunks went missing; answer a bare error header (no chunk header)
      // so the client fails the whole request fast instead of timing out.
      ucrp::ResponseHeader err;
      err.status = ucrp::RStatus::server_error;
      err.req_id = req.req_id;
      std::byte err_hdr[ucrp::ResponseHeader::kSize];
      err.encode(err_hdr);
      (void)ucr_runtime_->send_message(ep, ucrp::kMsgResponse, err_hdr, {}, nullptr,
                                       ucr::CounterRef{req.reply_counter}, nullptr);
    }
    scratch.mget_items.clear();
  }
  stage_format_->record(sched_->now() - format_start);
  co_return;
}

ucrp::ResponseHeader Server::execute_ucr(const ucrp::RequestHeader& req, std::string_view key,
                                         std::span<const std::byte> value,
                                         ItemHeader** pinned) {
  ucrp::ResponseHeader resp;
  resp.req_id = req.req_id;
  switch (req.op) {
    case ucrp::Op::get:
    case ucrp::Op::gets:
      *pinned = store_.get_pinned(key);
      if (*pinned != nullptr) {
        resp.status = ucrp::RStatus::value;
        resp.flags = (*pinned)->flags;
        resp.cas = (*pinned)->cas;
      } else {
        resp.status = ucrp::RStatus::not_found;
      }
      break;
    case ucrp::Op::set:
    case ucrp::Op::add:
    case ucrp::Op::replace:
    case ucrp::Op::append:
    case ucrp::Op::prepend:
    case ucrp::Op::cas: {
      SetMode mode = SetMode::set;
      switch (req.op) {
        case ucrp::Op::add: mode = SetMode::add; break;
        case ucrp::Op::replace: mode = SetMode::replace; break;
        case ucrp::Op::append: mode = SetMode::append; break;
        case ucrp::Op::prepend: mode = SetMode::prepend; break;
        case ucrp::Op::cas: mode = SetMode::cas; break;
        default: break;
      }
      auto stored = store_.store(mode, key, value, req.flags, req.exptime, req.cas);
      if (stored.ok()) {
        resp.status = ucrp::RStatus::stored;
      } else {
        switch (stored.error()) {
          case Errc::not_stored: resp.status = ucrp::RStatus::not_stored; break;
          case Errc::exists: resp.status = ucrp::RStatus::exists; break;
          case Errc::not_found: resp.status = ucrp::RStatus::not_found; break;
          default: resp.status = ucrp::RStatus::server_error; break;
        }
      }
      break;
    }
    case ucrp::Op::del:
      resp.status = store_.del(key) ? ucrp::RStatus::deleted : ucrp::RStatus::not_found;
      break;
    case ucrp::Op::incr:
    case ucrp::Op::decr: {
      auto result = store_.arith(key, req.delta, req.op == ucrp::Op::decr);
      if (result.ok()) {
        resp.status = ucrp::RStatus::number;
        resp.number = *result;
      } else if (result.error() == Errc::not_found) {
        resp.status = ucrp::RStatus::not_found;
      } else {
        resp.status = ucrp::RStatus::client_error;
      }
      break;
    }
    case ucrp::Op::touch:
      resp.status =
          store_.touch(key, req.exptime) ? ucrp::RStatus::touched : ucrp::RStatus::not_found;
      break;
    case ucrp::Op::flush_all:
      schedule_flush(static_cast<std::uint32_t>(req.delta));
      resp.status = ucrp::RStatus::ok;
      break;
    case ucrp::Op::version:
      resp.status = ucrp::RStatus::ok;
      break;
    default:
      // mget runs its own batch path; any other byte names no op.
      resp.status = ucrp::RStatus::client_error;
      break;
  }
  return resp;
}

sim::Task<> Server::process_ucr(Work& work, WorkerScratch& scratch) {
  if (work.ucr_header.op == ucrp::Op::mget) {
    co_await process_ucr_mget(work, scratch);
    co_return;
  }
  // Stage split: the AM-header decode is the UCR path's "parse", the store
  // operation is its "execute".
  const sim::Time parse_start = sched_->now();
  co_await host_->cpu().consume(config_.costs.ucr_request_ns);
  stage_parse_->record(sched_->now() - parse_start);
  const sim::Time exec_start = sched_->now();
  co_await host_->cpu().consume(config_.costs.op_base_ns);
  advance_clock();

  const ucrp::RequestHeader& req = work.ucr_header;
  ucrp::ResponseHeader resp;
  ItemHeader* pinned = nullptr;
  {
    obs::ProfScope exec_prof{kProfExecute};
    if (work.alloc_failed) {
      // The value never had a home (too large / out of memory).
      resp = {.status = ucrp::RStatus::server_error, .req_id = req.req_id};
    } else if (work.prepared_item != nullptr && req.op == ucrp::Op::set) {
      // Fast path: the value already sits in its slab chunk; link it.
      store_.commit_item(work.prepared_item);
      resp = {.status = ucrp::RStatus::stored, .req_id = req.req_id};
    } else {
      std::span<const std::byte> value{};
      if (work.prepared_item != nullptr) value = work.prepared_item->value();
      resp = execute_ucr(req, work.key(), value, &pinned);
      if (work.prepared_item != nullptr) store_.abandon_item(work.prepared_item);
    }
  }

  stage_execute_->record(sched_->now() - exec_start);
  const sim::Time format_start = sched_->now();
  {
    obs::ProfScope prof{kProfFormat};
    ucr_reply(*work.ep, resp, pinned, req.reply_counter);
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
