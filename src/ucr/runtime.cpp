#include "ucr/runtime.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <utility>

#include "common/log.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"

namespace rmc::ucr {

namespace {

/// Runtime dispatch + handler invocation cost per active message, and the
/// memcpy between network buffers and application memory (eager path).
constexpr sim::Time kAmDispatchNs = 500;
constexpr double kMemcpyNsPerByte = 0.10;

const std::uint16_t kProfSendMessage =
    obs::profiler().register_scope("prof.ucr.send.message", obs::ScopeKind::engine);
const std::uint16_t kProfSendComplete =
    obs::profiler().register_scope("prof.ucr.send.complete", obs::ScopeKind::engine);
const std::uint16_t kProfRecvRoute =
    obs::profiler().register_scope("prof.ucr.recv.route", obs::ScopeKind::engine);
const std::uint16_t kProfAmDispatch =
    obs::profiler().register_scope("prof.ucr.am.dispatch", obs::ScopeKind::engine);

// wr_id tags: one send CQ carries the completions of staging-slot SENDs
// and of the WRs that own an in-flight record (pulls, puts and gets),
// whose token (a SlotMap key, below 2^62) fills the rest of the wr_id.
constexpr std::uint64_t kTagShift = 62;
constexpr std::uint64_t kTagSend = 1ull << kTagShift;
constexpr std::uint64_t kTagRecord = 2ull << kTagShift;
constexpr std::uint64_t kTagMask = 3ull << kTagShift;

/// Byte offset of AmWire::credits within the encoded header (see encode()).
constexpr std::size_t kCreditsOffset = 1 + 1 + 2 + 2;

/// How long a failed/closed endpoint lingers before its storage (and RC
/// QP) is reclaimed. The grace period lets in-flight references — work
/// items queued at server workers, handler notifications — drain before
/// the Endpoint object disappears.
constexpr sim::Time kEpReclaimDelay = 5'000'000;  // 5 ms

}  // namespace

Runtime::Runtime(verbs::Hca& hca, UcrConfig config) : hca_(&hca), config_(config) {
  const auto cq_mode =
      config_.event_driven_cq ? verbs::CqMode::event_driven : verbs::CqMode::polling;
  send_cq_ = hca.create_cq(cq_mode);
  recv_cq_ = hca.create_cq(cq_mode);

  recv_arena_ = PageBuffer(static_cast<std::size_t>(config_.recv_buffers) * config_.eager_limit);
  recv_mr_ = &hca.reg_mr(recv_arena_.span());
  // The SRQ hands out the buffer posted last: post in reverse, so the
  // first receive lands in slot 0, as the first send stages in slot 0.
  for (std::uint32_t slot = config_.recv_buffers; slot-- > 0;) repost_recv_slot(slot);

  // Staging arena sized to the credit window times a generous endpoint
  // count; grows never — exhaustion backpressures through acquire_slot.
  const std::uint32_t slots = config_.recv_buffers;
  send_arena_ = PageBuffer(static_cast<std::size_t>(slots) * config_.eager_limit);
  send_mr_ = &hca.reg_mr(send_arena_.span());
  // rmclint:allow(zeroalloc): constructor-time freelist reservation
  free_slots_.reserve(slots);
  // rmclint:allow(zeroalloc): constructor-time freelist fill within the reservation above
  for (std::uint32_t s = 0; s < slots; ++s) free_slots_.push_back(slots - 1 - s);

  scheduler().spawn(recv_progress());
  scheduler().spawn(send_progress());
  // The keepalive prober is perpetual, so it is opt-in: drivers that
  // enable it must run the scheduler with run_until.
  if (config_.keepalive_interval > 0) scheduler().spawn(keepalive_loop());
}

Runtime::~Runtime() = default;

CounterRef Runtime::export_counter(sim::Counter& counter) {
  const std::uint64_t id = next_counter_id_++;
  // rmclint:allow(zeroalloc): counter export happens at connection setup, once per exported counter
  exported_counters_.emplace(id, &counter);
  return CounterRef{id};
}

void Runtime::unexport_counter(CounterRef ref) {
  auto it = exported_counters_.find(ref.id);
  if (it == exported_counters_.end()) return;
  const sim::Counter* counter = it->second;
  exported_counters_.erase(it);
  const auto live = deferred_fires_.begin() + static_cast<std::ptrdiff_t>(deferred_fire_count_);
  const auto kept = std::remove_if(deferred_fires_.begin(), live, [&](const DeferredFire& f) {
    return f.counter == counter;
  });
  deferred_fire_count_ = static_cast<std::size_t>(kept - deferred_fires_.begin());
}

void Runtime::register_region(std::span<std::byte> memory) {
  (void)find_or_register(memory);
}

verbs::MemoryRegion* Runtime::find_or_register(std::span<const std::byte> memory) {
  const auto base = reinterpret_cast<std::uint64_t>(memory.data());
  auto it = region_cache_.upper_bound(base);
  if (it != region_cache_.begin()) {
    --it;
    if (base >= it->first && base + memory.size() <= it->first + it->second.len) {
      return it->second.mr;
    }
  }
  // Registration-cache miss: register on the fly (charges the pin cost).
  auto mutable_span = std::span<std::byte>(const_cast<std::byte*>(memory.data()), memory.size());
  verbs::MemoryRegion* mr = &hca_->reg_mr(mutable_span);
  region_cache_[base] = Region{memory.size(), mr};
  return mr;
}

std::uint32_t Runtime::acquire_slot() {
  assert(!free_slots_.empty() && "send staging exhausted; raise recv_buffers");
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  return slot;
}

// rmclint:allow(zeroalloc): returns a slot index to the freelist; capacity fixed at construction
void Runtime::release_slot(std::uint32_t slot) { free_slots_.push_back(slot); }

std::span<std::byte> Runtime::slot_span(std::uint32_t slot) {
  return {send_arena_.data() + static_cast<std::size_t>(slot) * config_.eager_limit,
          config_.eager_limit};
}

std::vector<std::byte>& Runtime::header_block(std::uint64_t token) {
  const std::uint32_t slot = SlotMap<InFlight>::slot(token);
  // rmclint:allow(zeroalloc): one block per slot, grown only to the high-water
  if (slot >= header_blocks_.size()) header_blocks_.resize(slot + 1);
  return header_blocks_[slot];
}

void Runtime::repost_recv_slot(std::uint32_t slot) {
  std::span<std::byte> buf{
      recv_arena_.data() + static_cast<std::size_t>(slot) * config_.eager_limit,
      config_.eager_limit};
  srq_.post({.wr_id = slot, .buffer = buf, .lkey = recv_mr_->lkey()});
}

// ------------------------------------------------------------ connection

Endpoint& Runtime::adopt_qp(verbs::QueuePair& qp) {
  // rmclint:allow(zeroalloc): endpoint adoption is connection setup, not a request path
  auto ep = std::make_unique<Endpoint>(*this, next_ep_id_++, qp, config_.credits_per_ep);
  Endpoint& ref = *ep;
  ref.last_heard_ = scheduler().now();
  // rmclint:allow(zeroalloc): routing-map entry added once per connection
  ep_by_qpn_.emplace(qp.qp_num(), &ref);
  // rmclint:allow(zeroalloc): endpoint registry entry added once per connection
  endpoints_.push_back(std::move(ep));
  // Async-event channel: the QP erroring out (peer disconnect, transport
  // retry exhaustion) fails the endpoint. close()/fail_endpoint detach
  // the qpn entry first, so self-inflicted errors are a no-op here.
  qp.set_on_error([this](verbs::QueuePair& q) {
    auto it = ep_by_qpn_.find(q.qp_num());
    if (it != ep_by_qpn_.end()) fail_endpoint(*it->second, Errc::disconnected);
  });
  return ref;
}

verbs::QueuePair& Runtime::ensure_ud_qp() {
  if (!ud_qp_) ud_qp_ = &hca_->create_ud_qp(*send_cq_, *recv_cq_, &srq_);
  return *ud_qp_;
}

Endpoint& Runtime::adopt_ud_peer(sim::NicAddr nic, std::uint32_t qpn,
                                 std::uint64_t peer_ep_id) {
  // rmclint:allow(zeroalloc): UD peer adoption happens once per new datagram peer, not per message
  auto ep = std::make_unique<Endpoint>(*this, next_ep_id_++, ensure_ud_qp(),
                                       config_.credits_per_ep, EpType::unreliable);
  Endpoint& ref = *ep;
  ref.last_heard_ = scheduler().now();
  ref.ud_remote_nic_ = nic;
  ref.ud_remote_qpn_ = qpn;
  ref.ud_remote_ep_ = static_cast<std::uint32_t>(peer_ep_id);
  // rmclint:allow(zeroalloc): routing-map entry added once per datagram endpoint
  ep_by_ud_id_.emplace(static_cast<std::uint32_t>(ref.id()), &ref);
  // rmclint:allow(zeroalloc): endpoint registry entry added once per connection
  endpoints_.push_back(std::move(ep));
  return ref;
}

void Runtime::listen(std::uint16_t port, std::function<void(Endpoint&)> on_client) {
  // rmclint:allow(zeroalloc): listener setup, one shared callback per listen() call
  auto shared_cb = std::make_shared<std::function<void(Endpoint&)>>(std::move(on_client));
  hca_->listen(
      port,
      {.make_qp = [this] { return &hca_->create_qp(*send_cq_, *recv_cq_, &srq_); },
       .on_established =
           [this, shared_cb](verbs::QueuePair& qp) {
             Endpoint& ep = adopt_qp(qp);
             if (*shared_cb) (*shared_cb)(ep);
           },
       .on_ud_connect =
           [this, shared_cb](sim::NicAddr nic, std::uint32_t qpn, std::uint64_t peer_ep)
           -> std::optional<std::pair<std::uint32_t, std::uint64_t>> {
             Endpoint& ep = adopt_ud_peer(nic, qpn, peer_ep);
             if (*shared_cb) (*shared_cb)(ep);
             return std::make_pair(ensure_ud_qp().qp_num(), ep.id());
           }});
}

sim::Task<Result<Endpoint*>> Runtime::connect(sim::NicAddr dst, std::uint16_t port,
                                              EpType type, sim::Time timeout) {
  if (type == EpType::unreliable) {
    // Reserve the endpoint id first so the peer can address us from its
    // very first datagram.
    const std::uint64_t my_ep_id = next_ep_id_;
    auto answer =
        co_await hca_->connect_ud(dst, port, ensure_ud_qp().qp_num(), my_ep_id, timeout);
    if (!answer.ok()) co_return answer.error();
    Endpoint& ep = adopt_ud_peer(dst, answer->first, answer->second);
    co_return &ep;
  }
  auto qp = co_await hca_->connect(dst, port, *send_cq_, *recv_cq_, &srq_, timeout);
  if (!qp.ok()) {
    if (qp.error() == Errc::timed_out) {
      obs::registry().counter("ucr.connect.timeouts").inc();
    }
    co_return qp.error();
  }
  co_return &adopt_qp(**qp);
}

void Runtime::close(Endpoint& ep) {
  if (ep.state_ == EpState::failed) {
    // Already torn down and queued for reclamation by fail_endpoint.
    ep.state_ = EpState::closed;
    return;
  }
  (void)teardown(ep, EpState::closed);
}

void Runtime::fail_endpoint(Endpoint& ep, Errc reason) {
  if (!teardown(ep, EpState::failed)) return;
  obs::registry().counter("ucr.ep.failures").inc();
  notify_endpoint_down(ep, reason);
}

bool Runtime::teardown(Endpoint& ep, EpState end) {
  if (ep.state_ == EpState::closed || ep.state_ == EpState::failed) return false;
  // Terminal *before* disconnecting: the QP's on_error fires during
  // disconnect and must not fail the endpoint a second time.
  ep.state_ = end;
  ep.backlog_.clear();
  detach_endpoint(ep);
  // Error the QP: flushes its outstanding verbs WRs (their completions
  // find no record once the loop below has run) and, if the wire still
  // works, tells the peer. The UD QP is shared — leave it be.
  if (ep.type_ == EpType::reliable) hca_->disconnect(*ep.qp_);

  // Erase every in-flight record tied to this endpoint and wake its
  // waiters with failure *now* — this is the bug class this layer is
  // for: nobody should ride out op_timeout against a dead peer. A pull
  // erased here delivers nothing; its Read's flushed completion finds no
  // record.
  in_flight_.for_each([&](std::uint64_t token, InFlight& op) {
    if (op.ep != &ep) return;
    if (op.origin) op.origin->fail_waiters();
    if (op.completion) op.completion->fail_waiters();
    in_flight_.erase(token);
  });
  retire_endpoint(ep);
  return true;
}

void Runtime::detach_endpoint(Endpoint& ep) {
  if (ep.type_ == EpType::unreliable) {
    ep_by_ud_id_.erase(static_cast<std::uint32_t>(ep.id()));
  } else {
    ep_by_qpn_.erase(ep.qp_->qp_num());
  }
}

std::uint64_t Runtime::on_endpoint_down(EndpointDownHandler handler) {
  const std::uint64_t id = next_down_handler_++;
  // rmclint:allow(zeroalloc): handler registration at subscriber setup
  down_handlers_.emplace(id, std::move(handler));
  return id;
}

void Runtime::remove_endpoint_handler(std::uint64_t id) { down_handlers_.erase(id); }

void Runtime::notify_endpoint_down(Endpoint& ep, Errc reason) {
  if (down_handlers_.empty()) return;
  // Deferred to the next scheduler turn so handlers observe a settled
  // endpoint (in-flight records erased, waiters woken) and may re-enter the
  // runtime (reconnect, close) without re-entrancy surprises. The
  // Endpoint object outlives the turn: reclamation waits kEpReclaimDelay.
  // rmclint:allow(coro-lifetime): the captured Endpoint pointer stays valid —
  // reclamation is deferred by kEpReclaimDelay, strictly after this turn.
  scheduler().call_at(scheduler().now(), [this, ep = &ep, reason] {
    std::vector<EndpointDownHandler*> snapshot;
    // rmclint:allow(zeroalloc): failure path — endpoint death is off the steady-state budget
    snapshot.reserve(down_handlers_.size());
    // rmclint:allow(zeroalloc): failure path — endpoint death is off the steady-state budget
    for (auto& [id, fn] : down_handlers_) snapshot.push_back(&fn);
    for (auto* fn : snapshot) {
      if (*fn) (*fn)(*ep, reason);
    }
  });
}

void Runtime::retire_endpoint(Endpoint& ep) {
  if (ep.retired_at_ != 0) return;
  ep.retired_at_ = scheduler().now();
  schedule_reap();
}

void Runtime::schedule_reap() {
  if (reap_armed_) return;
  reap_armed_ = true;
  scheduler().call_in(kEpReclaimDelay + 1, [this] { reap_endpoints(); });
}

void Runtime::reap_endpoints() {
  reap_armed_ = false;
  const sim::Time now = scheduler().now();
  bool stragglers = false;
  std::erase_if(endpoints_, [&](std::unique_ptr<Endpoint>& ep) {
    if (ep->retired_at_ == 0) return false;
    if (now < ep->retired_at_ + kEpReclaimDelay) {
      stragglers = true;
      return false;
    }
    if (ep->type_ == EpType::reliable) {
      // Silence the async-event hook before destroying: this teardown is
      // ours, not a failure to report.
      ep->qp_->set_on_error(nullptr);
      hca_->destroy_qp(*ep->qp_);
    }
    obs::registry().counter("ucr.ep.reaped").inc();
    return true;
  });
  if (stragglers) schedule_reap();
}

sim::Task<> Runtime::keepalive_loop() {
  const sim::Time interval = config_.keepalive_interval;
  const sim::Time timeout = 4 * interval;
  while (true) {
    co_await scheduler().delay(interval);
    const sim::Time now = scheduler().now();
    for (auto& ep : endpoints_) {
      if (ep->type_ != EpType::reliable || ep->state_ != EpState::ready) continue;
      const sim::Time silence = now - ep->last_heard_;
      if (silence >= timeout) {
        obs::registry().counter("ucr.keepalive.timeouts").inc();
        fail_endpoint(*ep, Errc::timed_out);
      } else if (silence >= interval) {
        obs::registry().counter("ucr.keepalive.probes").inc();
        send_internal(*ep, wire::Kind::ping, 0, 0);
      }
    }
  }
}

// -------------------------------------------------------- send machinery

Status Runtime::send_message(Endpoint& ep, std::uint16_t msg_id,
                             std::span<const std::byte> header,
                             std::span<const std::byte> data, sim::Counter* origin_counter,
                             CounterRef target_counter, sim::Counter* completion_counter) {
  if (ep.state_ != EpState::ready) return Errc::disconnected;
  if (header.size() > std::uint16_t(-1)) return Errc::invalid_argument;
  obs::ProfScope prof{kProfSendMessage};

  const std::size_t eager_total = wire::AmWire::kSize + header.size() + data.size();
  const bool eager = eager_total <= config_.eager_limit;
  if (!eager && wire::AmWire::kSize + header.size() > config_.eager_limit) {
    return Errc::invalid_argument;  // header alone must fit a buffer
  }
  if (ep.type_ == EpType::unreliable) {
    // Datagram endpoints are eager-only (no RC to RDMA-read over) and
    // bounded by the UD path MTU.
    if (!eager || eager_total > verbs::kUdMtu) return Errc::invalid_argument;
  }

  wire::AmWire am;
  am.dst_ep = ep.ud_remote_ep_;
  am.msg_id = msg_id;
  am.header_len = static_cast<std::uint16_t>(header.size());
  am.data_len = static_cast<std::uint32_t>(data.size());
  am.target_counter = target_counter.id;

  const std::size_t packed_len =
      eager ? eager_total : wire::AmWire::kSize + header.size();
  if (eager) {
    am.kind = wire::Kind::eager;
    am.want_flags = completion_counter ? wire::kAckCompletion : 0;
    ++eager_sent_;
    obs::registry().counter("ucr.eager.sends").inc();
  } else {
    am.kind = wire::Kind::rendezvous;
    am.want_flags = static_cast<std::uint8_t>((origin_counter ? wire::kAckOrigin : 0) |
                                              (completion_counter ? wire::kAckCompletion : 0));
    verbs::MemoryRegion* mr = find_or_register(data);
    am.rndz_addr = reinterpret_cast<std::uint64_t>(data.data());
    am.rndz_rkey = mr->rkey();
    ++rendezvous_sent_;
    obs::registry().counter("ucr.rendezvous.sends").inc();
  }
  // A message that wants an ack is an in-flight record until the ack
  // comes back with its token; any other carries token 0.
  if (am.want_flags) {
    // rmclint:allow(zeroalloc): a recycled slot; the map grows only to its high-water
    am.token = in_flight_.emplace(InFlight{.kind = InFlight::Kind::origin,
                                           .acks = am.want_flags,
                                           .ep = &ep,
                                           .origin = eager ? nullptr : origin_counter,
                                           .completion = completion_counter});
  }

  // Encode wire header + user header (+ eager data) once. With a credit
  // free, that is straight into the registered bounce buffer, with no
  // intermediate copy. On a credit stall the staging arena may be needed
  // for credit returns, so the message is packed into a heap copy parked
  // on the backlog: the only allocating branch of the send path, counted
  // by ucr.backlog.stalls.
  const bool stalled = ep.send_credits_ == 0;
  std::uint32_t slot = 0;
  std::span<std::byte> buf;
  if (stalled) {
    obs::registry().counter("ucr.backlog.stalls").inc();
    // rmclint:allow(zeroalloc): backpressure path (credits/window exhausted), counted by ucr.backlog.stalls
    ep.backlog_.push_back(std::vector<std::byte>(packed_len));
    buf = ep.backlog_.back();
  } else {
    --ep.send_credits_;
    slot = acquire_slot();
    buf = slot_span(slot);
    assert(packed_len <= buf.size());
  }
  am.encode(buf.data());
  if (!header.empty()) {  // an empty header may carry a null data()
    std::memcpy(buf.data() + wire::AmWire::kSize, header.data(), header.size());
  }
  if (eager && !data.empty()) {
    std::memcpy(buf.data() + wire::AmWire::kSize + header.size(), data.data(), data.size());
  }
  if (!stalled) transmit_slot(ep, slot, packed_len);

  // Eager local completion: the message was staged (copied), so the
  // caller's header and data buffers are immediately reusable (§IV-C).
  if (eager && origin_counter) origin_counter->add();
  return {};
}

void Runtime::transmit_slot(Endpoint& ep, std::uint32_t slot, std::size_t len) {
  auto buf = slot_span(slot);

  // Piggyback owed credits by patching the already-encoded wire header.
  const auto credits = static_cast<std::uint16_t>(
      std::min<std::uint32_t>(ep.credits_owed_, std::uint16_t(-1)));
  std::memcpy(buf.data() + kCreditsOffset, &credits, sizeof(credits));
  ep.credits_owed_ -= credits;

  verbs::SendWr wr{.wr_id = kTagSend | slot,
                   .opcode = verbs::Opcode::send,
                   .local = buf.first(len),
                   .lkey = send_mr_->lkey()};
  if (ep.type_ == EpType::unreliable) {
    wr.ud_remote_nic = ep.ud_remote_nic_;
    wr.ud_remote_qpn = ep.ud_remote_qpn_;
  }
  (void)post(ep, wr);
}

Status Runtime::post(Endpoint& ep, const verbs::SendWr& wr) {
  if (send_batch_active_) {
    // Chain the WR; end_send_batch posts the chain with one doorbell. Its
    // buffer (a staging slot, or the caller's for a put or get) stays
    // valid until its completion either way. UD WRs carry their own
    // addressing, so one shared UD QP chains fine.
    if ((batch_ep_ != nullptr && batch_ep_->qp_ != ep.qp_) ||
        batch_wr_count_ == batch_wrs_.size()) {
      flush_send_batch();
    }
    batch_ep_ = &ep;
    batch_wrs_[batch_wr_count_++] = wr;
    return {};
  }
  if (ep.qp_->post_send(wr).ok()) return {};
  if ((wr.wr_id & kTagMask) == kTagSend) {
    release_slot(static_cast<std::uint32_t>(wr.wr_id & ~kTagMask));
  }
  fail_endpoint(ep);
  return Errc::disconnected;
}

void Runtime::begin_send_batch() {
  flush_send_batch();  // defensive: not re-entrant, flush any leftovers
  send_batch_active_ = true;
}

void Runtime::end_send_batch() {
  flush_send_batch();
  send_batch_active_ = false;
}

void Runtime::flush_send_batch() {
  Endpoint* ep = std::exchange(batch_ep_, nullptr);
  const std::size_t n = std::exchange(batch_wr_count_, 0);
  if (n > 0 && !ep->qp_->post_send_batch({batch_wrs_.data(), n}).ok()) fail_endpoint(*ep);
}

void Runtime::send_internal(Endpoint& ep, wire::Kind kind, std::uint64_t token,
                            std::uint8_t ack_flags) {
  if (ep.state_ != EpState::ready) return;
  wire::AmWire am;
  am.dst_ep = ep.ud_remote_ep_;
  am.kind = kind;
  am.token = token;
  am.ack_flags = ack_flags;
  // Internal messages bypass the credit window (bounded by outstanding
  // operations, which are themselves credit-bounded). Encode straight
  // into the staging slot; nothing to copy.
  const std::uint32_t slot = acquire_slot();
  am.encode(slot_span(slot).data());
  transmit_slot(ep, slot, wire::AmWire::kSize);
}

void Runtime::flush_backlog(Endpoint& ep) {
  while (ep.send_credits_ > 0 && !ep.backlog_.empty()) {
    const std::vector<std::byte> packed = std::move(ep.backlog_.front());
    ep.backlog_.pop_front();
    --ep.send_credits_;
    const std::uint32_t slot = acquire_slot();
    std::memcpy(slot_span(slot).data(), packed.data(), packed.size());
    transmit_slot(ep, slot, packed.size());
  }
}

void Runtime::return_credits(Endpoint& ep) {
  // Return explicitly at half the window: a threshold at or above the
  // window would never fire, and a quiet connection could wedge.
  ++ep.credits_owed_;
  if (ep.credits_owed_ >= std::max(1u, config_.credits_per_ep / 2)) {
    send_internal(ep, wire::Kind::credit, 0, 0);  // transmit_slot flushes owed
  }
}

// ------------------------------------------------- one-sided put / get

Runtime::RemoteMemory Runtime::expose_memory(std::span<std::byte> memory) {
  verbs::MemoryRegion* mr = find_or_register(memory);
  return RemoteMemory{reinterpret_cast<std::uint64_t>(memory.data()), mr->rkey(),
                      static_cast<std::uint32_t>(memory.size())};
}

Status Runtime::one_sided(Endpoint& ep, verbs::Opcode opcode, std::span<std::byte> local,
                          const RemoteMemory& window, std::uint32_t offset,
                          sim::Counter* done) {
  if (ep.state_ != EpState::ready) return Errc::disconnected;
  if (ep.type_ != EpType::reliable) return Errc::invalid_argument;  // UD has no RDMA
  if (offset > window.length || local.size() > window.length - offset) {
    return Errc::invalid_argument;
  }
  verbs::MemoryRegion* mr = find_or_register(local);
  // Only a done counter needs a record; token 0 names none. One-sided WRs
  // chain into the same doorbell window as AM sends (the RFP ring server
  // batches one sweep's response writes this way).
  std::uint64_t token = 0;
  if (done) {
    // rmclint:allow(zeroalloc): a recycled slot; the map grows only to its high-water
    token = in_flight_.emplace(
        InFlight{.kind = InFlight::Kind::one_sided, .ep = &ep, .completion = done});
  }
  return post(ep, {.wr_id = kTagRecord | token,
                   .opcode = opcode,
                   .local = local,
                   .lkey = mr->lkey(),
                   .remote_addr = window.addr + offset,
                   .rkey = window.rkey});
}

Status Runtime::put(Endpoint& ep, std::span<const std::byte> src, const RemoteMemory& window,
                    std::uint32_t offset, sim::Counter* done) {
  return one_sided(ep, verbs::Opcode::rdma_write,
                   {const_cast<std::byte*>(src.data()), src.size()}, window, offset, done);
}

Status Runtime::get(Endpoint& ep, std::span<std::byte> dst, const RemoteMemory& window,
                    std::uint32_t offset, sim::Counter* done) {
  return one_sided(ep, verbs::Opcode::rdma_read, dst, window, offset, done);
}

// ------------------------------------------------------ progress engines

void Runtime::fire_exported(std::uint64_t counter_id) {
  if (counter_id == 0) return;
  auto it = exported_counters_.find(counter_id);
  if (it == exported_counters_.end()) return;
  sim::Counter* counter = it->second;
  if (drain_depth_ == 0) {
    counter->add();
    return;
  }
  for (std::size_t i = 0; i < deferred_fire_count_; ++i) {
    if (deferred_fires_[i].counter == counter) {
      ++deferred_fires_[i].adds;
      return;
    }
  }
  if (deferred_fire_count_ == deferred_fires_.size()) {
    counter->add();  // table full: fire now (correct, just unbatched)
    return;
  }
  deferred_fires_[deferred_fire_count_++] = DeferredFire{counter, 1};
}

void Runtime::end_drain(std::uint32_t completions) {
  obs::registry().timer("ucr.cq.drain_batch").record(completions);
  assert(drain_depth_ > 0);
  if (--drain_depth_ > 0) return;
  // Flush coalesced fires: one add(n) — and so one wake-up — per counter,
  // however many sibling completions the drain carried for it.
  const std::size_t n = deferred_fire_count_;
  deferred_fire_count_ = 0;
  for (std::size_t i = 0; i < n; ++i) {
    deferred_fires_[i].counter->add(deferred_fires_[i].adds);
  }
}

sim::Task<> Runtime::send_progress() {
  while (true) {
    auto wc = co_await send_cq_->next();
    // Batch drain: after the awaited completion, pull any others already
    // queued (polling mode) without bouncing through the awaitable again.
    begin_drain();
    std::uint32_t drained = 0;
    while (true) {
      ++drained;
      const std::uint64_t value = wc.wr_id & ~kTagMask;
      const bool ok = wc.status == verbs::WcStatus::success;
      if ((wc.wr_id & kTagMask) == kTagSend) {
        obs::ProfScope prof{kProfSendComplete};
        release_slot(static_cast<std::uint32_t>(value));
      } else if (InFlight* op = in_flight_.get(value)) {
        // The record retires with its WR, a pull's once its message is
        // delivered. A record fail_endpoint already erased is not found:
        // its late flushed completion does nothing.
        if (op->kind == InFlight::Kind::one_sided) {
          // A failure wakes the waiter now; fail_endpoint below tears the
          // rest of the endpoint state down.
          if (ok) {
            op->completion->add();
          } else {
            op->completion->fail_waiters();
          }
        } else if (ok) {
          // The pull's data is in place: its message is delivered after
          // the dispatch charge, unless its endpoint fails meanwhile.
          co_await hca_->host().cpu().consume(kAmDispatchNs);
          if ((op = in_flight_.get(value)) != nullptr) {
            const sim::Time arrived_at = op->arrived_at;
            deliver(*op->ep, handler(op->msg_id), header_block(value), op->dest,
                    op->target_counter, op->peer_token, op->acks);
            trace("rendezvous_pull", arrived_at);
          }
        }
        in_flight_.erase(value);
      }
      if (!ok) {
        auto it = ep_by_qpn_.find(wc.qp_num);
        if (it != ep_by_qpn_.end()) fail_endpoint(*it->second);
      }
      auto more = send_cq_->try_next_ready();
      if (!more) break;
      wc = *more;
    }
    end_drain(drained);
  }
}

sim::Task<> Runtime::recv_progress() {
  while (true) {
    auto wc = co_await recv_cq_->next();
    // Batch drain queued completions (polling mode) before suspending.
    begin_drain();
    std::uint32_t drained = 0;
    while (true) {
      ++drained;
      const auto slot = static_cast<std::uint32_t>(wc.wr_id);
      if (wc.status == verbs::WcStatus::success) {
        ++messages_received_;
        obs::registry().counter("ucr.msgs.received").inc();
        std::span<std::byte> buf{
            recv_arena_.data() + static_cast<std::size_t>(slot) * config_.eager_limit,
            config_.eager_limit};
        Endpoint* ep = nullptr;
        {
          // Sync routing prologue only: handle_message below may suspend,
          // and a ProfScope must never span a co_await.
          obs::ProfScope prof{kProfRecvRoute};
          if (ud_qp_ && wc.qp_num == ud_qp_->qp_num()) {
            // Datagram: route by the endpoint id stamped into the AM header.
            const wire::AmWire am = wire::AmWire::decode(buf.data());
            auto it = ep_by_ud_id_.find(am.dst_ep);
            if (it != ep_by_ud_id_.end()) ep = it->second;
          } else {
            auto it = ep_by_qpn_.find(wc.qp_num);
            if (it != ep_by_qpn_.end()) ep = it->second;
          }
        }
        if (ep) co_await handle_message(*ep, buf, wc.byte_len);
      }
      repost_recv_slot(slot);
      auto more = recv_cq_->try_next_ready();
      if (!more) break;
      wc = *more;
    }
    end_drain(drained);
  }
}

sim::Task<> Runtime::handle_message(Endpoint& ep, std::span<std::byte> buffer,
                                    std::uint32_t len) {
  // The length rule: a peer's wire header is believed only if the message
  // holds it, the user header (and eager data) it announces arrived with
  // it, and its kind is one we know. Anything else is dropped like a
  // message with no handler: warned about, and its credit returned.
  const wire::AmWire am = len >= wire::AmWire::kSize ? wire::AmWire::decode(buffer.data())
                                                     : wire::AmWire{};
  const std::uint64_t body =
      am.header_len + (am.kind == wire::Kind::eager ? std::uint64_t{am.data_len} : 0);
  if (len < wire::AmWire::kSize || am.kind > wire::Kind::pong ||
      body > len - wire::AmWire::kSize) {
    RMC_LOG_WARN("ucr: dropped a malformed %u-byte message", len);
    return_credits(ep);
    co_return;
  }

  // Any inbound traffic proves the peer alive.
  ep.last_heard_ = scheduler().now();

  // Credits piggybacked on anything unblock our sends.
  if (am.credits) {
    ep.send_credits_ += am.credits;
    flush_backlog(ep);
  }

  switch (am.kind) {
    case wire::Kind::credit:
      co_return;

    case wire::Kind::ping:
      send_internal(ep, wire::Kind::pong, 0, 0);
      co_return;

    case wire::Kind::pong:
      co_return;  // last_heard_ above is the whole point

    case wire::Kind::internal_ack: {
      // The ownership rule: an ack applies only to an origin record of the
      // endpoint it arrived on.
      InFlight* op = in_flight_.get(am.token);
      if (op == nullptr || op->kind != InFlight::Kind::origin || op->ep != &ep) co_return;
      if ((am.ack_flags & wire::kAckOrigin) && op->origin) op->origin->add();
      if ((am.ack_flags & wire::kAckCompletion) && op->completion) op->completion->add();
      op->acks &= static_cast<std::uint8_t>(~am.ack_flags);
      if (op->acks == 0) in_flight_.erase(am.token);
      co_return;
    }

    case wire::Kind::eager: {
      const sim::Time dispatch_start = scheduler().now();
      co_await hca_->host().cpu().consume(
          kAmDispatchNs +
          static_cast<sim::Time>(am.data_len * kMemcpyNsPerByte));
      // Post-consume dispatch is straight-line code: handler lookup, the
      // payload landing memcpy, counter fire and credit return.
      obs::ProfScope prof_dispatch{kProfAmDispatch};
      const AmHandler* h = handler(am.msg_id);
      if (h == nullptr) {
        RMC_LOG_WARN("ucr: no handler for msg_id %u", am.msg_id);
        return_credits(ep);
        co_return;
      }
      const std::span<const std::byte> header{buffer.data() + wire::AmWire::kSize,
                                              am.header_len};
      std::span<std::byte> dest{};
      if (h->on_header) dest = h->on_header(ep, header, am.data_len);
      std::uint32_t placed = 0;
      if (am.data_len && !dest.empty()) {
        placed = std::min<std::uint32_t>(am.data_len, static_cast<std::uint32_t>(dest.size()));
        std::memcpy(dest.data(), buffer.data() + wire::AmWire::kSize + am.header_len, placed);
      }
      deliver(ep, h, header, dest.first(placed), am.target_counter, am.token,
              static_cast<std::uint8_t>(am.want_flags & wire::kAckCompletion));
      trace("eager_dispatch", dispatch_start);
      return_credits(ep);
      co_return;
    }

    case wire::Kind::rendezvous: {
      co_await hca_->host().cpu().consume(kAmDispatchNs);
      const AmHandler* h = handler(am.msg_id);
      const std::span<const std::byte> header{buffer.data() + wire::AmWire::kSize,
                                              am.header_len};
      std::span<std::byte> dest{};
      if (h != nullptr && h->on_header) dest = h->on_header(ep, header, am.data_len);
      if (dest.size() < am.data_len) {
        // Payload dropped (no handler or no buffer). The active message
        // itself is still delivered: run the completion handler with an
        // empty data span so the application can answer with an error,
        // and release the origin so its counters cannot hang.
        deliver(ep, h, header, {}, am.target_counter, am.token, am.want_flags);
        return_credits(ep);
        co_return;
      }
      // Pull the data with a one-sided read into the destination buffer.
      // The receive buffer is reposted once this returns, so the header
      // moves to the block of the record's slot.
      verbs::MemoryRegion* mr = find_or_register(dest);
      // rmclint:allow(zeroalloc): a recycled slot; the map grows only to its high-water
      const std::uint64_t token = in_flight_.emplace(InFlight{.kind = InFlight::Kind::pull,
                                                              .acks = am.want_flags,
                                                              .ep = &ep,
                                                              .msg_id = am.msg_id,
                                                              .target_counter = am.target_counter,
                                                              .peer_token = am.token,
                                                              .dest = dest.first(am.data_len),
                                                              .arrived_at = scheduler().now()});
      header_block(token).assign(header.begin(), header.end());  // within capacity once warm
      (void)post(ep, {.wr_id = kTagRecord | token,
                      .opcode = verbs::Opcode::rdma_read,
                      .local = dest.first(am.data_len),
                      .lkey = mr->lkey(),
                      .remote_addr = am.rndz_addr,
                      .rkey = am.rndz_rkey});
      return_credits(ep);
      co_return;
    }
  }
}

const AmHandler* Runtime::handler(std::uint16_t msg_id) const {
  auto it = handlers_.find(msg_id);
  return it == handlers_.end() ? nullptr : &it->second;
}

void Runtime::deliver(Endpoint& ep, const AmHandler* h, std::span<const std::byte> header,
                      std::span<std::byte> data, std::uint64_t target_counter,
                      std::uint64_t token, std::uint8_t acks) {
  if (h != nullptr && h->on_complete) h->on_complete(ep, header, data);
  fire_exported(target_counter);
  if (acks) send_internal(ep, wire::Kind::internal_ack, token, acks);
}

void Runtime::trace(const char* name, sim::Time start) {
  if (!obs::tracer().enabled()) return;
  obs::tracer().complete(start, scheduler().now() - start, "ucr:" + hca_->host().name(), name,
                         "ucr");
}

}  // namespace rmc::ucr
