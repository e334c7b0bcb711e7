#include "verbs/hca.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "common/log.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"

namespace rmc::verbs {

namespace {

const std::uint16_t kProfHandle =
    obs::profiler().register_scope("prof.verbs.hca.handle", obs::ScopeKind::engine);
const std::uint16_t kProfPostSend =
    obs::profiler().register_scope("prof.verbs.post.send", obs::ScopeKind::engine);

std::span<std::byte> remote_span(std::uint64_t addr, std::size_t len) {
  return {reinterpret_cast<std::byte*>(addr), len};
}

const char* opcode_span_name(Opcode op) {
  switch (op) {
    case Opcode::send: return "send";
    case Opcode::rdma_write: return "rdma_write";
    case Opcode::rdma_read: return "rdma_read";
    case Opcode::recv: return "recv";
  }
  return "?";
}

/// Requester-side span: a work request's lifetime from doorbell to
/// completion, drawn on the posting host's verbs track.
void trace_wr_span(sim::Host& host, Opcode op, sim::Time posted_at, sim::Time done_at) {
  if (!obs::tracer().enabled()) return;
  obs::tracer().complete(posted_at, done_at > posted_at ? done_at - posted_at : 0,
                         "verbs:" + host.name(), opcode_span_name(op), "verbs");
}
}  // namespace

Hca::Hca(sim::Scheduler& sched, sim::Fabric& fabric, sim::Host& host, VerbsCosts costs)
    : sched_(&sched), fabric_(&fabric), host_(&host), costs_(costs) {
  nic_ = &fabric.add_nic(host);
  sched.spawn(dispatch());
}

MemoryRegion& Hca::reg_mr(std::span<std::byte> memory) {
  const auto pages = (memory.size() + 4095) / 4096;
  host_->cpu().reserve(kRegMrBaseNs + pages * kRegMrPerPageNs);
  obs::registry().counter("verbs.mr.registrations").inc();
  return pd_.register_mr(memory);
}

std::unique_ptr<CompletionQueue> Hca::create_cq(CqMode mode) {
  return std::make_unique<CompletionQueue>(*sched_, host_->cpu(), mode);
}

QueuePair& Hca::add_qp(QpType type, CompletionQueue& send_cq, CompletionQueue& recv_cq,
                       SharedReceiveQueue* srq) {
  auto qp = std::make_unique<QueuePair>(*this, next_qpn_++, type, send_cq, recv_cq, srq);
  QueuePair& ref = *qp;
  qps_.emplace(ref.qp_num(), &ref);
  qp_storage_.push_back(std::move(qp));
  return ref;
}

void Hca::destroy_qp(QueuePair& qp) {
  flush_qp(qp);
  qps_.erase(qp.qp_num());
  // Release the storage too — destroy means destroy (ibv_destroy_qp).
  // Callers must drop their reference; late packets route through qps_
  // and find nothing.
  std::erase_if(qp_storage_,
                [&qp](const std::unique_ptr<QueuePair>& p) { return p.get() == &qp; });
}

void Hca::post_packet(std::unique_ptr<wire::IbPacket> packet, sim::Time post_charge) {
  const sim::Time ready = host_->cpu().reserve(post_charge);
  sched_->call_at(ready, [fabric = fabric_, p = std::move(packet)]() mutable {
    fabric->transmit(std::move(p));
  });
}

sim::Task<> Hca::dispatch() {
  while (true) {
    auto packet = co_await nic_->inbox.recv();
    if (!packet) co_return;  // fabric torn down
    ++messages_handled_;
    // Adapter pipeline: each message occupies the processing engine. An
    // in-bound RDMA Write may be charged its own (cheaper) engine time —
    // it consumes no receive WQE and raises no CQE at this end.
    const auto* ib = static_cast<const wire::IbPacket*>(packet->get());
    const sim::Time engine_ns = ib->kind == wire::Kind::rdma_write
                                    ? costs_.hca_inbound_write_ns
                                    : costs_.hca_process_ns;
    co_await sched_->delay(engine_ns);
    handle(std::unique_ptr<wire::IbPacket>(static_cast<wire::IbPacket*>(packet->release())));
  }
}

void Hca::handle(std::unique_ptr<wire::IbPacket> packet) {
  obs::ProfScope prof{kProfHandle};
  switch (packet->kind) {
    case wire::Kind::ack:
    case wire::Kind::rdma_read_resp:
      complete(*packet);
      break;
    case wire::Kind::cm_connect_req:
    case wire::Kind::cm_connect_resp:
    case wire::Kind::cm_disconnect:
      handle_cm(*packet);
      break;
    default:
      respond(*packet);
  }
}

// ------------------------------------------------------------ responder

void Hca::respond(const wire::IbPacket& p) {
  // The one responder-QP check: the QP must exist, be ready and be of the
  // packet's transport. If not, an RC request is answered flushed and
  // touches no memory, and a UD datagram vanishes.
  auto it = qps_.find(p.dst_qpn);
  const QpType type = p.kind == wire::Kind::ud_data ? QpType::ud : QpType::rc;
  if (it == qps_.end() || it->second->state() != QpState::ready || it->second->type() != type) {
    answer(p, WcStatus::flushed);
    return;
  }
  switch (p.kind) {
    case wire::Kind::send_data:
    case wire::Kind::ud_data:
      deliver(*it->second, p);
      break;
    case wire::Kind::rdma_write: {
      const bool ok = pd_.check_remote(p.rkey, p.remote_addr, p.payload.size()).ok();
      if (ok) {
        std::memcpy(reinterpret_cast<void*>(p.remote_addr), p.payload.data(), p.payload.size());
      }
      answer(p, ok ? WcStatus::success : WcStatus::remote_access_error);
      break;
    }
    case wire::Kind::rdma_read_req:
      answer(p, pd_.check_remote(p.rkey, p.remote_addr, p.length).ok()
                    ? WcStatus::success
                    : WcStatus::remote_access_error);
      break;
    default:
      break;
  }
}

void Hca::deliver(QueuePair& qp, const wire::IbPacket& p) {
  // Only RC SENDs carry a PSN.
  if (p.psn != 0 && qp.rx_is_dup(p.psn)) {
    // Replay of an already-delivered SEND (our ack was lost, or the
    // requester's timer fired early): don't deliver twice, just re-ack.
    obs::registry().counter("verbs.rc.duplicates").inc();
    answer(p, WcStatus::success);
    return;
  }
  auto recv = qp.take_recv();
  if (!recv.ok()) {
    // RNR: in RC the sender would retry; with UCR's credit flow control
    // this indicates a protocol bug, so surface it loudly to the sender.
    // UD drops the datagram silently.
    answer(p, WcStatus::receiver_not_ready);
    return;
  }
  WorkCompletion wc{recv->wr_id, Opcode::recv, WcStatus::success,
                    static_cast<std::uint32_t>(p.payload.size()), p.imm_data, qp.qp_num()};
  if (qp.type() == QpType::ud) {
    wc.src_qp = p.src_qpn;
    wc.src_nic = p.src;
  }
  if (recv->buffer.size() < p.payload.size()) {
    // Too long for the buffer: the receive is burned with an error (a
    // truncating UD datagram too), and an RC sender hears of it.
    wc.status = WcStatus::local_protection_error;
    wc.byte_len = 0;
    wc.imm_data = 0;
    qp.recv_cq().push(wc);
    answer(p, WcStatus::remote_access_error);
    return;
  }
  std::memcpy(recv->buffer.data(), p.payload.data(), p.payload.size());
  if (p.psn != 0) qp.rx_mark(p.psn);
  qp.recv_cq().push(wc);
  answer(p, WcStatus::success);
}

void Hca::answer(const wire::IbPacket& request, WcStatus status) {
  // UD is unacknowledged: a datagram is never answered.
  if (request.kind == wire::Kind::ud_data) return;
  // The adapter answers, not the host: no doorbell cost. An RDMA Read is
  // answered by its response, which carries the data when it succeeded;
  // a SEND or RDMA Write by an ack.
  auto resp = std::make_unique<wire::IbPacket>();
  resp->kind = request.kind == wire::Kind::rdma_read_req ? wire::Kind::rdma_read_resp
                                                         : wire::Kind::ack;
  resp->src = nic_->addr();
  resp->dst = request.src;
  resp->dst_qpn = request.src_qpn;
  resp->token = request.token;
  resp->status = status;
  resp->wire_bytes = kAckBytes;
  if (resp->kind == wire::Kind::rdma_read_resp && status == WcStatus::success) {
    const auto data = remote_span(request.remote_addr, request.length);
    resp->payload.assign(data.begin(), data.end());
    resp->wire_bytes = request.length;
  }
  fabric_->transmit(std::move(resp));
}

// ------------------------------------------------------------ requester

void Hca::issue(QueuePair& qp, const SendWr& wr, sim::Time post_charge) {
  const sim::Time now = sched_->now();
  // SENDs are numbered, so that the responder can drop a replay.
  const std::uint32_t psn = wr.opcode == Opcode::send ? qp.next_psn_++ : 0;
  const InFlight w{qp.qp_num(), wr, psn, now, now + kRcRetransmitNs};
  // The slot-map key doubles as the wire token: the ack / read response
  // brings it back and the generation bits reject stale completions.
  const std::uint64_t token = in_flight_.emplace(w);
  post_packet(request_packet(qp, token, w), post_charge);
}

std::unique_ptr<wire::IbPacket> Hca::request_packet(const QueuePair& qp, std::uint64_t token,
                                                    const InFlight& w) {
  auto packet = std::make_unique<wire::IbPacket>();
  packet->src = nic_->addr();
  packet->dst = qp.remote_nic();
  packet->src_qpn = qp.qp_num();
  packet->dst_qpn = qp.remote_qpn();
  packet->token = token;
  packet->remote_addr = w.wr.remote_addr;
  packet->rkey = w.wr.rkey;
  switch (w.wr.opcode) {
    case Opcode::rdma_read:
      packet->kind = wire::Kind::rdma_read_req;
      packet->length = static_cast<std::uint32_t>(w.wr.local.size());
      packet->wire_bytes = kReadReqBytes;
      return packet;
    case Opcode::send:
      packet->kind = wire::Kind::send_data;
      packet->imm_data = w.wr.imm_data;
      packet->psn = w.psn;
      break;
    default:
      packet->kind = wire::Kind::rdma_write;  // idempotent: a re-write is safe
      break;
  }
  packet->payload.assign(w.wr.local.begin(), w.wr.local.end());
  packet->wire_bytes = w.wr.local.size();
  return packet;
}

void Hca::resend(std::uint64_t token, InFlight& w) {
  auto it = qps_.find(w.qpn);
  if (it == qps_.end() || it->second->state() != QpState::ready) {
    if (it != qps_.end()) {
      it->second->send_cq().push({w.wr.wr_id, w.wr.opcode, WcStatus::flushed, 0, 0, w.qpn});
    }
    in_flight_.erase(token);
    return;
  }
  QueuePair& qp = *it->second;
  if (w.retries_left == 0) {
    // Transport gave up: the connection is dead. Flush everything else
    // outstanding and error the QP, which notifies the owner via on_error.
    obs::registry().counter("verbs.rc.retry_exhausted").inc();
    qp.send_cq().push({w.wr.wr_id, w.wr.opcode, WcStatus::retry_exceeded, 0, 0, w.qpn});
    in_flight_.erase(token);
    flush_qp(qp);
    return;
  }
  w.retries_left--;
  const std::uint32_t used = std::min<std::uint32_t>(kRcRetryCount - w.retries_left, 6);
  w.deadline = sched_->now() + (kRcRetransmitNs << used);  // backoff
  obs::registry().counter("verbs.rc.retransmits").inc();
  // Adapter-driven resend: no doorbell cost, straight onto the wire. A
  // SEND keeps its PSN, so the responder dedups the replay; a late answer
  // to an earlier copy finds the token retired.
  fabric_->transmit(request_packet(qp, token, w));
}

void Hca::complete(const wire::IbPacket& p) {
  InFlight* entry = in_flight_.get(p.token);
  if (entry == nullptr) return;  // flushed meanwhile, or answered already (a resend's echo)
  const InFlight w = *entry;
  in_flight_.erase(p.token);

  auto qp_it = qps_.find(w.qpn);
  if (qp_it == qps_.end()) return;
  QueuePair& qp = *qp_it->second;
  WorkCompletion wc{w.wr.wr_id, w.wr.opcode, p.status,
                    static_cast<std::uint32_t>(w.wr.local.size()), 0, w.qpn};
  if (w.wr.opcode == Opcode::rdma_read) {
    if (p.status == WcStatus::success) {
      assert(p.payload.size() == w.wr.local.size());
      std::memcpy(w.wr.local.data(), p.payload.data(), p.payload.size());
      obs::registry().counter("verbs.rdma.read_completions").inc();
      obs::registry().counter("verbs.rdma.read_bytes").inc(p.payload.size());
    } else {
      wc.byte_len = 0;  // nothing landed
    }
  }
  trace_wr_span(*host_, w.wr.opcode, w.posted_at, sched_->now());
  qp.send_cq().push(wc);
  // An acked SEND may slide the PSN window; release any WRs waiting on room.
  if (w.psn != 0) {
    qp.ack_psn(w.psn);
    if (!qp.tx_backlog_.empty()) qp.drain_tx_backlog();
  }
}

void Hca::arm_retransmit_timer() {
  if (rto_armed_ || in_flight_.empty()) return;
  rto_armed_ = true;
  sched_->call_in(kRcRetransmitNs / 2, [this] { sweep_retransmits(); });
}

void Hca::sweep_retransmits() {
  rto_armed_ = false;
  const sim::Time now = sched_->now();
  // Collect expired tokens first: a resend may flush whole QPs, and
  // erasing unvisited entries mid-for_each would be iteration on shifting
  // ground. The scratch vector is reused, so lossless steady state (no
  // expirations) never allocates here.
  rto_scratch_.clear();
  in_flight_.for_each([&](std::uint64_t key, InFlight& w) {
    if (w.deadline <= now) rto_scratch_.push_back(key);
  });
  for (std::uint64_t key : rto_scratch_) {
    if (InFlight* w = in_flight_.get(key)) resend(key, *w);
  }
  arm_retransmit_timer();
}

void Hca::flush_qp(QueuePair& qp) {
  const std::uint32_t qpn = qp.qp_num();
  while (!qp.tx_backlog_.empty()) {
    qp.send_cq().push({qp.tx_backlog_.front().wr_id, Opcode::send, WcStatus::flushed, 0, 0, qpn});
    qp.tx_backlog_.pop_front();
  }
  qp.tx_base_ = qp.next_psn_;  // window reset: nothing is outstanding
  qp.tx_acked_ = 0;
  in_flight_.for_each([&](std::uint64_t key, InFlight& w) {
    if (w.qpn != qpn) return;
    qp.send_cq().push({w.wr.wr_id, w.wr.opcode, WcStatus::flushed, 0, 0, qpn});
    in_flight_.erase(key);
  });
  qp.to_error();
}

// ------------------------------------------------------------------- cm

void Hca::handle_cm(const wire::IbPacket& p) {
  switch (p.kind) {
    case wire::Kind::cm_connect_req: {
      auto resp = std::make_unique<wire::IbPacket>();
      resp->kind = wire::Kind::cm_connect_resp;
      resp->src = nic_->addr();
      resp->dst = p.src;
      resp->token = p.token;
      resp->wire_bytes = 64;
      resp->status = WcStatus::flushed;  // refused, unless a listener takes it

      auto it = listeners_.find(p.cm_port);
      QueuePair* qp = nullptr;
      if (it != listeners_.end() && p.cm_ud && it->second.on_ud_connect) {
        if (auto answer = it->second.on_ud_connect(p.src, p.src_qpn, p.cm_ep_id)) {
          resp->src_qpn = answer->first;
          resp->cm_ep_id = answer->second;
          resp->status = WcStatus::success;
        }
      } else if (it != listeners_.end() && !p.cm_ud) {
        qp = it->second.make_qp();
        qp->connect(p.src, p.src_qpn);
        resp->src_qpn = qp->qp_num();
        resp->status = WcStatus::success;
      }
      fabric_->transmit(std::move(resp));
      if (qp != nullptr && it->second.on_established) it->second.on_established(*qp);
      return;
    }
    case wire::Kind::cm_connect_resp: {
      auto it = pending_connects_.find(p.token);
      if (it == pending_connects_.end()) return;
      auto state = it->second;
      pending_connects_.erase(it);
      if (state->done) return;  // timed out already
      state->done = true;
      state->err = p.status == WcStatus::success ? Errc::ok : Errc::refused;
      state->peer_qpn = p.src_qpn;
      state->peer_ep_id = p.cm_ep_id;
      if (state->err == Errc::ok && state->qp != nullptr) state->qp->connect(state->dst, p.src_qpn);
      state->resolved->add();
      return;
    }
    case wire::Kind::cm_disconnect: {
      auto it = qps_.find(p.dst_qpn);
      if (it != qps_.end()) flush_qp(*it->second);
      return;
    }
    default:
      RMC_LOG_ERROR("unexpected cm packet kind %d", static_cast<int>(p.kind));
  }
}

sim::Task<Result<std::pair<std::uint32_t, std::uint64_t>>> Hca::handshake(
    sim::NicAddr dst, std::uint16_t port, std::uint32_t local_qpn, std::uint64_t local_ep_id,
    QueuePair* qp, sim::Time timeout) {
  auto state = std::make_shared<PendingConnect>();
  state->qp = qp;
  state->dst = dst;
  state->resolved = std::make_unique<sim::Counter>(*sched_);
  const std::uint64_t token = next_token_++;
  pending_connects_.emplace(token, state);

  auto req = std::make_unique<wire::IbPacket>();
  req->kind = wire::Kind::cm_connect_req;
  req->src = nic_->addr();
  req->dst = dst;
  req->src_qpn = local_qpn;
  req->token = token;
  req->cm_port = port;
  req->cm_ud = qp == nullptr;
  req->cm_ep_id = local_ep_id;
  req->wire_bytes = 64;
  post_packet(std::move(req), costs_.post_wr_ns);

  const bool ok = co_await state->resolved->wait_geq(1, timeout);
  if (!ok) {
    state->done = true;
    pending_connects_.erase(token);
    co_return Errc::timed_out;
  }
  if (state->err != Errc::ok) co_return state->err;
  co_return std::make_pair(state->peer_qpn, state->peer_ep_id);
}

sim::Task<Result<QueuePair*>> Hca::connect(sim::NicAddr dst, std::uint16_t port,
                                           CompletionQueue& send_cq, CompletionQueue& recv_cq,
                                           SharedReceiveQueue* srq, sim::Time timeout) {
  QueuePair& qp = create_qp(send_cq, recv_cq, srq);
  auto peer = co_await handshake(dst, port, qp.qp_num(), 0, &qp, timeout);
  if (!peer.ok()) {
    destroy_qp(qp);
    co_return peer.error();
  }
  co_return &qp;
}

sim::Task<Result<std::pair<std::uint32_t, std::uint64_t>>> Hca::connect_ud(
    sim::NicAddr dst, std::uint16_t port, std::uint32_t local_ud_qpn,
    std::uint64_t local_ep_id, sim::Time timeout) {
  return handshake(dst, port, local_ud_qpn, local_ep_id, nullptr, timeout);
}

void Hca::disconnect(QueuePair& qp) {
  if (qp.state() == QpState::ready) {
    auto bye = std::make_unique<wire::IbPacket>();
    bye->kind = wire::Kind::cm_disconnect;
    bye->src = nic_->addr();
    bye->dst = qp.remote_nic();
    bye->dst_qpn = qp.remote_qpn();
    bye->wire_bytes = 48;
    post_packet(std::move(bye), costs_.post_wr_ns);
  }
  flush_qp(qp);
}

// ------------------------------------------------------------- QueuePair

Status QueuePair::post_send(const SendWr& wr) {
  return post_send_charged(wr, hca_->costs_.post_wr_ns);
}

Status QueuePair::post_send_batch(std::span<const SendWr> wrs) {
  if (wrs.empty()) return {};
  if (wrs.size() == 1) return post_send(wrs.front());
  Hca& hca = *hca_;
  // One doorbell for the whole chain: each WR pays only the WQE-build
  // share; the last WR carries the single doorbell ring. cpu().reserve
  // serializes the charges, so the chain lands N*build + 1*doorbell apart
  // instead of N*(build + doorbell).
  const sim::Time doorbell = std::min(hca.costs_.doorbell_ns, hca.costs_.post_wr_ns);
  const sim::Time build = hca.costs_.post_wr_ns - doorbell;
  obs::registry().counter("verbs.doorbell.batched_wrs").inc(wrs.size());
  for (std::size_t i = 0; i < wrs.size(); ++i) {
    const bool last = i + 1 == wrs.size();
    if (Status st = post_send_charged(wrs[i], build + (last ? doorbell : 0)); !st.ok()) {
      return st;
    }
  }
  return {};
}

Status QueuePair::post_send_charged(const SendWr& wr, sim::Time post_charge) {
  if (state_ != QpState::ready) return Errc::disconnected;
  obs::ProfScope prof{kProfPostSend};
  Hca& hca = *hca_;
  // The local buffer (source, or a Read's destination) must be registered
  // and covered by the lkey.
  if (!hca.pd_.check_local(wr.lkey, wr.local).ok()) return Errc::invalid_argument;

  if (type_ == QpType::ud) {
    // UD: datagram SEND only, per-WR addressing, at most one MTU, no ack.
    if (wr.opcode != Opcode::send || wr.local.size() > kUdMtu) return Errc::invalid_argument;
    auto packet = std::make_unique<wire::IbPacket>();
    packet->kind = wire::Kind::ud_data;
    packet->src = hca.nic_->addr();
    packet->dst = wr.ud_remote_nic;
    packet->src_qpn = qp_num_;
    packet->dst_qpn = wr.ud_remote_qpn;
    packet->payload.assign(wr.local.begin(), wr.local.end());
    packet->imm_data = wr.imm_data;
    packet->wire_bytes = wr.local.size() + 40;  // GRH overhead
    obs::registry().counter("verbs.post.ud_send").inc();
    hca.post_packet(std::move(packet), post_charge);

    // Local completion: the payload was copied out, the buffer is free.
    send_cq_->push({wr.wr_id, Opcode::send, WcStatus::success,
                    static_cast<std::uint32_t>(wr.local.size()), 0, qp_num_});
    return {};
  }

  switch (wr.opcode) {
    case Opcode::send:
      obs::registry().counter("verbs.post.send").inc();
      // Requester-side PSN window: running further ahead than the
      // responder's dedup window can remember would let a retransmitted
      // packet be mistaken for an ancient duplicate and silently dropped.
      if (tx_window_full()) {
        obs::registry().counter("verbs.rc.window_stalls").inc();
        tx_backlog_.push_back(wr);
        return {};
      }
      break;
    case Opcode::rdma_write:
      obs::registry().counter("verbs.post.rdma_write").inc();
      break;
    case Opcode::rdma_read:
      obs::registry().counter("verbs.post.rdma_read").inc();
      break;
    case Opcode::recv:
      return Errc::invalid_argument;
  }
  hca.issue(*this, wr, post_charge);
  hca.arm_retransmit_timer();
  return {};
}

void QueuePair::drain_tx_backlog() {
  while (state_ == QpState::ready && !tx_backlog_.empty() && !tx_window_full()) {
    hca_->issue(*this, tx_backlog_.front(), hca_->costs_.post_wr_ns);
    tx_backlog_.pop_front();
  }
  hca_->arm_retransmit_timer();
}

Status QueuePair::post_recv(const RecvWr& wr) {
  if (state_ == QpState::error) return Errc::disconnected;
  if (srq_) return Errc::invalid_argument;  // must post to the SRQ instead
  auto mr = hca_->pd_.check_local(wr.lkey, wr.buffer);
  if (!mr.ok()) return Errc::invalid_argument;
  recv_queue_.push_back(wr);
  return {};
}

void QueuePair::to_error() {
  if (state_ == QpState::error) return;
  state_ = QpState::error;
  // Flush posted receives.
  while (!recv_queue_.empty()) {
    const RecvWr wr = recv_queue_.front();
    recv_queue_.pop_front();
    recv_cq_->push({wr.wr_id, Opcode::recv, WcStatus::flushed, 0, 0, qp_num_});
  }
  // Async-event delivery, once: moved out so a re-entrant to_error (the
  // handler tearing the endpoint down calls disconnect) cannot re-fire.
  if (on_error_) {
    auto cb = std::move(on_error_);
    on_error_ = nullptr;
    cb(*this);
  }
}

}  // namespace rmc::verbs
