// The Host Channel Adapter: the device that executes work requests.
//
// One Hca per (host, fabric) pair. It owns a NIC on the fabric, a
// protection domain, the QP table, and the RC protocol engine (a dispatch
// coroutine draining the NIC inbox). It also implements the connection
// manager (rdma_cm-style listen/connect), which the paper's endpoint model
// (§IV-A) builds on.
//
// One work-request path serves the three RC operations, SEND, RDMA Write
// and RDMA Read. A posted WR lives in one in-flight table from post to
// completion; one function builds its request packet, for the first post
// and for every resend; an ack or a read response retires it through one
// completion. One sweep resends what went unanswered for an RTO, and one
// flush fails what is left when the QP dies. On the responder side every
// inbound request finds its QP through one check: it must exist, be
// ready and be of the packet's transport, or an RC request is answered
// flushed and a UD datagram vanishes.
//
// The crucial modeling property: one-sided RDMA operations are executed
// entirely by this dispatch engine at adapter cost — they never charge the
// remote *host's* CPU. That is the OS-bypass the paper measures.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>

#include "common/error.hpp"
#include "common/slotmap.hpp"
#include "simnet/event.hpp"
#include "simnet/fabric.hpp"
#include "simnet/scheduler.hpp"
#include "simnet/task.hpp"
#include "verbs/memory.hpp"
#include "verbs/packets.hpp"
#include "verbs/qp.hpp"

namespace rmc::verbs {

class Hca {
 public:
  Hca(sim::Scheduler& sched, sim::Fabric& fabric, sim::Host& host, VerbsCosts costs = {});
  Hca(const Hca&) = delete;
  Hca& operator=(const Hca&) = delete;

  sim::NicAddr addr() const { return nic_->addr(); }
  sim::Host& host() { return *host_; }
  sim::Scheduler& scheduler() { return *sched_; }
  ProtectionDomain& pd() { return pd_; }

  /// Register memory (pins pages; charges the registration CPU cost).
  MemoryRegion& reg_mr(std::span<std::byte> memory);
  void dereg_mr(MemoryRegion& mr) { pd_.deregister_mr(mr); }

  std::unique_ptr<CompletionQueue> create_cq(CqMode mode = CqMode::polling);

  /// Create an RC QP; it must be connect()ed (manually or via CM) before
  /// posting sends.
  QueuePair& create_qp(CompletionQueue& send_cq, CompletionQueue& recv_cq,
                       SharedReceiveQueue* srq = nullptr) {
    return add_qp(QpType::rc, send_cq, recv_cq, srq);
  }

  /// Create a UD QP (§VII future work): connectionless datagrams addressed
  /// per-WR, no acknowledgements, silent drop when no receive is posted.
  QueuePair& create_ud_qp(CompletionQueue& send_cq, CompletionQueue& recv_cq,
                          SharedReceiveQueue* srq = nullptr) {
    return add_qp(QpType::ud, send_cq, recv_cq, srq);
  }
  void destroy_qp(QueuePair& qp);

  // ----------------------------------------------------- connection mgmt
  struct ListenerConfig {
    /// Called per incoming connection to create the passive-side QP (with
    /// whatever CQs/SRQ the application chooses — e.g. a round-robin
    /// worker's CQ, as the memcached server does).
    std::function<QueuePair*()> make_qp;
    /// Called once the QP is wired to the peer.
    std::function<void(QueuePair&)> on_established;
    /// UD sideband (§VII future work): called when a datagram endpoint
    /// asks to attach. Receives the peer's (nic, UD qpn, endpoint id);
    /// returns the local (UD qpn, endpoint id) to answer with, or nullopt
    /// to refuse.
    std::function<std::optional<std::pair<std::uint32_t, std::uint64_t>>(
        sim::NicAddr, std::uint32_t, std::uint64_t)>
        on_ud_connect;
  };

  void listen(std::uint16_t port, ListenerConfig config) {
    listeners_[port] = std::move(config);
  }
  void stop_listen(std::uint16_t port) { listeners_.erase(port); }

  /// Active-side connect: creates a QP, performs the CM handshake, and
  /// resolves to the ready QP (or refused / timed_out).
  sim::Task<Result<QueuePair*>> connect(sim::NicAddr dst, std::uint16_t port,
                                        CompletionQueue& send_cq, CompletionQueue& recv_cq,
                                        SharedReceiveQueue* srq = nullptr,
                                        sim::Time timeout = 1 * kNsPerSec);

  /// UD sideband handshake: announce our (UD qpn, endpoint id) to the
  /// listener on `port`; resolves to the peer's (UD qpn, endpoint id).
  sim::Task<Result<std::pair<std::uint32_t, std::uint64_t>>> connect_ud(
      sim::NicAddr dst, std::uint16_t port, std::uint32_t local_ud_qpn,
      std::uint64_t local_ep_id, sim::Time timeout = 1 * kNsPerSec);

  /// Tear a connection down: notifies the peer, errors the QP, flushes
  /// outstanding WRs with WcStatus::flushed.
  void disconnect(QueuePair& qp);

  // ------------------------------------------------------------- stats
  std::uint64_t messages_handled() const { return messages_handled_; }
  std::size_t qp_count() const { return qps_.size(); }
  sim::Nic& nic() { return *nic_; }

 private:
  friend class QueuePair;

  /// One RC work request (SEND, RDMA Write or RDMA Read) from post to
  /// completion. `wr.local` stays valid per the verbs contract: the
  /// application owns the buffer until the completion is delivered.
  struct InFlight {
    std::uint32_t qpn = 0;
    SendWr wr;
    std::uint32_t psn = 0;        ///< SENDs only; 0 for Writes and Reads
    sim::Time posted_at = 0;      ///< requester-side span start (tracing)
    sim::Time deadline = 0;       ///< resend when no answer came by then
    std::uint32_t retries_left = kRcRetryCount;
  };
  struct PendingConnect {
    bool done = false;
    Errc err = Errc::ok;
    QueuePair* qp = nullptr;  ///< RC connect: QP to wire to the peer
    sim::NicAddr dst = 0;
    std::uint32_t peer_qpn = 0;  ///< the listener's answer
    std::uint64_t peer_ep_id = 0;
    std::unique_ptr<sim::Counter> resolved;
  };

  QueuePair& add_qp(QpType type, CompletionQueue& send_cq, CompletionQueue& recv_cq,
                    SharedReceiveQueue* srq);

  /// Charge `post_charge` host-CPU ns for the post (WQE build + doorbell,
  /// or a doorbell-batched share of it) and then inject `packet`.
  void post_packet(std::unique_ptr<wire::IbPacket> packet, sim::Time post_charge);

  /// The active side of the CM handshake, for connect (`qp` set) and
  /// connect_ud (`qp` null, `local_ep_id` announced): resolves to the
  /// peer's (qpn, endpoint id). An RC `qp` is wired as the answer lands.
  sim::Task<Result<std::pair<std::uint32_t, std::uint64_t>>> handshake(
      sim::NicAddr dst, std::uint16_t port, std::uint32_t local_qpn, std::uint64_t local_ep_id,
      QueuePair* qp, sim::Time timeout);

  sim::Task<> dispatch();
  void handle(std::unique_ptr<wire::IbPacket> packet);
  void handle_cm(const wire::IbPacket& p);

  // Responder side. respond() finds the QP of every inbound request (SEND,
  // UD datagram, RDMA Write, RDMA Read) through one check; deliver() hands
  // a SEND or datagram to a receive; answer() acks an RC request, or
  // answers a Read with its response.
  void respond(const wire::IbPacket& p);
  void deliver(QueuePair& qp, const wire::IbPacket& p);
  void answer(const wire::IbPacket& request, WcStatus status);

  // Requester side: issue() puts an RC work request in flight and posts
  // its request; resend() posts the same request again; complete() retires
  // it on its ack or read response.
  void issue(QueuePair& qp, const SendWr& wr, sim::Time post_charge);
  std::unique_ptr<wire::IbPacket> request_packet(const QueuePair& qp, std::uint64_t token,
                                                 const InFlight& w);
  void resend(std::uint64_t token, InFlight& w);
  void complete(const wire::IbPacket& p);

  /// Flush every WR outstanding on `qp` with WcStatus::flushed and move
  /// it to error (which notifies the owner via on_error).
  void flush_qp(QueuePair& qp);

  // RC retransmission: one periodic sweeper per HCA, armed only while
  // unacked WRs exist (so an idle HCA schedules nothing and run() still
  // terminates).
  void arm_retransmit_timer();
  void sweep_retransmits();

  sim::Scheduler* sched_;
  sim::Fabric* fabric_;
  sim::Host* host_;
  sim::Nic* nic_;
  VerbsCosts costs_;
  ProtectionDomain pd_;

  std::unordered_map<std::uint32_t, QueuePair*> qps_;
  std::vector<std::unique_ptr<QueuePair>> qp_storage_;
  std::uint32_t next_qpn_ = 1;
  std::uint64_t next_token_ = 1;

  // In-flight RC work requests keyed by the token that crosses the wire:
  // the SlotMap key (slot | generation) *is* the token, so per-message
  // bookkeeping recycles slots instead of churning unordered_map nodes.
  SlotMap<InFlight> in_flight_;
  std::unordered_map<std::uint64_t, std::shared_ptr<PendingConnect>> pending_connects_;
  std::unordered_map<std::uint16_t, ListenerConfig> listeners_;

  bool rto_armed_ = false;
  std::vector<std::uint64_t> rto_scratch_;  ///< expired tokens, reused per sweep

  std::uint64_t messages_handled_ = 0;
};

}  // namespace rmc::verbs
