// Queue pairs and the shared receive queue.
//
// A QueuePair is the RC communication endpoint of §II-A1: the application
// posts work requests; the HCA executes them and reports completions. The
// SharedReceiveQueue implements the SRQ scalability design the paper
// inherits from MVAPICH ([11] Sur et al., IPDPS'06): many QPs draw receive
// buffers from one pool instead of pre-posting per connection.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/ring_deque.hpp"
#include "verbs/cq.hpp"
#include "verbs/types.hpp"

namespace rmc::verbs {

class Hca;

/// Receive-buffer pool shared across QPs (ibv_srq). LIFO: a message lands
/// in the buffer posted most recently, so a runtime that reposts each
/// buffer as soon as it is done keeps landing in the same few warm buffers
/// instead of cycling through the whole pool. Which buffer a message lands
/// in is not part of the model; no cost reads it.
class SharedReceiveQueue {
 public:
  void post(const RecvWr& wr) { stack_.push_back(wr); }
  bool empty() const { return stack_.empty(); }
  std::size_t depth() const { return stack_.size(); }

  RecvWr take() {
    const RecvWr wr = stack_.back();
    stack_.pop_back();
    return wr;
  }

 private:
  std::vector<RecvWr> stack_;
};

enum class QpState : std::uint8_t { reset, ready, error };

class QueuePair {
 public:
  QueuePair(Hca& hca, std::uint32_t qp_num, QpType type, CompletionQueue& send_cq,
            CompletionQueue& recv_cq, SharedReceiveQueue* srq)
      : hca_(&hca), qp_num_(qp_num), type_(type), send_cq_(&send_cq), recv_cq_(&recv_cq),
        srq_(srq) {
    // UD QPs are connectionless: usable as soon as they exist.
    if (type_ == QpType::ud) state_ = QpState::ready;
  }

  QueuePair(const QueuePair&) = delete;
  QueuePair& operator=(const QueuePair&) = delete;

  std::uint32_t qp_num() const { return qp_num_; }
  QpType type() const { return type_; }
  QpState state() const { return state_; }
  CompletionQueue& send_cq() { return *send_cq_; }
  CompletionQueue& recv_cq() { return *recv_cq_; }

  /// Wire this QP to its peer (the modify_qp INIT->RTR->RTS dance, done
  /// either manually in tests or by the connection manager).
  void connect(std::uint32_t remote_nic, std::uint32_t remote_qpn) {
    remote_nic_ = remote_nic;
    remote_qpn_ = remote_qpn;
    state_ = QpState::ready;
  }

  std::uint32_t remote_nic() const { return remote_nic_; }
  std::uint32_t remote_qpn() const { return remote_qpn_; }

  /// Post a send-queue WR (send / rdma_read / rdma_write). Validates local
  /// keys synchronously (like a doorbell would fault); transfer results
  /// arrive on send_cq.
  Status post_send(const SendWr& wr);

  /// Post a chain of send-queue WRs with ONE doorbell (ibv_post_send with
  /// a linked wr list): every WR pays the WQE-build share of post_wr_ns,
  /// the doorbell share is charged once, on the last WR of the chain.
  /// Stops at the first invalid WR and returns its error — earlier WRs in
  /// the chain are already posted, matching the bad_wr semantics of real
  /// verbs. A WR deferred by the PSN window pays a fresh full doorbell
  /// when the backlog later drains (it genuinely needs its own ring then).
  Status post_send_batch(std::span<const SendWr> wrs);

  /// Post a receive buffer. With an SRQ attached, recvs must be posted to
  /// the SRQ instead (matching ibverbs, which errors ENOTSUP).
  Status post_recv(const RecvWr& wr);

  /// Move to error state: flush pending receives (the HCA flushes pending
  /// sends). Further posts fail with disconnected.
  void to_error();

  /// Invoked exactly once when the QP transitions to error — from either
  /// side's disconnect, a peer's cm_disconnect, or retransmission giving
  /// up. This is how the layer above (UCR) learns a connection died
  /// without polling the CQ (the async-event channel of real verbs).
  void set_on_error(std::function<void(QueuePair&)> fn) { on_error_ = std::move(fn); }

 private:
  friend class Hca;

  /// PSN window depth, shared by both sides of the protocol. The
  /// requester never lets more than this many numbered SENDs run unacked
  /// (excess WRs wait in tx_backlog_), which is exactly what makes the
  /// responder's "more than kPsnWindow behind the head = ancient
  /// duplicate" classification sound: by the time PSN H arrives, every
  /// PSN <= H - kPsnWindow has been acked, i.e. delivered. Without the
  /// requester-side bound, a retransmit of a genuinely lost packet could
  /// fall behind the window and be swallowed as a duplicate — a silent
  /// loss on a reliable QP.
  static constexpr std::uint32_t kPsnWindow = 64;

  /// Responder-side duplicate detection over the PSN window. rx_is_dup
  /// peeks (so an RNR'd packet isn't marked delivered); rx_mark records a
  /// successful delivery.
  bool rx_is_dup(std::uint32_t psn) const {
    if (!rx_any_ || psn > rx_highest_psn_) return false;
    const std::uint32_t back = rx_highest_psn_ - psn;
    if (back >= kPsnWindow) return true;  // ancient: long since delivered
    return (rx_seen_ >> back) & 1;
  }
  void rx_mark(std::uint32_t psn) {
    if (!rx_any_) {
      rx_any_ = true;
      rx_highest_psn_ = psn;
      rx_seen_ = 1;
      return;
    }
    if (psn > rx_highest_psn_) {
      const std::uint32_t shift = psn - rx_highest_psn_;
      rx_seen_ = (shift >= kPsnWindow ? 0 : rx_seen_ << shift) | 1;
      rx_highest_psn_ = psn;
      return;
    }
    const std::uint32_t back = rx_highest_psn_ - psn;
    if (back < kPsnWindow) rx_seen_ |= std::uint64_t{1} << back;
  }

  /// Requester-side sliding window. The window is on the PSN *range*
  /// [tx_base_, tx_base_ + kPsnWindow), not a count of in-flight WRs: one
  /// lost packet must stall the sender before the PSN space runs more
  /// than a window ahead of it, even while newer sends keep being acked.
  bool tx_window_full() const { return next_psn_ - tx_base_ >= kPsnWindow; }
  void ack_psn(std::uint32_t psn) {
    if (psn < tx_base_ || psn >= next_psn_) return;  // stale or never issued
    tx_acked_ |= std::uint64_t{1} << (psn - tx_base_);
    while (tx_acked_ & 1) {  // slide past the contiguous acked prefix
      tx_acked_ >>= 1;
      ++tx_base_;
    }
  }

  /// Shared body of post_send / post_send_batch: validate, window-check,
  /// and issue one WR, charging `post_charge` host-CPU ns for the post
  /// (post_wr_ns for a solo post; the WQE-build share for batched WRs).
  Status post_send_charged(const SendWr& wr, sim::Time post_charge);

  /// Issue backlogged SENDs while the window has room.
  void drain_tx_backlog();

  /// HCA side: take the next receive buffer (SRQ first if attached).
  Result<RecvWr> take_recv() {
    if (srq_) {
      if (srq_->empty()) return Errc::no_resources;
      return srq_->take();
    }
    if (recv_queue_.empty()) return Errc::no_resources;
    RecvWr wr = recv_queue_.front();
    recv_queue_.pop_front();
    return wr;
  }

  Hca* hca_;
  std::uint32_t qp_num_;
  QpType type_ = QpType::rc;
  CompletionQueue* send_cq_;
  CompletionQueue* recv_cq_;
  SharedReceiveQueue* srq_;
  RingDeque<RecvWr> recv_queue_;
  QpState state_ = QpState::reset;
  std::uint32_t remote_nic_ = 0;
  std::uint32_t remote_qpn_ = 0;
  std::function<void(QueuePair&)> on_error_;
  std::uint32_t next_psn_ = 1;        ///< requester: next send_data PSN
  std::uint32_t tx_base_ = 1;         ///< requester: lowest unacked PSN
  std::uint64_t tx_acked_ = 0;        ///< requester: acked bitmap above tx_base_
  RingDeque<SendWr> tx_backlog_;      ///< requester: SENDs awaiting window room
  std::uint32_t rx_highest_psn_ = 0;  ///< responder: dedup window head
  std::uint64_t rx_seen_ = 0;         ///< responder: bitmap below the head
  bool rx_any_ = false;
};

}  // namespace rmc::verbs
