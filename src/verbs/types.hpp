// Public types of the software verbs layer.
//
// This mirrors the OpenFabrics verbs surface the paper builds UCR on
// (§II-A1): queue pairs with send/receive work requests, RDMA READ/WRITE,
// completion queues drained by polling, and registered memory with
// lkey/rkey protection. Names follow ibverbs conventions (WR, WC, QP, CQ,
// MR) so the UCR code above reads like real verbs code.
#pragma once

#include <cstdint>
#include <span>

#include "simnet/time.hpp"

namespace rmc::verbs {

/// Work-request opcodes (the subset UCR and the tests need).
enum class Opcode : std::uint8_t {
  send,        ///< two-sided SEND, consumes a posted RECV at the target
  recv,        ///< receive completion (never posted as a send WR)
  rdma_write,  ///< one-sided write into a remote MR; no remote CPU involved
  rdma_read,   ///< one-sided read from a remote MR; no remote CPU involved
};

/// Completion status, modeled on ibv_wc_status.
enum class WcStatus : std::uint8_t {
  success,
  local_protection_error,   ///< bad lkey / out-of-bounds local access
  remote_access_error,      ///< bad rkey / out-of-bounds remote access
  receiver_not_ready,       ///< SEND arrived with no RECV posted (RNR)
  flushed,                  ///< QP went to error state with WRs outstanding
  retry_exceeded,           ///< RC retransmission gave up (peer dead / link cut)
};

/// Queue-pair transport type. RC is what the paper evaluates; UD is its
/// §VII future work ("leverage the Unreliable Datagram transport to scale
/// up the total number of clients").
enum class QpType : std::uint8_t { rc, ud };

/// One entry of a completion queue (ibv_wc).
struct WorkCompletion {
  std::uint64_t wr_id = 0;
  Opcode opcode = Opcode::send;
  WcStatus status = WcStatus::success;
  std::uint32_t byte_len = 0;   ///< bytes received / transferred
  std::uint32_t imm_data = 0;   ///< immediate data carried by SEND
  std::uint32_t qp_num = 0;     ///< QP this completion belongs to
  std::uint32_t src_qp = 0;     ///< UD receives: sender's QP number
  std::uint32_t src_nic = 0;    ///< UD receives: sender's fabric address
};

/// Memory-region access key pair. lkey authorizes local use in WRs; rkey is
/// handed to remote peers for one-sided access.
struct MrKeys {
  std::uint32_t lkey = 0;
  std::uint32_t rkey = 0;
};

/// Send-queue work request (ibv_send_wr, flattened to a single SGE — UCR
/// never needs gather lists because headers and eager data are packed).
struct SendWr {
  std::uint64_t wr_id = 0;
  Opcode opcode = Opcode::send;
  /// Local buffer: source for send/rdma_write, destination for rdma_read.
  std::span<std::byte> local{};
  std::uint32_t lkey = 0;
  /// Remote target for one-sided ops (ignored for send).
  std::uint64_t remote_addr = 0;
  std::uint32_t rkey = 0;
  /// Immediate data delivered with SEND.
  std::uint32_t imm_data = 0;
  /// UD only: datagram destination (the address-handle equivalent).
  std::uint32_t ud_remote_nic = 0;
  std::uint32_t ud_remote_qpn = 0;
};

/// Receive-queue work request.
struct RecvWr {
  std::uint64_t wr_id = 0;
  std::span<std::byte> buffer{};
  std::uint32_t lkey = 0;
};

/// Completion detection mode (§II-A1: "Polling often results in the lowest
/// latency"). Event mode adds the interrupt + wake-up cost to every
/// completion, like ibv_req_notify_cq + epoll.
enum class CqMode : std::uint8_t { polling, event_driven };

/// Host-side and adapter-side cost model for verbs operations. These are
/// the OS-bypass numbers that make verbs fast: posting a WR is a doorbell
/// write, not a syscall. The fields are the ones the testbed's cluster
/// profiles set; the constants below are the same on every cluster.
struct VerbsCosts {
  sim::Time post_wr_ns = 120;        ///< build WQE + doorbell (user space)
  /// Of post_wr_ns, the share attributable to ringing the NIC doorbell
  /// (the MMIO write that tells the adapter "descriptors are ready").
  /// QueuePair::post_send_batch charges this once per chain instead of
  /// once per WR; a single post still costs exactly post_wr_ns, so
  /// non-batched timings are unchanged. Clamped to post_wr_ns.
  sim::Time doorbell_ns = 40;
  sim::Time hca_process_ns = 250;    ///< adapter packet processing, per message
  /// In-bound RDMA Write processing, per message. Real adapters place an
  /// incoming write cheaper than a SEND (no WQE consumed, no CQE raised at
  /// the target), so every testbed profile sets it below hca_process_ns;
  /// the default equals the default hca_process_ns.
  sim::Time hca_inbound_write_ns = 250;
};

inline constexpr sim::Time kPollCqNs = 60;          ///< per-completion poll cost
inline constexpr sim::Time kInterruptNs = 4000;     ///< event-mode completion wake-up
inline constexpr sim::Time kRegMrBaseNs = 900;      ///< memory registration: pin + table setup
inline constexpr sim::Time kRegMrPerPageNs = 90;    ///< per 4 KiB page
inline constexpr std::uint32_t kAckBytes = 30;      ///< RC acknowledgement wire size
inline constexpr std::uint32_t kReadReqBytes = 48;  ///< RDMA read request wire size
inline constexpr std::uint32_t kUdMtu = 2048;       ///< max UD datagram payload (path MTU)
/// RC retransmission timeout: an unacked RC WR is resent after this long
/// (ibv qp_attr.timeout equivalent; the interval doubles per retry). Must
/// comfortably exceed serialization + receiver queueing of the largest
/// message under fan-in congestion, so lossless runs never retransmit —
/// real HCAs default far higher (~67 ms) for the same reason.
inline constexpr sim::Time kRcRetransmitNs = 10'000'000;
/// Retries before the WR completes with retry_exceeded and the QP is
/// moved to error (ibv qp_attr.retry_cnt equivalent).
inline constexpr std::uint32_t kRcRetryCount = 7;

}  // namespace rmc::verbs
