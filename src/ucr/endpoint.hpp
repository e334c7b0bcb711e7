// UCR endpoints (§IV-A).
//
// Unlike MPI ranks, UCR connections are first-class endpoints: a client
// establishes one with a server, both sides can send active messages over
// it, and the failure of one endpoint (peer death, timeout) never affects
// others — the fault-isolation requirement of the data-center domain.
#pragma once

#include <cstdint>
#include <vector>

#include "common/ring_deque.hpp"
#include "simnet/time.hpp"
#include "verbs/qp.hpp"

namespace rmc::ucr {

class Runtime;

enum class EpState : std::uint8_t { ready, failed, closed };

/// Endpoint type requested at connect time (§IV-A: "The client has a
/// choice of the type of end-point that can be used (reliable vs
/// unreliable)"). The paper evaluates reliable endpoints; unreliable
/// (UD-based) endpoints implement its §VII future work: eager-only active
/// messages over a single shared datagram QP, so a server holds no
/// per-client QP or buffer state.
enum class EpType : std::uint8_t { reliable, unreliable };

class Endpoint {
 public:
  Endpoint(Runtime& runtime, std::uint64_t id, verbs::QueuePair& qp, std::uint32_t credits,
           EpType type = EpType::reliable)
      : runtime_(&runtime), id_(id), qp_(&qp), type_(type), send_credits_(credits) {}

  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  std::uint64_t id() const { return id_; }
  EpType type() const { return type_; }
  EpState state() const { return state_; }
  Runtime& runtime() { return *runtime_; }

  /// Application cookie (e.g. the memcached connection object).
  void set_user_data(void* p) { user_data_ = p; }
  void* user_data() const { return user_data_; }

  std::uint32_t send_credits() const { return send_credits_; }
  std::size_t backlog_size() const { return backlog_.size(); }

 private:
  friend class Runtime;

  Runtime* runtime_;
  std::uint64_t id_;
  verbs::QueuePair* qp_;  ///< own RC QP, or the runtime's shared UD QP
  EpType type_ = EpType::reliable;
  EpState state_ = EpState::ready;  ///< adopted once its connection is up
  void* user_data_ = nullptr;
  sim::Time last_heard_ = 0;  ///< last inbound message (keepalive clock)
  sim::Time retired_at_ = 0;  ///< non-zero once queued for reclamation

  // UD addressing (unreliable endpoints): where datagrams for this
  // endpoint go, and which endpoint id to stamp into their headers.
  std::uint32_t ud_remote_nic_ = 0;
  std::uint32_t ud_remote_qpn_ = 0;
  std::uint32_t ud_remote_ep_ = 0;

  // ---- flow control (credit window, §IV buffer management) ----
  std::uint32_t send_credits_;      ///< my right to send eager messages
  std::uint32_t credits_owed_ = 0;  ///< peer messages processed, not yet credited
  /// Sends waiting for credits, packed: AmWire + header (+ eager data).
  RingDeque<std::vector<std::byte>> backlog_;
};

}  // namespace rmc::ucr
