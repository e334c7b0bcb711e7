// Client side of the RFP subsystem: the op channel.
//
// A Channel bootstraps a ring pair with one ucr::BootstrapCall (the
// client ships the window of its response arena, the server answers with
// the window of the request ring it allocated), then serves whole
// memcached ops without any further active message: the request is
// framed into a ring slot and RDMA-written to the server, and the
// response is polled *locally* out of the slot-matched response arena
// frame the server RDMA-writes back. Slot epochs advance in lockstep —
// request and response of one op carry the same seq — so neither side
// ever clears a slot.
//
// The channel is deliberately non-authoritative about failure: every
// non-ok execute() result (ring full, oversize body, endpoint trouble,
// poll timeout, torn frame beyond the retry budget, a reply that asks for
// a re-run because it did not fit its slot) means "run this op over
// classic RPC". The caller keeps the RPC path wired and falls back
// transparently, exactly like the one-sided GET ladder.
//
// The client polls its response slot every kPollNs through the
// scheduler's poll lane (simnet/scheduler.hpp): a tick at which the slot
// still holds an older epoch, and nothing else ends the op, resumes
// nothing and costs no event.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/page_buffer.hpp"
#include "memcached/ucr_proto.hpp"
#include "obs/metrics.hpp"
#include "rfp/layout.hpp"
#include "simnet/event.hpp"
#include "ucr/bootstrap.hpp"
#include "ucr/runtime.hpp"

namespace rmc::rfp {

struct ChannelConfig {
  /// Proposed ring geometry (the server may clamp both; bootstrap adopts
  /// the echoed values). slot_count bounds the ops in flight; slot_size
  /// bounds one framed request/response — larger bodies fall back to RPC.
  std::uint32_t slot_count = 16;
  std::uint32_t slot_size = 2048;
  /// Torn response observations tolerated per op before falling back.
  std::uint32_t max_torn_retries = 2;
};

/// A completed RFP op. `body` aliases the response arena slot: everything
/// after the ResponseHeader (the value for GET, the chunk block for
/// mget). It stays valid until release(slot) hands the slot back.
struct OpResult {
  mc::ucrp::ResponseHeader header;
  std::span<const std::byte> body;
  std::uint32_t slot = 0;
};

class Channel {
 public:
  /// `host` is the client host billed for request framing.
  Channel(ucr::Runtime& runtime, sim::Host& host, ChannelConfig config = {});
  ~Channel();
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// The one RPC: exchange ring windows over `ep`. Idempotent while the
  /// descriptor is valid and still bound to `ep`.
  sim::Task<Status> bootstrap(ucr::Endpoint& ep, sim::Time timeout = 1 * kNsPerSec);

  bool ready() const { return descriptor_.valid() && ep_ != nullptr; }
  const RingDescriptor& descriptor() const { return descriptor_; }

  /// Run one op through the rings. The request body is laid out as
  /// `hdr | head | tail` (key + inline value for plain ops; the packed
  /// key block as `head` for mget), and hdr.key_len is set to head's size.
  /// Non-ok = use the RPC path, including a reply that asks for a re-run
  /// (the answer did not fit one response slot). Ok = the server's
  /// definitive answer, a server_error included; the caller owns `slot`
  /// until release().
  sim::Task<Result<OpResult>> execute(ucr::Endpoint& ep, mc::ucrp::RequestHeader hdr,
                                      std::span<const std::byte> head,
                                      std::span<const std::byte> tail, sim::Time timeout);

  /// Hand a completed op's slot back (advances its epoch; the body span
  /// of that op dies here).
  void release(std::uint32_t slot);

  /// Largest request body (RequestHeader + key + value) execute() can
  /// frame; 0 until bootstrapped.
  std::uint32_t max_body() const {
    return ready() ? ucr::body_capacity(descriptor_.slot_size) : 0;
  }
  std::uint32_t slots_in_flight() const { return busy_slots_; }

  /// Test hook: the raw response arena (tests forge torn frames in it).
  std::span<std::byte> response_arena_for_test() { return response_arena_.span(); }
  std::uint32_t slot_seq_for_test(std::uint32_t slot) const { return slots_[slot].seq; }

 private:
  enum class SlotState : std::uint8_t {
    free,  ///< claimable
    busy,  ///< op in flight, owner polling
    lost,  ///< owner gave up (timeout/torn budget); response may still land
  };
  struct Slot {
    SlotState state = SlotState::free;
    std::uint32_t seq = 1;  ///< epoch of the next/current op on this slot
  };

  /// One op's wait for its response frame, armed in the scheduler's poll
  /// lane. A tick is idle while execute()'s loop would only sleep again.
  struct ResponseWait : sim::Scheduler::PollNode {
    const Channel* channel = nullptr;
    const ucr::Endpoint* ep = nullptr;
    /// slots_epoch_ at claim time. A re-bootstrap while the op is
    /// suspended rebuilds slots_ and bumps slots_epoch_; the claimed slot
    /// id may then be free, or busy under a new owner, so every
    /// abandonment path re-checks the generation before touching it.
    std::uint64_t generation = 0;
    std::uint32_t slot = 0;
    std::uint32_t op_epoch = 0;  ///< the seq both frames of the op carry
    sim::Time deadline = sim::kNoTimeout;
  };
  /// Whether the op still owns its slot on a live channel bound to its
  /// endpoint.
  bool serving(const ResponseWait& wait) const {
    return slots_epoch_ == wait.generation && ready() && ep_ == wait.ep;
  }
  /// ResponseWait's idle predicate: still serving, no frame of the op's
  /// epoch in the slot (not even a torn one), and the deadline not reached.
  static bool response_pending(sim::Scheduler& sched, sim::Scheduler::PollNode& node);

  std::span<std::byte> request_slot(std::uint32_t slot);
  std::span<std::byte> response_slot(std::uint32_t slot) const;
  /// Free lost slots whose late response has landed (their epoch closed).
  void reclaim_lost();
  std::uint32_t claim_slot();  ///< slot_count = none free
  void invalidate();

  ucr::Runtime* runtime_;
  sim::Host* host_;
  ChannelConfig config_;
  ucr::BootstrapCall bootstrap_call_;
  std::uint64_t down_handler_id_ = 0;

  ucr::Endpoint* ep_ = nullptr;    ///< endpoint the rings are bound to
  RingDescriptor descriptor_{};    ///< server's reply (adopted geometry)

  PageBuffer response_arena_;   ///< exposed; server writes here
  PageBuffer request_staging_;  ///< registered; frames built here
  std::vector<Slot> slots_;
  /// Bumped each time slots_ is rebuilt (re-bootstrap); see ResponseWait.
  std::uint64_t slots_epoch_ = 0;
  std::uint32_t busy_slots_ = 0;
  sim::Time last_traffic_ = 0;  ///< wake-AM bookkeeping vs server parking

  obs::Counter* ops_;
  obs::Counter* fallbacks_;
  obs::Counter* ring_full_;
  obs::Counter* oversize_;
  obs::Counter* torn_retries_;
};

}  // namespace rmc::rfp
