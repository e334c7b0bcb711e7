// Server side of the RFP subsystem: per-client request rings + poll loop.
//
// A RingServer owns one request ring per bootstrapped client endpoint.
// Clients RDMA-write framed commands (ucr/frame.hpp) into their ring slots;
// a single dedicated poll loop sweeps every ring, executes verified
// frames through the memcached server's own executor
// (mc::Server::execute, the one every frontend runs), and
// RDMA-writes the framed response into the client's response arena — one
// doorbell per ring sweep via the runtime's send-batch window. No active
// message, CQ wake-up, or worker hand-off touches the data path.
//
// Poll policy (billed to the server CPU so the bypass is honest): the
// loop spins at its minimum interval while frames arrive, doubles the
// interval toward a tight maximum when sweeps come up empty, and parks
// entirely after park_after_ns of idleness. A parked loop costs nothing;
// clients re-arm it with a one-way wake AM before their first request
// after a long gap (the bootstrap descriptor tells them the threshold). A
// missed wake degrades to the client's op timeout + RPC fallback, never
// to a hang — and parking also keeps Scheduler::run() terminating (a
// perpetual poller would wedge drivers that run the event loop dry).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "common/page_buffer.hpp"
#include "memcached/server.hpp"
#include "memcached/ucr_proto.hpp"
#include "obs/metrics.hpp"
#include "rfp/layout.hpp"
#include "simnet/scheduler.hpp"
#include "ucr/bootstrap.hpp"
#include "ucr/runtime.hpp"

namespace rmc::rfp {

struct RingServerConfig {
  /// The poll loop parks after this much cumulative idleness.
  sim::Time park_after_ns = 200'000;
};

class RingServer {
 public:
  /// Registers the bootstrap + wake AM handlers on `runtime` and executes
  /// ops through `server`, billing poll and execute work to `host`.
  RingServer(ucr::Runtime& runtime, sim::Host& host, mc::Server& server,
             RingServerConfig config = {});
  ~RingServer();
  RingServer(const RingServer&) = delete;
  RingServer& operator=(const RingServer&) = delete;

  const RingServerConfig& config() const { return config_; }
  /// Live (non-tombstoned) client rings.
  std::size_t ring_count() const {
    std::size_t n = 0;
    for (const auto& [id, ring] : rings_) n += ring != nullptr;
    return n;
  }
  bool polling() const { return poll_running_; }

 private:
  /// One bootstrapped client: its exposed request ring, the remote
  /// window of its response arena, and per-slot staging for outgoing
  /// response frames (per-slot because a batched/retransmitted WR reads
  /// its source buffer until acked — slots never have two outstanding
  /// responses, so slot-indexed staging is single-writer by protocol).
  struct ClientRing {
    ucr::Endpoint* ep = nullptr;
    PageBuffer ring;     ///< exposed request ring
    PageBuffer staging;  ///< response frames, slot-indexed
    ucr::Runtime::RemoteMemory request_window;   ///< ring, as shipped
    ucr::Runtime::RemoteMemory response_window;  ///< client arena
    std::uint32_t slot_count = 0;
    std::uint32_t slot_size = 0;
    std::vector<std::uint32_t> expected_seq;  ///< per-slot epoch, starts 1
  };

  /// Build (or rebuild) `ep`'s ring for `req`; the reply descriptor is
  /// zeroed when the proposal is unusable.
  RingDescriptor on_bootstrap(ucr::Endpoint& ep, const RingProposal& req);
  void ensure_polling();
  sim::Task<> poll_loop();
  /// Check and execute one verified request frame and seal the response
  /// frame into the ring's staging slot. Returns the sealed frame length.
  sim::Task<std::size_t> execute(ClientRing& ring, std::uint32_t slot,
                                 std::span<const std::byte> body);
  std::size_t seal_response(ClientRing& ring, std::uint32_t slot,
                            const mc::ucrp::ResponseHeader& resp,
                            std::span<const std::byte> value);
  /// Serve a multiget as one chunk in one response slot. On success
  /// `value_bytes` is set to the value bytes staged into it.
  std::size_t execute_mget(ClientRing& ring, std::uint32_t slot,
                           const mc::ucrp::RequestHeader& req,
                           std::span<const std::byte> key_block, std::size_t& value_bytes);
  /// Advance the slot's expected epoch after its request has been executed
  /// and its response staged. This is the ONLY place the server's half of
  /// the lockstep seq protocol moves (rmclint seqlock-discipline blesses
  /// it by name): bumping before execute would let a fast client reuse the
  /// slot while the old body is still being read.
  static void release_slot(ClientRing& ring, std::uint32_t slot);

  ucr::Runtime* runtime_;
  sim::Host* host_;
  mc::Server* server_;
  RingServerConfig config_;

  // Swept in order when polling — ep-id-keyed ordered map so the sweep
  // order (sim-visible: CPU charges, write order) is deterministic. A
  // null value is a tombstone: handlers retiring a ring mid-sweep null
  // the pointer rather than erase the node (the poll loop may be
  // suspended inside a range-for over this map); tombstoned nodes are
  // erased only from straight-line poll code at the sweep top.
  std::map<std::uint64_t, std::unique_ptr<ClientRing>> rings_;
  /// Rings retired mid-sweep (endpoint failure, re-bootstrap) park here
  /// until the next sweep top: the in-flight sweep may still hold spans
  /// into them, so they are freed only from straight-line poll code.
  std::vector<std::unique_ptr<ClientRing>> graveyard_;
  bool poll_running_ = false;
  std::uint64_t down_handler_id_ = 0;

  /// Ready slots found by the current sweep of one ring (scratch,
  /// reserved to the slot-count ceiling so steady state never allocates).
  std::vector<std::uint32_t> ready_slots_;
  std::vector<std::size_t> ready_lens_;  ///< sealed frame length per ready slot

  obs::Counter* bootstraps_;
  obs::Counter* wakes_;
  obs::Counter* torn_frames_;
  obs::Counter* sweeps_;
  obs::Counter* frames_;
  obs::Counter* parks_;
};

}  // namespace rmc::rfp
