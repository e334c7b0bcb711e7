// The Unified Communication Runtime (§IV) — the paper's core contribution.
//
// UCR exposes an active-message API over verbs:
//
//   send_message(ep, msg_id, header, data,
//                origin_counter, target_counter, completion_counter)
//
// mirroring the paper's ucr_send_message. Messages whose wire header +
// user header + data fit one pre-registered 8 KB buffer go *eager*: one
// SEND, data memcpy'd out of the network buffer at the target (Fig. 2b).
// Larger messages go *rendezvous*: the SEND carries only the header plus
// the (addr, rkey) of the origin's data; the target's header handler names
// a destination buffer and UCR pulls the payload with an RDMA READ
// (Fig. 2a) — zero copies on either side.
//
// Counters (§IV-C): origin_counter bumps when the origin's buffers are
// reusable (immediately for eager, on an internal ack for rendezvous);
// target_counter is a counter *at the target*, named by a CounterRef the
// origin learned earlier, bumped after the completion handler runs;
// completion_counter bumps at the origin when the target's completion
// handler has run (internal ack). NULL/invalid counters suppress the
// corresponding internal messages, exactly as the paper specifies.
//
// Flow control: per-endpoint credit window over a shared receive queue
// (SRQ), the MVAPICH-derived buffer-scalability design; senders without
// credits queue in a backlog that drains as credits return (piggybacked on
// reverse traffic or via explicit credit messages).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/error.hpp"
#include "common/page_buffer.hpp"
#include "common/slotmap.hpp"
#include "simnet/event.hpp"
#include "simnet/task.hpp"
#include "ucr/config.hpp"
#include "ucr/endpoint.hpp"
#include "ucr/wire.hpp"
#include "verbs/hca.hpp"

namespace rmc::ucr {

/// A shippable reference to a counter living at another process. Obtained
/// from Runtime::export_counter and carried inside AM headers.
struct CounterRef {
  std::uint64_t id = 0;
  bool valid() const { return id != 0; }
};

/// Active-message handler pair (§IV-B).
struct AmHandler {
  /// Header handler: runs on arrival; identifies the destination buffer
  /// for the data (must be at least data_len bytes; return an empty span
  /// to drop the payload). Runs "short logic" — it is charged the
  /// dispatch cost, so keep real work in on_complete or a worker.
  std::function<std::span<std::byte>(Endpoint&, std::span<const std::byte> header,
                                     std::uint32_t data_len)>
      on_header;
  /// Completion handler: runs once the data is in place.
  std::function<void(Endpoint&, std::span<const std::byte> header, std::span<std::byte> data)>
      on_complete;
};

class Runtime {
 public:
  Runtime(verbs::Hca& hca, UcrConfig config = {});
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;
  ~Runtime();

  sim::Scheduler& scheduler() { return hca_->scheduler(); }
  verbs::Hca& hca() { return *hca_; }
  const UcrConfig& config() const { return config_; }
  sim::NicAddr addr() const { return hca_->addr(); }

  // ------------------------------------------------------------ counters
  /// Create a counter bound to this runtime's scheduler.
  std::unique_ptr<sim::Counter> make_counter() {
    // rmclint:allow(zeroalloc): completion-counter factory used at op setup by rendezvous/one-sided paths
    return std::make_unique<sim::Counter>(scheduler());
  }
  /// Make `counter` nameable by remote peers (for target_counter fields).
  CounterRef export_counter(sim::Counter& counter);
  /// Forget an exported counter (and any fire of it deferred to the end
  /// of the current CQ drain): messages that still name it fire nothing.
  void unexport_counter(CounterRef ref);

  // ------------------------------------------------------------ handlers
  void register_handler(std::uint16_t msg_id, AmHandler handler) {
    handlers_[msg_id] = std::move(handler);
  }

  // -------------------------------------------------------------- memory
  /// Pre-register application memory so rendezvous transfers to/from it
  /// need no on-the-fly registration (e.g. memcached slab arenas, client
  /// value buffers).
  void register_region(std::span<std::byte> memory);

  // ---------------------------------------------------------- connection
  /// Accept UCR clients on `port`; on_client runs once per endpoint
  /// (reliable and unreliable alike).
  void listen(std::uint16_t port, std::function<void(Endpoint&)> on_client);

  /// Establish an endpoint with a listening runtime. Reliable endpoints
  /// get their own RC QP; unreliable endpoints (§VII future work) share
  /// one UD QP per runtime — eager-only, no delivery guarantee, but no
  /// per-client connection state at the server.
  sim::Task<Result<Endpoint*>> connect(sim::NicAddr dst, std::uint16_t port,
                                       EpType type = EpType::reliable,
                                       sim::Time timeout = 1 * kNsPerSec);

  /// Tear one endpoint down: every pending operation tied to it completes
  /// with an error now, as on fail_endpoint, but no handler is notified.
  /// Other endpoints are unaffected (§IV-A).
  void close(Endpoint& ep);

  // ------------------------------------------------------ failure events
  /// Fail one endpoint: every pending operation tied to it completes with
  /// an error *now* (waiters wake with failure instead of riding out
  /// their own timeouts), registered on_endpoint_down handlers are
  /// notified on the next scheduler turn, and the endpoint is queued for
  /// deferred reclamation. Other endpoints are unaffected (§IV-A).
  void fail_endpoint(Endpoint& ep, Errc reason = Errc::disconnected);

  /// Register a handler invoked (deferred, next scheduler turn) whenever
  /// an endpoint of this runtime fails. Returns an id for removal.
  using EndpointDownHandler = std::function<void(Endpoint&, Errc)>;
  std::uint64_t on_endpoint_down(EndpointDownHandler handler);
  void remove_endpoint_handler(std::uint64_t id);

  /// Live + not-yet-reclaimed endpoints (churn tests).
  std::size_t endpoint_count() const { return endpoints_.size(); }
  /// In-flight records: sends awaiting acks, pulls, puts and gets (leak
  /// tests).
  std::size_t pending_op_count() const { return in_flight_.size(); }

  // ----------------------------------------------------- active messages
  /// The ucr_send_message call. Non-blocking: returns after handing the
  /// message to the transport (or queueing it for credits). Counter
  /// arguments may be null / invalid to suppress the respective updates.
  Status send_message(Endpoint& ep, std::uint16_t msg_id, std::span<const std::byte> header,
                      std::span<const std::byte> data, sim::Counter* origin_counter,
                      CounterRef target_counter, sim::Counter* completion_counter);

  // --------------------------------------------- doorbell-batched sends
  /// Between begin_send_batch and end_send_batch, outgoing AM posts are
  /// chained per QP and rung with ONE doorbell at the flush
  /// (QueuePair::post_send_batch) instead of one per message. Multiget
  /// uses this: all sub-requests of one mget — and all response chunks of
  /// one reply — share a single doorbell charge. The window must be
  /// straight-line code (no co_await between begin and end); not
  /// re-entrant.
  void begin_send_batch();
  void end_send_batch();

  // ------------------------------------------- one-sided put/get (§IV-B)
  /// RemoteMemory names a window a peer may access one-sided. Obtained at
  /// the target via expose_memory() and shipped to peers by the
  /// application (e.g. inside an AM header) — the PGAS-style half of the
  /// UCR API. Reliable endpoints only.
  struct RemoteMemory {
    std::uint64_t addr = 0;
    std::uint32_t rkey = 0;
    std::uint32_t length = 0;
  };

  /// Register (or look up) `memory` and return a shippable descriptor.
  RemoteMemory expose_memory(std::span<std::byte> memory);

  /// One-sided write: src -> remote window (+offset). `done` bumps when
  /// the data is placed (remote CPU never involved).
  Status put(Endpoint& ep, std::span<const std::byte> src, const RemoteMemory& window,
             std::uint32_t offset, sim::Counter* done);

  /// One-sided read: remote window (+offset) -> dst.
  Status get(Endpoint& ep, std::span<std::byte> dst, const RemoteMemory& window,
             std::uint32_t offset, sim::Counter* done);

  // ---------------------------------------------------------------- stats
  std::uint64_t eager_sent() const { return eager_sent_; }
  std::uint64_t rendezvous_sent() const { return rendezvous_sent_; }
  std::uint64_t messages_received() const { return messages_received_; }

 private:
  /// One in-flight operation, from its post to its completion. Its
  /// SlotMap key is its token: an origin's rides in AmWire::token and
  /// comes back in the peer's internal ack; a pull's, a put's and a get's
  /// ride in the WR's wr_id and come back in its completion.
  struct InFlight {
    enum class Kind : std::uint8_t {
      origin,     ///< an active message awaiting its internal ack
      pull,       ///< a rendezvous target's RDMA Read of the payload
      one_sided,  ///< a put or a get with a done counter
    };
    Kind kind = Kind::origin;
    /// origin: the AckFlags still awaited; pull: the ones the origin wants.
    std::uint8_t acks = 0;
    Endpoint* ep = nullptr;  ///< whose failure errors this record out
    sim::Counter* origin = nullptr;      ///< origin: the origin counter
    sim::Counter* completion = nullptr;  ///< origin: the completion counter; one_sided: done
    // A pull keeps what its delivery needs once the data is in place.
    std::uint16_t msg_id = 0;
    std::uint64_t target_counter = 0;
    std::uint64_t peer_token = 0;  ///< the origin's token, for its ack
    std::span<std::byte> dest{};
    sim::Time arrived_at = 0;  ///< rendezvous header arrival (tracing)
  };

  /// Registered-memory bookkeeping (registration cache).
  struct Region {
    std::size_t len = 0;
    verbs::MemoryRegion* mr = nullptr;
  };

  Endpoint& adopt_qp(verbs::QueuePair& qp);
  Endpoint& adopt_ud_peer(sim::NicAddr nic, std::uint32_t qpn, std::uint64_t peer_ep_id);
  verbs::QueuePair& ensure_ud_qp();
  verbs::MemoryRegion* find_or_register(std::span<const std::byte> memory);

  /// Grab a send-staging slot (index into the staging arena).
  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  std::span<std::byte> slot_span(std::uint32_t slot);

  /// The block that keeps a pull's user header: the one of its slot.
  std::vector<std::byte>& header_block(std::uint64_t token);

  /// Transmit a message already encoded into the staging slot `slot`
  /// (first `len` bytes); patches piggybacked credits in place.
  void transmit_slot(Endpoint& ep, std::uint32_t slot, std::size_t len);
  /// The one post path of every WR: chain it into the open doorbell batch,
  /// or post it now. A refused post releases the WR's staging slot and
  /// fails the endpoint, which errors out the WR's record.
  Status post(Endpoint& ep, const verbs::SendWr& wr);
  void send_internal(Endpoint& ep, wire::Kind kind, std::uint64_t token,
                     std::uint8_t ack_flags);
  void flush_backlog(Endpoint& ep);
  void return_credits(Endpoint& ep);

  /// The one teardown of close() and fail_endpoint: put `ep` in state
  /// `end`, detach and disconnect it, erase its in-flight records, fail
  /// their waiters and retire it. False if it was already torn down.
  bool teardown(Endpoint& ep, EpState end);
  /// Remove the endpoint from the routing maps (no more inbound dispatch).
  void detach_endpoint(Endpoint& ep);
  /// Deferred on_endpoint_down delivery.
  void notify_endpoint_down(Endpoint& ep, Errc reason);
  /// Queue the endpoint for reclamation after kEpReclaimDelay.
  void retire_endpoint(Endpoint& ep);
  void schedule_reap();
  void reap_endpoints();
  sim::Task<> keepalive_loop();

  Status one_sided(Endpoint& ep, verbs::Opcode opcode, std::span<std::byte> local,
                   const RemoteMemory& window, std::uint32_t offset, sim::Counter* done);

  sim::Task<> recv_progress();
  sim::Task<> send_progress();
  sim::Task<> handle_message(Endpoint& ep, std::span<std::byte> buffer, std::uint32_t len);
  void repost_recv_slot(std::uint32_t slot);

  const AmHandler* handler(std::uint16_t msg_id) const;
  /// The delivery tail of every active message: the completion handler,
  /// then the target counter, then the internal ack the origin asked for.
  void deliver(Endpoint& ep, const AmHandler* h, std::span<const std::byte> header,
               std::span<std::byte> data, std::uint64_t target_counter, std::uint64_t token,
               std::uint8_t acks);
  /// Record a trace span `name` from `start` to now, when tracing.
  void trace(const char* name, sim::Time start);

  /// Fire the exported counter an AM named as its target. Inside a CQ
  /// drain batch, sibling fires to the same counter merge into one add(n)
  /// flushed at end of drain — a multi-chunk multiget wakes its waiter
  /// once, not once per chunk. Single-completion drains flush at the same
  /// sim time either way, so sequential single-op latencies are
  /// unaffected. ucr.cq.drain_batch records completions per drain.
  void fire_exported(std::uint64_t counter_id);
  void begin_drain() { ++drain_depth_; }
  void end_drain(std::uint32_t completions);
  /// Post the chained WRs of the current begin/end_send_batch window.
  void flush_send_batch();

  verbs::Hca* hca_;
  UcrConfig config_;

  std::unique_ptr<verbs::CompletionQueue> send_cq_;
  std::unique_ptr<verbs::CompletionQueue> recv_cq_;
  verbs::SharedReceiveQueue srq_;

  // Receive arena: recv_buffers slots of eager_limit bytes, registered.
  // Page-backed: a slot holds memory only once a message has landed in it,
  // and the LIFO SRQ keeps reusing the few slots a runtime needs at once.
  PageBuffer recv_arena_;
  verbs::MemoryRegion* recv_mr_ = nullptr;

  // Send-staging arena with a LIFO freelist of slots; page-backed the same
  // way, since a slot is memcpy'd full before the wire reads it.
  PageBuffer send_arena_;
  verbs::MemoryRegion* send_mr_ = nullptr;
  std::vector<std::uint32_t> free_slots_;

  std::unordered_map<std::uint16_t, AmHandler> handlers_;
  std::unordered_map<std::uint64_t, sim::Counter*> exported_counters_;
  std::unordered_map<std::uint32_t, Endpoint*> ep_by_qpn_;
  std::unordered_map<std::uint32_t, Endpoint*> ep_by_ud_id_;  ///< local ep id -> UD endpoint
  verbs::QueuePair* ud_qp_ = nullptr;  ///< one shared datagram QP (lazy)
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
  // Every in-flight operation, keyed by its token. A failing endpoint
  // walks it in slot order, which the sequence of posts and completions
  // fixes, so the wake order of its waiters is deterministic.
  SlotMap<InFlight> in_flight_;
  // Rendezvous user headers, kept from arrival until the pull's message
  // is delivered, since the receive buffer that carried one is reposted
  // as soon as its pull is posted. One block per slot of in_flight_: the
  // slot map's free list recycles a block with its slot, and each block
  // keeps the capacity of the largest header it has held.
  std::vector<std::vector<std::byte>> header_blocks_;
  std::map<std::uint64_t, Region> region_cache_;  ///< by base address (upper_bound)

  // Ordered by id: a failing endpoint notifies its handlers in
  // registration order, deterministically.
  std::map<std::uint64_t, EndpointDownHandler> down_handlers_;
  std::uint64_t next_down_handler_ = 1;
  bool reap_armed_ = false;

  std::uint64_t next_counter_id_ = 1;
  std::uint64_t next_ep_id_ = 1;

  std::uint64_t eager_sent_ = 0;
  std::uint64_t rendezvous_sent_ = 0;
  std::uint64_t messages_received_ = 0;

  // Deferred exported-counter fires for the current CQ drain (fixed-size:
  // a drain rarely touches more than a handful of distinct counters;
  // overflow falls back to immediate, unbatched fires).
  struct DeferredFire {
    sim::Counter* counter = nullptr;
    std::uint64_t adds = 0;
  };
  std::array<DeferredFire, 8> deferred_fires_{};
  std::size_t deferred_fire_count_ = 0;
  std::uint32_t drain_depth_ = 0;  ///< send+recv drains may nest via co_await

  // Doorbell batching state (begin/end_send_batch): WRs chained for one
  // QP, posted together. Fixed-size; a full chain flushes mid-window.
  bool send_batch_active_ = false;
  Endpoint* batch_ep_ = nullptr;  ///< the last chained WR's endpoint
  std::array<verbs::SendWr, 16> batch_wrs_{};
  std::size_t batch_wr_count_ = 0;
};

}  // namespace rmc::ucr
