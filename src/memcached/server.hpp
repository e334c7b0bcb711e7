// The memcached server.
//
// One ItemStore behind three interchangeable frontends, exactly as §V-A
// describes ("maintain compatibility of the existing Memcached server to
// work with both Sockets based clients and UCR based clients"):
//
//  * Socket frontend — classic memcached: libevent-style accept loop,
//    one stream loop per connection that auto-detects the text or the
//    binary protocol by its first byte (as memcached 1.4 does), worker
//    threads assigned round-robin per connection.
//  * UCR frontend — §V-B/C: requests arrive as active messages; SET values
//    are RDMA-read straight into their slab location; GET responses are
//    served zero-copy out of the slab with the client's counter C as the
//    target counter. The RFP rings (rfp::RingServer) decode the same
//    request format.
//
// Every frontend decodes a request into one StoreOp (store.hpp) through
// its protocol's verb table, the same table the client encodes through,
// and runs it through one executor, Server::execute; each keeps only its
// decode, its CPU billing and the mapping from the outcome to its wire
// status.
//
// Worker threads are simulated as coroutines feeding from per-worker
// queues; their count is the runtime parameter the paper mentions.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "memcached/binary.hpp"
#include "memcached/protocol.hpp"
#include "memcached/store.hpp"
#include "memcached/ucr_proto.hpp"
#include "obs/metrics.hpp"
#include "simnet/channel.hpp"
#include "sockets/stack.hpp"
#include "ucr/runtime.hpp"

namespace rmc::mc {

/// Host-side CPU costs of the memcached request path itself (transport
/// costs live in the sockets/verbs layers). Calibration constants.
struct McCosts {
  static constexpr sim::Time event_dispatch_ns = 1500;    ///< libevent callback + state machine
  static constexpr sim::Time parse_base_ns = 700;         ///< command-line tokenize
  static constexpr double parse_ns_per_byte = 0.40;       ///< request line scanning
  static constexpr sim::Time op_base_ns = 900;            ///< hash lookup + slab bookkeeping
  static constexpr double value_copy_ns_per_byte = 0.08;  ///< item<->message copies
  static constexpr sim::Time ucr_request_ns = 800;        ///< decode AM header + worker handoff
  static constexpr sim::Time format_base_ns = 600;        ///< response rendering
};

struct ServerConfig {
  std::uint16_t port = 11211;
  unsigned workers = 4;  ///< memcached -t (the paper's runtime parameter)
  StoreConfig store{};
};

/// What the store answered to a StoreOp (store.hpp).
struct Outcome {
  Errc error = Errc::ok;
  ItemHeader* item = nullptr;  ///< get hit, pinned: the caller releases it
  std::uint64_t number = 0;    ///< arith: the new value
  std::uint64_t cas = 0;       ///< store: the stored item's CAS id
};

/// The UCR frontend's decode and wire status, shared by the AM worker path
/// and the RFP rings: the store op a single-key request names (version and
/// unknown op bytes name none), and the reply header for its outcome.
StoreOp ucr_op(const ucrp::RequestHeader& header);
ucrp::ResponseHeader ucr_response(ucrp::Op op, std::uint64_t req_id, const Outcome& outcome);

class Server {
 public:
  Server(sim::Scheduler& sched, sim::Host& host, ServerConfig config = {});
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;
  ~Server();

  /// Serve the memcached text and binary protocols on `stack` (config.port).
  void attach_socket_frontend(sock::NetStack& stack);

  /// Serve UCR active-message clients on `runtime` (config.port). Slab
  /// pages are registered with the runtime for zero-copy RDMA.
  void attach_ucr_frontend(ucr::Runtime& runtime);

  ItemStore& store() { return store_; }
  const ServerConfig& config() const { return config_; }

  std::uint64_t requests_served() const { return requests_served_; }
  /// Render "stats" output (STAT lines).
  std::string render_stats() const;

  /// flush_all with memcached's optional delay: exptime_s == 0 flushes
  /// immediately, otherwise the flush fires exptime_s seconds from now.
  /// Per memcached semantics the newest flush wins — a later call
  /// (immediate or delayed) supersedes any still-pending timer — and the
  /// timer is cancel-safe: it no-ops if the server is destroyed first.
  /// Public for the protocol frontends and tests.
  void schedule_flush(std::uint32_t exptime_s);

  /// The one executor: run `op` on `key` (and, for a store, `value`)
  /// against the store. Every frontend calls it; it is the only caller of
  /// ItemStore::store, del, arith and touch in the server. A get hit comes
  /// back pinned in Outcome::item, and the caller releases it.
  Outcome execute(const StoreOp& op, std::string_view key,
                  std::span<const std::byte> value = {});

  /// Move the store's clock (whole seconds since start, from 1) to now.
  void advance_clock();

 private:
  struct UcrConnState;

  enum class Frontend : std::uint8_t { text, binary, ucr };

  /// What a request carries that its transport's buffer does not keep
  /// until the worker runs: its keys, packed back to back as [u16 len]
  /// [bytes] entries (pack_mget_key), then a text or binary store's value.
  /// Inline up to kInline bytes, which holds one key of any legal length,
  /// else in a block the server recycles (a UCR mget key block, a long
  /// text multiget, a large value).
  struct Bytes {
    static constexpr std::size_t kInline = sizeof(std::uint16_t) + proto::Request::kMaxKeyLen;
    std::array<std::byte, kInline> inline_bytes;  // left unset: only [0, size) is read
    std::unique_ptr<std::vector<std::byte>> block;
    std::uint32_t key_bytes = 0;
    std::uint32_t size = 0;

    const std::byte* data() const { return block ? block->data() : inline_bytes.data(); }
    std::span<const std::byte> keys() const { return {data(), key_bytes}; }
    std::span<const std::byte> value() const { return {data() + key_bytes, size - key_bytes}; }
    /// The first key (single-key requests carry exactly one).
    std::string_view first() const {
      std::string_view key;
      MgetKeyReader{data(), key_bytes}.next(key);
      return key;
    }
  };

  /// One decoded request: the store op it names, its keys and value, and
  /// what its frontend needs to answer it.
  struct Request {
    StoreOp op;
    std::uint8_t command = 0;  ///< the frontend's own: proto::Command, bproto::Opcode, ucrp::Op
    bool noreply = false;      ///< text: answer nothing
    /// Failed before the worker ran: a binary key over the limit, or a UCR
    /// SET whose header handler found no chunk for the value.
    Errc error = Errc::ok;
    std::uint64_t tag = 0;      ///< echoed in the reply: binary opaque, UCR req_id
    std::uint64_t initial = 0;  ///< binary incr/decr: the value a miss seeds
    Bytes bytes;
    ItemHeader* prepared_item = nullptr;  ///< UCR SET: the value already in its chunk
  };

  /// A unit of work bound for a worker thread: where its reply goes and
  /// the one request it answers.
  struct Work {
    Frontend frontend = Frontend::text;
    sock::Socket* socket = nullptr;   ///< text and binary: the connection
    ucr::Endpoint* ep = nullptr;      ///< UCR: the endpoint and
    std::uint64_t reply_counter = 0;  ///< the client's counter C (§V)
    Request request;
    sim::Time enqueued_at = 0;  ///< worker-queue wait start (stage.queue timer)
  };

  /// Per-worker reusable buffers: responses are encoded into `out` and
  /// pinned GET items staged in `items` (nullptr = miss), so the hot paths
  /// reuse the same storage across requests instead of allocating per
  /// response. `mget_chunks` is a UCR multiget's chunk plan
  /// {start, record_count}. Warm after the first wide multiget.
  struct WorkerScratch {
    std::vector<std::byte> out;
    std::vector<ItemHeader*> items;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> mget_chunks;
  };

  /// Push `work` onto worker `index`'s queue, stamping the queue-wait
  /// start and updating the depth gauge.
  void enqueue_work(std::size_t index, Work work);

  sim::Task<> accept_loop(sock::NetStack& stack, sock::Listener& listener);
  /// One socket connection: read, parse (text or binary, by the first
  /// byte), bill the parse and hand each request to the worker.
  sim::Task<> stream_loop(sock::Socket& socket, std::size_t worker);
  /// Pop the next request off a stream parser into `out`. Returns its
  /// parse charge, nothing when more bytes are needed, or protocol_error.
  Result<std::optional<sim::Time>> next_text(proto::RequestParser& parser, Request& out);
  Result<std::optional<sim::Time>> next_binary(bproto::RequestParser& parser, Request& out);
  sim::Task<> worker_loop(std::size_t index);

  sim::Task<> serve_text(Work& work, WorkerScratch& scratch);
  sim::Task<> serve_binary(Work& work, WorkerScratch& scratch);
  sim::Task<> serve_ucr(Work& work, WorkerScratch& scratch);
  /// True server-side multiget (Op::mget): one hashtable pass pinning
  /// every hit, then a chunked scatter-gather reply built in `scratch`.
  sim::Task<> serve_ucr_mget(Work& work, WorkerScratch& scratch);

  /// Copy `value` into `request`'s bytes after room for `key_bytes` of
  /// packed keys, inline or in a recycled block; returns that room.
  std::byte* carry(Request& request, std::size_t key_bytes,
                   std::span<const std::byte> value = {});
  /// The pinned multi-key GET pass: one item per packed key (nullptr = miss).
  void pin_all(std::span<const std::byte> keys, std::vector<ItemHeader*>& items);
  void register_new_slab_pages();

  /// Send a UCR response; pins `item` (may be null) until the value has
  /// left the building.
  void ucr_reply(ucr::Endpoint& ep, const ucrp::ResponseHeader& header,
                 ItemHeader* pinned_item, std::uint64_t reply_counter);
  /// Send a response whose value is pinned `item`'s by rendezvous: the
  /// client RDMA-reads it out of the slab, and the pin drops when the
  /// origin counter fires or fails (at once, if the send fails). The
  /// counter then goes back to spare_counters_.
  Status send_pinned(ucr::Endpoint& ep, std::span<const std::byte> header, ItemHeader* item,
                     std::uint64_t reply_counter);
  /// Answer `header`'s request with a bare server_error header.
  void ucr_error(ucr::Endpoint& ep, ucrp::ResponseHeader header, std::uint64_t reply_counter);

  sim::Scheduler* sched_;
  sim::Host* host_;
  ServerConfig config_;
  ItemStore store_;

  std::vector<std::unique_ptr<sim::Channel<Work>>> worker_queues_;
  std::size_t next_worker_ = 0;  ///< round-robin connection assignment

  ucr::Runtime* ucr_runtime_ = nullptr;
  std::uint64_t ucr_down_handler_ = 0;  ///< on_endpoint_down registration
  std::vector<std::unique_ptr<UcrConnState>> ucr_conns_;
  /// Blocks of finished requests, handed to the next request whose bytes
  /// do not fit inline.
  std::vector<std::unique_ptr<std::vector<std::byte>>> free_blocks_;
  /// Origin counters of finished rendezvous replies, handed to the next
  /// send_pinned.
  std::vector<std::unique_ptr<sim::Counter>> spare_counters_;

  /// Delayed-flush bookkeeping: the generation a pending timer belongs to
  /// (stale generations no-op, making repeated flushes last-write-wins)
  /// and a liveness token whose expiry tells a timer the server is gone.
  std::uint64_t flush_gen_ = 0;
  std::shared_ptr<bool> flush_alive_ = std::make_shared<bool>(true);

  std::uint64_t requests_served_ = 0;
  std::uint64_t total_connections_ = 0;
  std::uint64_t bytes_read_ = 0;
  std::uint64_t bytes_written_ = 0;

  // Per-stage server latency (§V request path: parse -> queue -> execute
  // -> format), cached registry handles.
  obs::Timer* stage_parse_;    ///< mc.server.stage.parse
  obs::Timer* stage_queue_;    ///< mc.server.stage.queue
  obs::Timer* stage_execute_;  ///< mc.server.stage.execute
  obs::Timer* stage_format_;   ///< mc.server.stage.format
  obs::Gauge* queue_depth_;    ///< mc.worker.queue_depth
  obs::Timer* mget_batch_;     ///< mc.mget.batch_size (keys per mget request)
};

}  // namespace rmc::mc
