// The memcached server.
//
// One ItemStore behind two interchangeable frontends, exactly as §V-A
// describes ("maintain compatibility of the existing Memcached server to
// work with both Sockets based clients and UCR based clients"):
//
//  * Socket frontend — classic memcached: libevent-style accept loop,
//    per-connection text-protocol parsing, worker threads assigned
//    round-robin per connection.
//  * UCR frontend — §V-B/C: requests arrive as active messages; SET values
//    are RDMA-read straight into their slab location; GET responses are
//    served zero-copy out of the slab with the client's counter C as the
//    target counter.
//
// Worker threads are simulated as coroutines feeding from per-worker
// queues; their count is the runtime parameter the paper mentions.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
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
/// costs live in the sockets/verbs layers).
struct McCosts {
  sim::Time event_dispatch_ns = 1500;     ///< libevent callback + conn state machine
  sim::Time parse_base_ns = 700;          ///< command-line tokenize
  double parse_ns_per_byte = 0.40;        ///< request line scanning
  sim::Time op_base_ns = 900;             ///< hash lookup + slab bookkeeping
  double value_copy_ns_per_byte = 0.08;   ///< item<->message copies (socket path)
  sim::Time ucr_request_ns = 800;         ///< decode AM header + worker handoff
  sim::Time format_base_ns = 600;         ///< response rendering
};

struct ServerConfig {
  std::uint16_t port = 11211;
  unsigned workers = 4;  ///< memcached -t (the paper's runtime parameter)
  StoreConfig store{};
  McCosts costs{};
};

class Server {
 public:
  Server(sim::Scheduler& sched, sim::Host& host, ServerConfig config = {});
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;
  ~Server();

  /// Serve the memcached text protocol on `stack` (config.port).
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

  /// Execute one single-key UCR op (every ucrp::Op but mget): the one
  /// executor behind the AM worker path and the RFP ring server. A GET hit
  /// pins its item into `*pinned`, and the caller releases it. An op byte
  /// that names no single-key op is answered client_error.
  ucrp::ResponseHeader execute_ucr(const ucrp::RequestHeader& req, std::string_view key,
                                   std::span<const std::byte> value, ItemHeader** pinned);

  /// Move the store's clock (whole seconds since start, from 1) to now.
  void advance_clock();

 private:
  struct UcrConnState;

  /// A unit of work bound for a worker thread.
  struct Work {
    // Socket path (text protocol).
    proto::Request request;
    sock::Socket* socket = nullptr;
    // Socket path (binary protocol, auto-detected per connection).
    bproto::Request bin_request;
    bool is_binary = false;
    // UCR path. Keys are bounded (proto::Request::kMaxKeyLen), so the key
    // lives inline — a Work never allocates on the steady-state GET path.
    ucr::Endpoint* ep = nullptr;
    ucrp::RequestHeader ucr_header{};
    std::array<char, proto::Request::kMaxKeyLen> key_buf{};
    std::uint16_t key_len = 0;
    ItemHeader* prepared_item = nullptr;  ///< SET: already filled by RDMA/eager
    bool alloc_failed = false;            ///< SET: header handler could not allocate
    bool is_ucr = false;
    sim::Time enqueued_at = 0;  ///< worker-queue wait start (stage.queue timer)
    // Multiget (Op::mget): the packed key block, copied out of the AM
    // header before the receive slot is reposted. Inline and bounded by
    // the eager frame, so mget requests never allocate either.
    std::array<std::byte, ucrp::kMaxMgetKeyBlock> mget_keys{};
    std::uint16_t mget_keys_len = 0;
    std::uint32_t mget_key_count = 0;

    std::string_view key() const { return {key_buf.data(), key_len}; }
    void set_key(std::string_view k) {
      key_len = static_cast<std::uint16_t>(std::min(k.size(), key_buf.size()));
      std::memcpy(key_buf.data(), k.data(), key_len);
    }
  };

  /// Per-worker reusable buffers: responses are encoded into `out` and
  /// pinned GET items staged in `items`, so the socket hot path reuses the
  /// same storage across requests instead of allocating per response.
  struct WorkerScratch {
    std::vector<std::byte> out;
    std::vector<ItemHeader*> items;
    // Multiget staging: per-key pinned item (nullptr = miss) from the
    // single hashtable pass, and the chunk plan {start, record_count}
    // produced before encoding. Warm after the first wide mget.
    std::vector<ItemHeader*> mget_items;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> mget_chunks;
  };

  /// Push `work` onto worker `index`'s queue, stamping the queue-wait
  /// start and updating the depth gauge.
  void enqueue_work(std::size_t index, Work work);

  sim::Task<> accept_loop(sock::NetStack& stack, sock::Listener& listener);
  sim::Task<> connection_loop(sock::Socket& socket, std::size_t worker);
  sim::Task<> text_loop(sock::Socket& socket, std::size_t worker,
                        std::span<const std::byte> initial);
  sim::Task<> binary_loop(sock::Socket& socket, std::size_t worker,
                          std::span<const std::byte> initial);
  sim::Task<> worker_loop(std::size_t index);

  sim::Task<> process_socket(Work& work, WorkerScratch& scratch);
  sim::Task<> process_binary(Work& work);
  sim::Task<> process_ucr(Work& work, WorkerScratch& scratch);
  /// True server-side multiget (Op::mget): one hashtable pass pinning
  /// every hit, then a chunked scatter-gather reply built in `scratch`.
  sim::Task<> process_ucr_mget(Work& work, WorkerScratch& scratch);
  proto::Response execute(const proto::Request& request);
  void register_new_slab_pages();

  /// Send a UCR response; pins `item` (may be null) until the value has
  /// left the building.
  void ucr_reply(ucr::Endpoint& ep, const ucrp::ResponseHeader& header,
                 ItemHeader* pinned_item, std::uint64_t reply_counter);

  sim::Scheduler* sched_;
  sim::Host* host_;
  ServerConfig config_;
  ItemStore store_;

  std::vector<std::unique_ptr<sim::Channel<Work>>> worker_queues_;
  std::size_t next_worker_ = 0;  ///< round-robin connection assignment

  ucr::Runtime* ucr_runtime_ = nullptr;
  std::uint64_t ucr_down_handler_ = 0;  ///< on_endpoint_down registration
  std::vector<std::unique_ptr<UcrConnState>> ucr_conns_;

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
