// The memcached client library (libmemcached 0.45 equivalent).
//
// A Client owns a pool of server connections; each key is routed by a hash
// of the key modulo the pool size (the client-side server selection of
// §II-C — no central directory). A key that breaks memcached's key rule
// (empty, over 250 B, or holding a space, CR or LF) and a CAS id of 0 are
// rejected before routing, with invalid_argument on every transport.
// Three connection types implement the same interface:
//
//  * TextConn — the classic sockets path: memcached ASCII protocol over a
//    byte stream (works over 1GigE TCP, IPoIB, SDP, TOE — whatever
//    NetStack it is given), TCP_NODELAY semantics.
//  * BinaryConn — the memcached binary protocol over the same streams
//    (ClientBehavior::binary_protocol). Both stream connections share one
//    base: one socket, one receive chunk, one parse-or-receive loop.
//  * UcrConn — §V: operations as active messages; the reply names the
//    client's counter C as target counter; GET allocates the destination
//    buffer only once the response header reveals the item length.
//
// The connection interface (ServerConn) is connect and alive plus one
// primitive per request shape:
//
//  * get_into  — one key read; mget_into — many keys in one request.
//    Client::get, gets and mget are built once, on top of them, by
//    copying out of the returned span.
//  * call      — every write: a StoreOp (store.hpp) with its key and
//    value. Each connection encodes it through its protocol's verb
//    table, the one the server decodes with. Client's eleven write
//    methods each build a StoreOp and run it through with_retries once.
//
// Every op, reads and multigets included, runs through with_retries: a
// dead connection reconnects, a transport failure retries up to
// ClientBehavior::max_retries, and each outcome counts toward ejection
// and rejoin. A multiget retries each server's batch on its own.
//
// Landing rule (both read primitives): the value bytes land in the caller's
// `dest` when one is given and the value fits; otherwise they land in
// connection storage that stays valid until the next operation on the
// same connection (on a stream connection, the parser's receive buffer).
// The result's `value` span says where they landed.
//
// Copy-charge rule (simulated client CPU, 0.08 ns per byte copied): a
// path pays for the bytes it copies. UCR RPC lands straight off the wire,
// so it pays only when the value misses the caller's buffer (the owning
// caller's copy-out). One-sided and RFP hits always copy out of the read
// buffer or ring slot. Text pays for every value it parses; binary pays on
// single-key GETs and not on its pipelined multiget.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "memcached/ketama.hpp"
#include "memcached/protocol.hpp"
#include "memcached/store.hpp"
#include "memcached/ucr_proto.hpp"
#include "rfp/channel.hpp"
#include "sockets/stack.hpp"
#include "ucr/runtime.hpp"

namespace rmc::mc {

/// Key->server mapping strategy (libmemcached distributions).
enum class Distribution : std::uint8_t {
  modulo,  ///< hash(key) % server_count — the classic default
  ketama,  ///< MD5 continuum; minimal remapping when the pool changes
};

struct ClientBehavior {
  /// UCR transport mode for server connections:
  ///  * rpc          — classic active-message request/response (§V).
  ///  * onesided_get — reads served by RDMA Reads against the published
  ///                   index (PR 4); writes stay RPC.
  ///  * rfp          — server-bypass rings for the whole command set:
  ///                   requests RDMA-written into a server-polled ring,
  ///                   responses RDMA-written back and polled locally
  ///                   (DESIGN.md §16). Every mode falls back to RPC per
  ///                   op when its bypass cannot serve it.
  enum class Mode : std::uint8_t { rpc, onesided_get, rfp };

  Distribution distribution = Distribution::modulo;
  sim::Time op_timeout = 1 * kNsPerSec;  ///< UCR wait-with-timeout (§IV-A)
  /// Use unreliable (UD) endpoints for UCR servers: §VII future work —
  /// no per-client server state, but small values only and operations
  /// may time out under packet loss (the Facebook-UDP operating mode).
  bool unreliable_ucr = false;
  /// Speak the memcached binary protocol on socket servers (auto-detected
  /// server side, like memcached 1.4).
  bool binary_protocol = false;
  /// UCR transport mode (see Mode). rpc by default: the RPC-only request
  /// stream is byte-identical to every pre-mode build.
  Mode mode = Mode::rpc;
  /// RFP ring geometry/poll knobs (Mode::rfp connections only).
  rfp::ChannelConfig rfp{};
  /// Per-UCR-connection landing arena for GET/mget values. The default
  /// matches the historical fixed size; fleet-scale pools (thousands of
  /// connections) shrink it — overflow falls back to a side buffer, so a
  /// small arena is safe, just metered (mc.alloc.arena_overflows).
  std::size_t arena_bytes = 8 * 1024 * 1024;

  // ---- failure recovery (all off by default: a client with the default
  // behavior is byte-identical to the pre-fault-tolerance one) ----

  /// Retry an operation this many times after a transport failure
  /// (disconnected / timed_out), reconnecting and re-routing through the
  /// current pool view between attempts. 0 = single attempt.
  std::uint32_t max_retries = 0;
  /// Delay before the first retry; doubles per attempt (capped at 64x).
  sim::Time retry_backoff = 20'000;  // 20 us
  /// Eject a server from key routing after this many consecutive
  /// transport failures (0 = never eject; pools of one never eject).
  std::uint32_t eject_after_failures = 2;
  /// Probe ejected servers for rejoin this often (0 = no probing; a
  /// successful operation on an ejected server also rejoins it).
  sim::Time rejoin_interval = 0;
  std::uint32_t rejoin_attempts = 8;
};

/// An owning read's answer (get, gets, mget): the value copied out of
/// wherever it landed.
struct Value {
  std::string key;
  std::uint32_t flags = 0;
  std::uint64_t cas = 0;
  std::vector<std::byte> data;
};

/// get_into result. value() is where the bytes landed (see the landing
/// rule above). A pointer plus value_len rather than a span: this struct
/// rides in every GET's coroutine frames, which are pooled by size class.
struct GetIntoResult {
  std::uint32_t value_len = 0;
  std::uint32_t flags = 0;
  std::uint64_t cas = 0;
  const std::byte* landed = nullptr;
  std::span<const std::byte> value() const { return {landed, value_len}; }
};

/// Per-key slot of a batched multiget (mget_into). The caller may provide
/// a destination buffer per key in `dest`; on return, `value` points at
/// where the bytes landed (see the landing rule above). A miss leaves
/// hit == false.
struct MgetSlot {
  std::span<std::byte> dest{};          ///< optional caller buffer (in)
  std::span<const std::byte> value{};   ///< where the value landed (out)
  std::uint32_t value_len = 0;          ///< full value length (out)
  std::uint32_t flags = 0;
  std::uint64_t cas = 0;
  bool hit = false;
};

/// One server connection (transport-specific).
class ServerConn {
 public:
  virtual ~ServerConn() = default;
  virtual sim::Task<Status> connect() = 0;
  /// The GET primitive. An empty `dest` asks for connection storage (the
  /// owning reads); `with_cas` asks for the CAS id (gets).
  virtual sim::Task<Result<GetIntoResult>> get_into(std::string_view key,
                                                    std::span<std::byte> dest,
                                                    bool with_cas) = 0;
  /// The multiget primitive: one request for the whole key list
  /// (slots.size() >= keys.size(); slots[i] answers keys[i]).
  virtual sim::Task<Status> mget_into(std::span<const std::string_view> keys,
                                      std::span<MgetSlot> slots, bool with_cas) = 0;
  /// The write primitive: run `op` (store, del, arith, touch or flush_all)
  /// on `key` and, for a store, `value`. Returns arith's number, and 0 for
  /// every other verb.
  virtual sim::Task<Result<std::uint64_t>> call(const StoreOp& op, std::string_view key,
                                                std::span<const std::byte> value) = 0;
  virtual bool alive() const = 0;
};

class Client {
 public:
  Client(sim::Scheduler& sched, sim::Host& host, ClientBehavior behavior = {});
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  ~Client();

  /// memcached_server_add: register a server reachable over a byte-stream
  /// stack (the Sockets transports of the evaluation).
  void add_server_socket(sock::NetStack& stack, sim::NicAddr addr, std::uint16_t port);

  /// Register a server reachable over UCR (the paper's design).
  void add_server_ucr(ucr::Runtime& runtime, sim::NicAddr addr, std::uint16_t port);

  /// Establish every registered connection.
  sim::Task<Status> connect_all();

  std::size_t server_count() const { return conns_.size(); }
  /// Which server a key routes to (exposed for tests). Ejected servers
  /// are routed around: ketama re-hashes over the surviving pool, modulo
  /// probes forward to the next live server.
  std::size_t server_index(std::string_view key) const;
  /// Pool-health view: has this server been ejected from routing?
  bool server_ejected(std::size_t index) const {
    return index < health_.size() && health_[index].ejected;
  }

  // ------------------------------------------------------- operations
  sim::Task<Status> set(std::string_view key, std::span<const std::byte> value,
                        std::uint32_t flags = 0, std::uint32_t exptime = 0);
  sim::Task<Status> add(std::string_view key, std::span<const std::byte> value,
                        std::uint32_t flags = 0, std::uint32_t exptime = 0);
  sim::Task<Status> replace(std::string_view key, std::span<const std::byte> value,
                            std::uint32_t flags = 0, std::uint32_t exptime = 0);
  sim::Task<Status> append(std::string_view key, std::span<const std::byte> value);
  sim::Task<Status> prepend(std::string_view key, std::span<const std::byte> value);
  sim::Task<Status> cas(std::string_view key, std::span<const std::byte> value,
                        std::uint64_t cas_unique, std::uint32_t flags = 0,
                        std::uint32_t exptime = 0);
  sim::Task<Result<Value>> get(std::string_view key);
  /// Zero-allocation GET: value bytes land in `dest`, too_large if they do
  /// not fit (steady-state UCR GETs through this path perform no heap
  /// allocation).
  sim::Task<Result<GetIntoResult>> get_into(std::string_view key, std::span<std::byte> dest);
  /// Like memcached_gets: the returned Value carries the CAS id.
  sim::Task<Result<Value>> gets(std::string_view key);
  /// Multi-get: results positionally match `keys`; miss = nullopt.
  sim::Task<Result<std::vector<std::optional<Value>>>> mget(
      std::span<const std::string> keys);
  /// Batched multiget into caller-provided slots (slots[i] answers
  /// keys[i]). With a single-server pool this is a zero-alloc pass-through
  /// to the connection's batched path, under with_retries; multi-server
  /// pools group keys per server first (which allocates).
  sim::Task<Status> mget_into(std::span<const std::string_view> keys,
                              std::span<MgetSlot> slots);
  sim::Task<Status> del(std::string_view key);
  sim::Task<Result<std::uint64_t>> incr(std::string_view key, std::uint64_t delta);
  sim::Task<Result<std::uint64_t>> decr(std::string_view key, std::uint64_t delta);
  sim::Task<Status> touch(std::string_view key, std::uint32_t exptime);
  /// flush_all fan-out to every server.
  sim::Task<Status> flush_all();

 private:
  /// Per-server failure tracking (drives ejection / rejoin).
  struct ServerHealth {
    bool ejected = false;
    bool probing = false;  ///< a rejoin_probe task is running
    std::uint32_t consecutive_failures = 0;
  };

  ServerConn& conn_for(std::string_view key) { return *conns_[server_index(key)]; }
  void register_server(std::string name);

  static bool transport_error(Errc e) {
    return e == Errc::disconnected || e == Errc::timed_out;
  }

  /// Names no server: with_retries routes by the key.
  static constexpr std::size_t kRouteByKey = static_cast<std::size_t>(-1);

  /// Run `op` against the server the key routes to (or against `server`,
  /// for a command that names no key), retrying transport failures per
  /// ClientBehavior (reconnect, backoff, re-route). Defined in client.cpp —
  /// all instantiations live there.
  template <typename Op>
  std::invoke_result_t<Op&, ServerConn&> with_retries(std::string_view key, Op op,
                                                      std::size_t server = kRouteByKey);
  /// Every write: `op` through ServerConn::call under with_retries.
  sim::Task<Result<std::uint64_t>> write(StoreOp op, std::string_view key,
                                         std::span<const std::byte> value = {},
                                         std::size_t server = kRouteByKey);

  sim::Task<Status> ensure_conn(std::size_t index);
  void note_failure(std::size_t index);
  void note_success(std::size_t index);
  void rebuild_routing();
  sim::Task<> rejoin_probe(std::size_t index);

  sim::Scheduler* sched_;
  sim::Host* host_;
  ClientBehavior behavior_;
  std::vector<std::unique_ptr<ServerConn>> conns_;
  std::vector<std::string> server_names_;
  std::vector<ServerHealth> health_;
  KetamaContinuum continuum_;
  /// Ketama over the surviving pool: continuum index -> conns_ index.
  /// Empty while nobody is ejected (the continuum then spans all servers).
  std::vector<std::size_t> alive_to_conn_;
};

}  // namespace rmc::mc
