// The public façade: assemble a testbed in a few lines.
//
// A TestBed builds the simulated equivalent of the paper's experimental
// setup (§VI-A): a cluster (A = Intel Clovertown + ConnectX DDR + Chelsio
// 10GigE TOE; B = Intel Westmere + ConnectX QDR), memcached server hosts,
// client hosts, and one transport wiring memcached clients to the servers.
// By default that is one server and one host per client, the shape of the
// paper's figures. The same bed also builds the pool the paper argues for
// (§II-C): S shards behind client-side key routing, with thousands of
// clients packed onto a few load-generator hosts that each multiplex their
// clients' connections over one adapter. Every benchmark and example
// builds on this.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "memcached/client.hpp"
#include "memcached/server.hpp"
#include "onesided/publisher.hpp"
#include "rfp/ring_server.hpp"
#include "simnet/netparams.hpp"
#include "ucr/runtime.hpp"

namespace rmc::core {

/// The transports of the paper's evaluation.
enum class TransportKind : std::uint8_t {
  ucr_verbs,  ///< the paper's design: memcached over UCR active messages
  sdp,        ///< Sockets Direct Protocol on IB (buffered-copy mode)
  ipoib,      ///< kernel TCP over IP-over-IB (connected mode)
  toe_10ge,   ///< Chelsio 10 GigE with TCP offload
  tcp_1ge,    ///< plain kernel TCP on 1 GigE
  ucr_roce,   ///< §VII future work: UCR over RDMA-converged 10 GigE (RoCE)
  ucr_iwarp,  ///< §VII future work: UCR over iWARP (RDMA over TCP, §II-B)
};

std::string_view transport_name(TransportKind kind);

/// The two testbeds of §VI-A.
enum class ClusterKind : std::uint8_t {
  cluster_a,  ///< ConnectX DDR IB + 10 GigE TOE, 8 cores @ 2.33 GHz
  cluster_b,  ///< ConnectX QDR IB, 8 cores @ 2.67 GHz (no 10 GigE cards)
};

std::string_view cluster_name(ClusterKind kind);

/// True when `transport` existed on `cluster` in the paper (the benches
/// skip combinations the paper could not measure).
bool transport_available(ClusterKind cluster, TransportKind transport);

struct TestBedConfig {
  ClusterKind cluster = ClusterKind::cluster_b;
  TransportKind transport = TransportKind::ucr_verbs;
  unsigned num_clients = 1;
  /// memcached servers; every client connects to each one and routes keys
  /// across them by ketama.
  unsigned shards = 1;
  /// Load-generator hosts the clients are packed onto, round-robin. 0 gives
  /// every client a host of its own. A packed bed runs at-scale budgets in
  /// place of ucr.eager_limit, ucr.credits_per_ep, client.arena_bytes and
  /// client.rfp's ring geometry (DESIGN.md §15).
  unsigned generators = 0;
  mc::ServerConfig server{};  ///< per shard
  mc::ClientBehavior client{};
  /// Eager threshold / CQ mode ablations. The bed sizes every runtime's
  /// SRQ (recv_buffers) from its endpoints and credit window.
  ucr::UcrConfig ucr{};
};

class TestBed {
 public:
  explicit TestBed(TestBedConfig config);
  TestBed(const TestBed&) = delete;
  TestBed& operator=(const TestBed&) = delete;
  ~TestBed();

  sim::Scheduler& scheduler() { return *sched_; }
  const TestBedConfig& config() const { return config_; }
  /// The transport's fabric — exposed so scenarios and tests can script
  /// FaultInjector plans against the testbed.
  sim::Fabric& fabric() { return *fabric_; }

  std::size_t shard_count() const { return shards_.size(); }
  mc::Server& server(std::size_t s = 0) { return *shards_.at(s).server; }
  sim::Host& server_host(std::size_t s = 0) { return *shards_.at(s).node.host; }
  /// Null on socket transports.
  verbs::Hca* server_hca(std::size_t s = 0) { return shards_.at(s).node.hca.get(); }
  /// Null unless the client mode is onesided_get on a UCR transport.
  onesided::Publisher* publisher(std::size_t s = 0) { return shards_.at(s).publisher.get(); }
  /// Null unless the client mode is rfp on a UCR transport.
  rfp::RingServer* ring_server(std::size_t s = 0) { return shards_.at(s).ring_server.get(); }

  std::size_t client_count() const { return clients_.size(); }
  mc::Client& client(std::size_t i) { return *clients_.at(i); }
  /// The host client `i` runs on: its own, or its generator's.
  sim::Host& client_host(std::size_t i) { return *client_node(i).host; }
  /// Every client connects to every shard.
  std::size_t connection_count() const { return clients_.size() * shards_.size(); }

  /// Pre-register client memory for zero-copy rendezvous SETs (no-op on
  /// socket transports).
  void register_client_memory(std::size_t i, std::span<std::byte> memory);

  /// Establish every client's connections; run inside the scheduler.
  sim::Task<Status> connect_all();

 private:
  /// One host and its adapter: an HCA with a UCR runtime, or a socket stack.
  struct Node {
    std::unique_ptr<sim::Host> host;
    std::unique_ptr<verbs::Hca> hca;
    std::unique_ptr<ucr::Runtime> ucr;
    std::unique_ptr<sock::NetStack> stack;
  };
  /// A memcached server on its node, with the bypass service its clients'
  /// mode bootstraps against.
  struct Shard {
    Node node;
    std::unique_ptr<mc::Server> server;
    std::unique_ptr<onesided::Publisher> publisher;  ///< mode onesided_get
    std::unique_ptr<rfp::RingServer> ring_server;    ///< mode rfp
  };

  Node& client_node(std::size_t i) { return client_nodes_.at(i % client_nodes_.size()); }

  TestBedConfig config_;
  std::unique_ptr<sim::Scheduler> sched_;
  std::unique_ptr<sim::Fabric> fabric_;  ///< the transport's fabric
  std::vector<Shard> shards_;
  std::vector<Node> client_nodes_;  ///< one per client, or one per generator
  std::vector<std::unique_ptr<mc::Client>> clients_;
};

}  // namespace rmc::core
