// The public façade: assemble a paper-style testbed in a few lines.
//
// A TestBed builds the simulated equivalent of the paper's experimental
// setup (§VI-A): a cluster (A = Intel Clovertown + ConnectX DDR + Chelsio
// 10GigE TOE; B = Intel Westmere + ConnectX QDR), one memcached server
// host, N client hosts, and one transport wiring memcached clients to the
// server. Every figure benchmark and example builds on this.
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
  mc::ServerConfig server{};
  mc::ClientBehavior client{};
  ucr::UcrConfig ucr{};  ///< eager threshold / CQ mode ablations
};

class TestBed {
 public:
  explicit TestBed(TestBedConfig config);
  TestBed(const TestBed&) = delete;
  TestBed& operator=(const TestBed&) = delete;
  ~TestBed();

  sim::Scheduler& scheduler() { return *sched_; }
  const TestBedConfig& config() const { return config_; }
  mc::Server& server() { return *server_; }
  /// The transport's fabric — exposed so scenarios and tests can script
  /// FaultInjector plans against the testbed.
  sim::Fabric& fabric() { return *fabric_; }

  std::size_t client_count() const { return clients_.size(); }
  mc::Client& client(std::size_t i) { return *clients_.at(i); }
  /// Null unless the client mode is onesided_get on a UCR transport.
  onesided::Publisher* publisher() { return publisher_.get(); }
  /// Null unless the client mode is rfp on a UCR transport.
  rfp::RingServer* ring_server() { return ring_server_.get(); }
  /// Null on socket transports.
  verbs::Hca* server_hca() { return server_hca_.get(); }
  sim::Host& client_host(std::size_t i) { return *client_hosts_.at(i); }
  sim::Host& server_host() { return *server_host_; }

  /// Pre-register client memory for zero-copy rendezvous SETs (no-op on
  /// socket transports).
  void register_client_memory(std::size_t i, std::span<std::byte> memory);

  /// Establish every client's connection; run inside the scheduler.
  sim::Task<Status> connect_all();

 private:
  TestBedConfig config_;
  std::unique_ptr<sim::Scheduler> sched_;
  std::unique_ptr<sim::Fabric> fabric_;  ///< the transport's fabric
  std::unique_ptr<sim::Host> server_host_;
  std::vector<std::unique_ptr<sim::Host>> client_hosts_;

  // UCR transport state (null for socket transports).
  std::unique_ptr<verbs::Hca> server_hca_;
  std::unique_ptr<ucr::Runtime> server_ucr_;
  std::vector<std::unique_ptr<verbs::Hca>> client_hcas_;
  std::vector<std::unique_ptr<ucr::Runtime>> client_ucrs_;

  // Socket transport state (null for UCR).
  std::unique_ptr<sock::NetStack> server_stack_;
  std::vector<std::unique_ptr<sock::NetStack>> client_stacks_;

  std::unique_ptr<mc::Server> server_;
  std::unique_ptr<onesided::Publisher> publisher_;   ///< mode onesided_get
  std::unique_ptr<rfp::RingServer> ring_server_;     ///< mode rfp
  std::vector<std::unique_ptr<mc::Client>> clients_;
};

}  // namespace rmc::core
