// The fleet testbed: a sharded memcached pool at production-like scale.
//
// Where TestBed models the paper's experimental setup (one server, a
// handful of client hosts), FleetBed models the deployment the paper
// argues for: S memcached shards behind client-side key routing (§II-C),
// driven by thousands of client connections. Logical clients are packed
// onto a few generator hosts — each generator owns one HCA + UCR runtime
// shared by all its clients' connections, the way a real load generator
// multiplexes connections over one NIC.
//
// Flow control is derived, not guessed: with C clients against S shards,
// a shard's runtime terminates C endpoints and every sender may burn its
// full per-endpoint credit window, so each runtime's SRQ is sized to
// (endpoints x credits) plus slack. Getting this wrong is not a slow
// path — UCR treats an SRQ overrun as a protocol bug.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/testbed.hpp"

namespace rmc::core {

struct FleetBedConfig {
  unsigned shards = 8;     ///< memcached servers (one host + HCA + runtime each)
  unsigned clients = 128;  ///< logical clients; connections = clients x shards
  unsigned generators = 8; ///< load-generator hosts the clients are packed onto
  ClusterKind cluster = ClusterKind::cluster_b;
  mc::ServerConfig server{};  ///< per-shard; shrink store.slabs.memory_limit
                              ///< below the working set for eviction storms
  /// In Mode::rfp the client-side ring geometry (client.rfp) is shrunk at
  /// defaults the same way arena_bytes is: thousands of connections
  /// multiply every slot.
  mc::ClientBehavior client{};
  /// Eager/credit tuning. Small values on purpose: fleet values are small
  /// (≤ ~1 KiB) and per-endpoint credit windows multiply across thousands
  /// of endpoints into SRQ arena bytes.
  std::uint32_t eager_limit = 1024;
  std::uint32_t credits_per_ep = 4;
};

class FleetBed {
 public:
  explicit FleetBed(FleetBedConfig config);
  FleetBed(const FleetBed&) = delete;
  FleetBed& operator=(const FleetBed&) = delete;
  ~FleetBed();

  sim::Scheduler& scheduler() { return *sched_; }
  sim::Fabric& fabric() { return *fabric_; }
  const FleetBedConfig& config() const { return config_; }

  std::size_t shard_count() const { return servers_.size(); }
  mc::Server& shard(std::size_t i) { return *servers_.at(i); }
  /// The UCR transport mode every client connection runs in.
  mc::ClientBehavior::Mode client_mode() const { return config_.client.mode; }

  std::size_t client_count() const { return clients_.size(); }
  mc::Client& client(std::size_t i) { return *clients_.at(i); }

  /// Total UCR connections: every client connects to every shard.
  std::size_t connection_count() const { return clients_.size() * servers_.size(); }

  /// Establish every client's connections; run inside the scheduler.
  sim::Task<Status> connect_all();

 private:
  FleetBedConfig config_;
  std::unique_ptr<sim::Scheduler> sched_;
  std::unique_ptr<sim::Fabric> fabric_;

  // One host + HCA + runtime per shard.
  std::vector<std::unique_ptr<sim::Host>> shard_hosts_;
  std::vector<std::unique_ptr<verbs::Hca>> shard_hcas_;
  std::vector<std::unique_ptr<ucr::Runtime>> shard_ucrs_;
  std::vector<std::unique_ptr<mc::Server>> servers_;
  std::vector<std::unique_ptr<rfp::RingServer>> shard_rings_;  ///< mode rfp

  // One host + HCA + runtime per generator, shared by its clients.
  std::vector<std::unique_ptr<sim::Host>> gen_hosts_;
  std::vector<std::unique_ptr<verbs::Hca>> gen_hcas_;
  std::vector<std::unique_ptr<ucr::Runtime>> gen_ucrs_;

  std::vector<std::unique_ptr<mc::Client>> clients_;
};

}  // namespace rmc::core
