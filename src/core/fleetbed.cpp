#include "core/fleetbed.hpp"

#include <algorithm>
#include <string>

#include "obs/profiler.hpp"

namespace rmc::core {

namespace {

const std::uint16_t kProfSetup =
    obs::profiler().register_scope("prof.sim.fleetbed.setup", obs::ScopeKind::engine);

/// Same adapter-generation cost model as TestBed (testbed.cpp): the fleet
/// runs the paper's design (UCR over native IB verbs) on either cluster.
verbs::VerbsCosts fleet_verbs_costs(ClusterKind cluster) {
  verbs::VerbsCosts costs;
  if (cluster == ClusterKind::cluster_a) {
    costs.post_wr_ns = 350;
    costs.doorbell_ns = 100;
    costs.hca_process_ns = 350;
    costs.hca_inbound_write_ns = 240;
  } else {
    costs.post_wr_ns = 250;
    costs.doorbell_ns = 80;
    costs.hca_process_ns = 250;
    costs.hca_inbound_write_ns = 170;
  }
  return costs;
}

/// SRQ sizing for a runtime terminating `endpoints` peers whose senders
/// each hold `credits` eager credits: every credit is a receive buffer the
/// sender may legitimately consume, so anything less risks the
/// receiver_not_ready protocol failure. The slack absorbs connection
/// setup traffic, which runs outside the credit window.
std::uint32_t srq_for(std::size_t endpoints, std::uint32_t credits) {
  return static_cast<std::uint32_t>(endpoints) * credits + 64;
}

}  // namespace

FleetBed::FleetBed(FleetBedConfig config) : config_(config) {
  obs::ProfScope prof{kProfSetup};
  config_.shards = std::max(1u, config_.shards);
  config_.clients = std::max(1u, config_.clients);
  config_.generators = std::clamp(config_.generators, 1u, config_.clients);
  config_.credits_per_ep = std::max(2u, config_.credits_per_ep);

  sched_ = std::make_unique<sim::Scheduler>();
  fabric_ = std::make_unique<sim::Fabric>(
      *sched_, config_.cluster == ClusterKind::cluster_a ? sim::ib_ddr_link()
                                                         : sim::ib_qdr_link());
  const verbs::VerbsCosts hca_costs = fleet_verbs_costs(config_.cluster);

  // Per-endpoint credit window, shared by both directions (client request
  // sends and server reply sends use their local runtime's window). The
  // return threshold must sit below the window or explicit credit returns
  // never fire and a quiet connection can wedge.
  ucr::UcrConfig base;
  base.eager_limit = config_.eager_limit;
  base.credits_per_ep = config_.credits_per_ep;
  base.credit_return_threshold = std::max(1u, config_.credits_per_ep / 2);

  const std::size_t clients_per_gen =
      (config_.clients + config_.generators - 1) / config_.generators;

  // Shards: each runtime terminates one endpoint per client.
  ucr::UcrConfig shard_ucr = base;
  shard_ucr.recv_buffers = srq_for(config_.clients, base.credits_per_ep);
  for (unsigned s = 0; s < config_.shards; ++s) {
    shard_hosts_.push_back(
        std::make_unique<sim::Host>(*sched_, s, "mc" + std::to_string(s), 8));
    shard_hcas_.push_back(
        std::make_unique<verbs::Hca>(*sched_, *fabric_, *shard_hosts_.back(), hca_costs));
    shard_ucrs_.push_back(std::make_unique<ucr::Runtime>(*shard_hcas_.back(), shard_ucr));
    servers_.push_back(
        std::make_unique<mc::Server>(*sched_, *shard_hosts_.back(), config_.server));
    servers_.back()->attach_ucr_frontend(*shard_ucrs_.back());
    if (config_.client.mode == mc::ClientBehavior::Mode::rfp) {
      shard_rings_.push_back(std::make_unique<rfp::RingServer>(
          *shard_ucrs_.back(), *shard_hosts_.back(), *servers_.back()));
    }
  }

  // Generators: each runtime terminates (its clients x shards) endpoints.
  ucr::UcrConfig gen_ucr = base;
  gen_ucr.recv_buffers = srq_for(clients_per_gen * config_.shards, base.credits_per_ep);
  for (unsigned g = 0; g < config_.generators; ++g) {
    gen_hosts_.push_back(std::make_unique<sim::Host>(*sched_, 10000 + g,
                                                     "gen" + std::to_string(g), 8));
    gen_hcas_.push_back(
        std::make_unique<verbs::Hca>(*sched_, *fabric_, *gen_hosts_.back(), hca_costs));
    gen_ucrs_.push_back(std::make_unique<ucr::Runtime>(*gen_hcas_.back(), gen_ucr));
  }

  // Clients: round-robin across generators, every client wired to every
  // shard. The per-connection landing arena is shrunk from the 8 MiB
  // single-connection default unless the caller already tuned it —
  // thousands of connections multiply it into real memory, and overflow
  // falls back gracefully anyway.
  mc::ClientBehavior behavior = config_.client;
  if (behavior.arena_bytes == mc::ClientBehavior{}.arena_bytes) {
    behavior.arena_bytes = 8 * 1024;
  }
  // Same reasoning for the RFP ring geometry: every connection's response
  // arena is slot_count x slot_size on the client AND a matching request
  // ring + staging on its shard, so untouched defaults shrink to fleet
  // scale (values there are <= ~1 KiB anyway).
  if (behavior.rfp.slot_count == rfp::ChannelConfig{}.slot_count) {
    behavior.rfp.slot_count = 4;
  }
  if (behavior.rfp.slot_size == rfp::ChannelConfig{}.slot_size) {
    behavior.rfp.slot_size = 1536;
  }
  for (unsigned c = 0; c < config_.clients; ++c) {
    const unsigned g = c % config_.generators;
    auto client = std::make_unique<mc::Client>(*sched_, *gen_hosts_[g], behavior);
    for (unsigned s = 0; s < config_.shards; ++s) {
      client->add_server_ucr(*gen_ucrs_[g], shard_ucrs_[s]->addr(), config_.server.port);
    }
    clients_.push_back(std::move(client));
  }
}

FleetBed::~FleetBed() = default;

sim::Task<Status> FleetBed::connect_all() {
  for (auto& client : clients_) {
    auto st = co_await client->connect_all();
    if (!st.ok()) co_return st;
  }
  co_return Status{};
}

}  // namespace rmc::core
