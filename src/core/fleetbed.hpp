// The packed pool shape under its older name: FleetBedConfig describes S
// shards and C clients packed onto G generator hosts, and a FleetBed is the
// TestBed built from it. All wiring, costs and budgets live in TestBed.
#pragma once

#include "core/testbed.hpp"

namespace rmc::core {

struct FleetBedConfig {
  unsigned shards = 8;
  unsigned clients = 128;
  unsigned generators = 8;
  mc::ServerConfig server{};
  mc::ClientBehavior client{};
};

class FleetBed : public TestBed {
 public:
  explicit FleetBed(const FleetBedConfig& config) : TestBed(bed_config(config)) {}

 private:
  static TestBedConfig bed_config(const FleetBedConfig& config) {
    TestBedConfig bed;
    bed.num_clients = config.clients;
    bed.shards = config.shards;
    bed.generators = config.generators;
    bed.server = config.server;
    bed.client = config.client;
    return bed;
  }
};

}  // namespace rmc::core
