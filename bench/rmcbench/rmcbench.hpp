// rmcbench: fixed, seeded, closed-loop workloads against the public
// core/memcached APIs. This header is private to the benchmark.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/testbed.hpp"

namespace rmcbench {

enum class OpKind : std::uint8_t { get, set, mget, del };

/// One pregenerated op. For mget, `key` is the offset of its keys in the
/// client's ClientStream::mget_keys; otherwise it is the key index.
struct Op {
  std::uint32_t key = 0;
  OpKind kind = OpKind::get;
};

struct ClientStream {
  std::vector<Op> ops;
  std::vector<std::uint32_t> mget_keys;
};

/// One workload. The table in workloads.cpp is the benchmark's definition;
/// README.md says why each row exists.
struct WorkloadSpec {
  std::string_view name;
  bool fleet = false;  ///< FleetBed (sharded pool) instead of TestBed
  rmc::core::TransportKind transport = rmc::core::TransportKind::ucr_verbs;
  rmc::mc::ClientBehavior::Mode mode = rmc::mc::ClientBehavior::Mode::rpc;
  unsigned clients = 8;     ///< TestBed or FleetBed clients (a FleetBed client talks to every shard)
  unsigned shards = 1;      ///< FleetBed only
  unsigned generators = 1;  ///< FleetBed only
  std::uint32_t value_size = 64;
  std::uint32_t keys = 4096;
  double zipf_s = 0.0;  ///< 0 = uniform key picks
  std::uint32_t get_weight = 90;
  std::uint32_t set_weight = 10;
  std::uint32_t mget_weight = 0;
  std::uint32_t del_weight = 0;
  std::uint32_t mget_width = 8;
  std::uint64_t ops_per_client = 0;
  std::size_t slab_limit = 0;  ///< server memory limit; 0 = the store default
};

const std::vector<WorkloadSpec>& workloads();
const WorkloadSpec* find_workload(std::string_view name);

/// Fixed-width key for index `k`, and the byte every value of that key is
/// filled with, so a GET hit can be checked byte for byte.
std::string key_name(std::uint32_t k);
std::byte value_byte(std::uint32_t k);

/// Every client's op stream, generated from `seed` alone. `scale` shrinks
/// the per-client op count (smoke runs).
std::vector<ClientStream> make_streams(const WorkloadSpec& spec, std::uint64_t seed,
                                       double scale);
/// FNV-1a over every stream, to prove two seeds give different inputs.
std::uint64_t stream_hash(const std::vector<ClientStream>& streams);

/// Heap allocations seen by this process's operator new (alloc_count.cpp).
struct AllocCount {
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;
};
AllocCount alloc_count();

/// The machine-speed sentinel (ref_kernel.cpp): a fixed pointer chase plus
/// heap churn that shares no code with src/. Returns million steps per
/// host second.
double ref_kernel_mops();

/// The calibration slice (ref_kernel.cpp): a few milliseconds of a toy
/// event-heap loop, the kind of work the simulator does. Runs between
/// measured windows; its rate tracks the machine's current speed, which
/// drifts between plateaus up to 30 % apart on a shared host. Returns
/// million steps per host second.
double cal_kernel_mops();

}  // namespace rmcbench
