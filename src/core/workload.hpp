// The benchmark workload runner — our equivalent of the paper's
// memslap-inspired suite (§VI): it drives the standard client API (not raw
// packets), measures per-operation latency in virtual time, and reports
// aggregate transactions per second for multi-client runs.
//
// One closed-loop driver runs every workload on a TestBed: each client
// populates its keys, waits at a start barrier, then issues its op stream
// back to back. Two op-stream generators feed it:
//
//  * run_workload — the figure workloads (§VI-B/C): the instruction mixes
//    of OpPattern, uniform picks over a private per-client key set.
//  * run_fleet — the production-shape mixes of FleetWorkloadConfig for a
//    sharded pool: pluggable key distributions (uniform / Zipfian /
//    hot-key flash crowd), mixed op streams (get / set / multiget fan-out
//    / delete), TTL churn and deliberate eviction storms.
//
// Both are deterministic per seed.
#pragma once

#include <cstdint>
#include <vector>

#include "common/histogram.hpp"
#include "common/rng.hpp"
#include "core/testbed.hpp"

namespace rmc::core {

/// Instruction mixes of §VI-B/C.
enum class OpPattern : std::uint8_t {
  pure_set,         ///< 100% Set
  pure_get,         ///< 100% Get
  non_interleaved,  ///< 10 Sets followed by 90 Gets per 100 ops
  interleaved,      ///< alternating Set / Get (50%/50%)
};

std::string_view pattern_name(OpPattern pattern);

struct WorkloadConfig {
  OpPattern pattern = OpPattern::pure_get;
  std::uint32_t value_size = 4096;  ///< item size (the x-axis of Figs. 3-5)
  std::uint64_t ops_per_client = 1000;
  std::uint64_t seed = 1;
};

// ===================================================================
// Fleet workload library
// ===================================================================

/// Key-pick distributions for the fleet engine.
enum class KeyDist : std::uint8_t {
  uniform,    ///< every key equally likely
  zipfian,    ///< rank-skewed, P(rank k) ∝ 1/(k+1)^s — web-cache shape
  hot_shift,  ///< flash crowd: a small hot set takes most ops, and the
              ///< hot set jumps to a new spot mid-run
};

std::string_view key_dist_name(KeyDist dist);

/// O(1) Zipfian sampler over [0, n) with exponent s, after Gray et al.
/// ("Quickly generating billion-record synthetic databases"): the zeta
/// constants are precomputed once (O(n) at construction), each draw is a
/// single uniform plus a pow(). Deterministic given a deterministic Rng.
/// Rank 0 is the most popular key.
class ZipfGenerator {
 public:
  ZipfGenerator(std::uint64_t n, double s);
  std::uint64_t operator()(Rng& rng) const;
  std::uint64_t n() const { return n_; }
  double s() const { return s_; }

 private:
  std::uint64_t n_;
  double s_;
  double alpha_;
  double zetan_;
  double eta_;
};

/// Fleet workload shape: key distribution, op mix, churn knobs.
struct FleetWorkloadConfig {
  // ---- key distribution ----
  KeyDist dist = KeyDist::zipfian;
  double zipf_s = 0.99;            ///< Zipfian exponent (YCSB default)
  std::uint64_t key_space = 16384; ///< shared global keyspace across clients
  // hot_shift knobs: `hot_fraction` of ops land on a window of
  // `hot_set_size` keys whose base jumps every `hot_shift_interval` of
  // sim time (0 = the hot set never moves; the rest is uniform).
  double hot_fraction = 0.9;
  std::uint64_t hot_set_size = 64;
  sim::Time hot_shift_interval = 0;

  // ---- op mix (integer weights, any scale) ----
  std::uint32_t get_weight = 85;
  std::uint32_t set_weight = 10;
  std::uint32_t mget_weight = 4;   ///< multiget fan-out across shards
  std::uint32_t del_weight = 1;
  std::uint32_t mget_width = 8;    ///< keys per multiget

  // ---- churn ----
  /// Fraction of sets that carry a short TTL (TTL churn). Expiry is
  /// visible once sim time crosses a second boundary — pair with an
  /// explicit delay phase to observe it.
  double ttl_set_fraction = 0.0;
  std::uint32_t ttl_seconds = 1;

  std::uint32_t value_size = 128;
  std::uint64_t ops_per_client = 100;
  /// Pre-write the whole key space (split across clients) before timing.
  bool populate = true;
  std::uint64_t seed = 1;
};

/// Key sampler composing the distribution knobs above. sample() maps an
/// Rng draw (plus sim time, for hot_shift epochs) to a key index.
class KeySampler {
 public:
  explicit KeySampler(const FleetWorkloadConfig& config);
  std::uint64_t sample(Rng& rng, sim::Time now) const;
  /// First key of the hot window at sim time `now` (hot_shift only;
  /// exposed so tests can assert the mid-run shift).
  std::uint64_t hot_base(sim::Time now) const;

 private:
  KeyDist dist_;
  std::uint64_t key_space_;
  double hot_fraction_;
  std::uint64_t hot_set_size_;
  sim::Time hot_shift_interval_;
  std::uint64_t seed_;
  ZipfGenerator zipf_;
};

/// Deterministic key / value encoding shared by the engine and its tests:
/// key index i becomes a fixed-width hex key, and every byte of its value
/// is fleet_value_byte(i) — so any hit can be checked for torn bytes.
std::string fleet_key(std::uint64_t index);
std::byte fleet_value_byte(std::uint64_t index);

// ===================================================================
// The driver
// ===================================================================

struct ShardStats {
  std::uint64_t ops = 0;     ///< ops routed to this shard (mget: per key)
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;  ///< store evictions during the run
};

struct WorkloadResult {
  LatencyHistogram get_latency;
  LatencyHistogram set_latency;
  LatencyHistogram mget_latency;
  LatencyHistogram all_latency;  ///< every completed op, deletes included
  std::uint64_t gets = 0;
  std::uint64_t sets = 0;
  std::uint64_t mgets = 0;
  std::uint64_t dels = 0;
  std::uint64_t hits = 0;    ///< get + mget per-key hits
  std::uint64_t misses = 0;  ///< get + mget per-key misses; a miss is no error
  std::uint64_t errors = 0;  ///< transport/server errors (op not counted)
  /// Hits whose value bytes did not match what the stream wrote — torn or
  /// corrupt values. Always 0 in a healthy run.
  std::uint64_t value_mismatches = 0;
  std::uint64_t total_ops = 0;  ///< completed ops, incl. failed clients' partials
  /// Clients that gave up (connect failure, or 16 failed ops: one
  /// unreachable shard does not stop a client's traffic to the healthy
  /// ones). Their partial ops and histograms ARE included above — a result
  /// with failed_clients != 0 is explicitly marked, never silently
  /// rescaled.
  std::uint64_t failed_clients = 0;
  std::uint64_t failed_client_ops = 0;  ///< the partial share of total_ops
  /// connect_all itself failed: nobody ran, all clients count as failed.
  bool connect_failed = false;
  sim::Time elapsed = 0;  ///< synchronized start -> last client finish
  std::vector<ShardStats> shards;

  /// Aggregate transactions per second across all clients (Fig. 6 metric).
  double tps() const {
    return elapsed ? static_cast<double>(total_ops) / to_sec(elapsed) : 0.0;
  }
  /// Mean operation latency in microseconds (Figs. 3-5 metric).
  double mean_latency_us() const { return all_latency.mean() / 1e3; }
  double hit_ratio() const {
    const std::uint64_t lookups = hits + misses;
    return lookups ? static_cast<double>(hits) / static_cast<double>(lookups) : 0.0;
  }
};

/// Drive `bed` through one run: every client populates its keys, all start
/// together, and each runs its op stream closed-loop to completion.
/// run_workload runs the §VI pattern streams, run_fleet the fleet mixes.
/// Each run publishes the mc.fleet.* metrics (per-shard op counts, hit
/// ratio, eviction counts, per-op latency timers) into the registry. Fully
/// deterministic per seed.
WorkloadResult run_workload(TestBed& bed, const WorkloadConfig& config);
WorkloadResult run_fleet(TestBed& bed, const FleetWorkloadConfig& config);

}  // namespace rmc::core
