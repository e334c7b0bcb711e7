// Fleet-scale scenario: a sharded memcached pool under production-shape
// traffic. Eight (or more) shards serve a thousand-plus client
// connections packed onto a few load-generator hosts, and the workload
// engine walks through the traffic patterns a real cache fleet sees:
//
//   1. saturation  — closed-loop Zipfian mix (get/set/mget/del); the
//                    aggregate sim-time TPS is the `fleet_10k_ops_per_sec`
//                    headline when run at 1250 clients x 8 shards
//                    (10,000 connections).
//   2. flash crowd — 90% of ops hammer a 64-key hot set that jumps to a
//                    new spot mid-run (the "celebrity died" pattern).
//   3. TTL churn   — half the sets carry a 1-second TTL; the sim clock
//                    then jumps past expiry and a re-read phase shows the
//                    hit ratio crater.
//   4. eviction storm — uniform set-heavy traffic over a working set
//                    several times the slab budget; the LRU grinds,
//                    evictions climb, and every surviving hit still
//                    carries intact bytes (torn values = 0).
//   5. rfp smoke   — a second, small fleet with every connection in
//                    remote-fetch-ring mode (DESIGN.md §16): the mixed
//                    workload runs over server-bypass rings end to end,
//                    with ring traffic and fallback share reported.
//
// Deterministic: the same --seed reproduces the report byte for byte.
//
//   $ ./examples/fleet                      # 8 shards, 128 clients (1024 conns)
//   $ ./examples/fleet --clients 1250       # the 10k-connection headline shape
//   $ ./examples/fleet --json out.json      # connections, phases and headline as JSON
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "core/testbed.hpp"
#include "core/workload.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"

using namespace rmc;
using namespace rmc::literals;

namespace {

std::string arg_value(int argc, char** argv, std::string_view flag) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string_view(argv[i]) == flag) return argv[i + 1];
  }
  return {};
}

std::uint64_t arg_u64(int argc, char** argv, std::string_view flag, std::uint64_t dflt) {
  const std::string v = arg_value(argc, argv, flag);
  return v.empty() ? dflt : std::strtoull(v.c_str(), nullptr, 10);
}

void print_phase(const char* name, const core::WorkloadResult& r) {
  std::printf("%-14s %9llu ops  %10.0f ops/s  hit %5.1f%%  p50 %7.1fus  p99 %7.1fus",
              name, static_cast<unsigned long long>(r.total_ops), r.tps(),
              100.0 * r.hit_ratio(),
              static_cast<double>(r.all_latency.percentile(0.50)) / 1e3,
              static_cast<double>(r.all_latency.percentile(0.99)) / 1e3);
  if (r.errors != 0 || r.failed_clients != 0) {
    std::printf("  [errors %llu, failed clients %llu]",
                static_cast<unsigned long long>(r.errors),
                static_cast<unsigned long long>(r.failed_clients));
  }
  std::printf("\n");
}

void print_shards(const core::WorkloadResult& r) {
  std::printf("    shard:");
  for (std::size_t s = 0; s < r.shards.size(); ++s) {
    std::printf(" mc%zu=%llu", s, static_cast<unsigned long long>(r.shards[s].ops));
  }
  std::printf("\n");
}

std::uint64_t total_evictions(const core::WorkloadResult& r) {
  std::uint64_t n = 0;
  for (const auto& sh : r.shards) n += sh.evictions;
  return n;
}

}  // namespace

int main(int argc, char** argv) {
  const auto shards = static_cast<unsigned>(arg_u64(argc, argv, "--shards", 8));
  const auto clients = static_cast<unsigned>(arg_u64(argc, argv, "--clients", 128));
  const auto gens = static_cast<unsigned>(
      arg_u64(argc, argv, "--gens", std::min(8u, std::max(1u, clients))));
  const std::uint64_t ops = arg_u64(argc, argv, "--ops", 100);
  const std::uint64_t seed = arg_u64(argc, argv, "--seed", 1);
  const std::string json_path = arg_value(argc, argv, "--json");
  const std::string profile_path = arg_value(argc, argv, "--profile");
  if (!profile_path.empty()) obs::profiler().enable();

  core::TestBedConfig bed_config;
  bed_config.num_clients = clients;
  bed_config.shards = shards;
  bed_config.generators = gens;
  // Deliberately tight slab budget per shard: phases 1-3 fit their working
  // sets, the storm phase (several times this in set bytes) does not.
  bed_config.server.store.slabs.memory_limit = 2 * 1024 * 1024;
  core::TestBed bed(bed_config);

  std::printf("fleet: %u shards x %u clients = %zu connections on %u generator hosts "
              "(seed %llu)\n\n",
              shards, clients, bed.connection_count(), gens,
              static_cast<unsigned long long>(seed));

  // ---- phase 1: saturation (the headline) ----
  core::FleetWorkloadConfig saturation;
  saturation.dist = core::KeyDist::zipfian;
  saturation.zipf_s = 0.99;
  saturation.key_space = 8192;
  saturation.value_size = 128;
  saturation.ops_per_client = ops;
  saturation.seed = seed;
  const auto sat = core::run_fleet(bed, saturation);
  print_phase("saturation", sat);
  print_shards(sat);

  // ---- phase 2: flash crowd (hot set shifts mid-run) ----
  core::FleetWorkloadConfig flash = saturation;
  flash.dist = core::KeyDist::hot_shift;
  flash.hot_fraction = 0.9;
  flash.hot_set_size = 64;
  flash.hot_shift_interval = 1_ms;
  flash.populate = false;  // the keyspace is already warm
  flash.seed = seed + 1;
  const auto crowd = core::run_fleet(bed, flash);
  print_phase("flash-crowd", crowd);

  // ---- phase 3: TTL churn — write short-lived items, outlive them ----
  // Concentrated on a small slice of the keyspace (uniform, so most of the
  // slice gets a TTL write) to make the expiry crater visible in the
  // re-read phase.
  core::FleetWorkloadConfig churn = saturation;
  churn.dist = core::KeyDist::uniform;
  churn.key_space = 512;
  churn.get_weight = 30;
  churn.set_weight = 65;
  churn.mget_weight = 4;
  churn.del_weight = 1;
  churn.ttl_set_fraction = 0.5;
  churn.ttl_seconds = 1;
  churn.populate = false;
  churn.seed = seed + 2;
  const auto ttl_write = core::run_fleet(bed, churn);
  print_phase("ttl-churn", ttl_write);

  // Jump the sim clock past every TTL (sim seconds are free), then
  // re-read: the expired half of the churned keys now miss.
  bed.scheduler().spawn([](sim::Scheduler& s) -> sim::Task<> {
    co_await s.delay(2 * kNsPerSec + 500_ms);
  }(bed.scheduler()));
  bed.scheduler().run();
  core::FleetWorkloadConfig reread = saturation;
  reread.dist = core::KeyDist::uniform;
  reread.key_space = 512;
  reread.get_weight = 100;
  reread.set_weight = 0;
  reread.mget_weight = 0;
  reread.del_weight = 0;
  reread.populate = false;
  reread.seed = seed + 3;
  const auto expired = core::run_fleet(bed, reread);
  print_phase("ttl-reread", expired);

  // ---- phase 4: eviction storm — working set >> slab budget ----
  core::FleetWorkloadConfig storm = saturation;
  storm.dist = core::KeyDist::uniform;
  storm.key_space = 32768;
  storm.value_size = 768;
  storm.get_weight = 15;
  storm.set_weight = 80;
  storm.mget_weight = 4;
  storm.del_weight = 1;
  storm.ops_per_client = std::max<std::uint64_t>(ops, 2 * ops);
  storm.populate = false;
  storm.seed = seed + 4;
  const auto evict = core::run_fleet(bed, storm);
  print_phase("evict-storm", evict);
  std::printf("    evictions: %llu across %zu shards  torn values: %llu\n",
              static_cast<unsigned long long>(total_evictions(evict)),
              evict.shards.size(), static_cast<unsigned long long>(evict.value_mismatches));

  // ---- phase 5: rfp smoke — a small fleet riding the server-bypass rings ----
  // A fixed small shape independent of --clients so the headline runs don't
  // double; the point is end-to-end coverage of the ring path under the
  // sharded mixed workload, not throughput.
  core::TestBedConfig rfp_config;
  rfp_config.num_clients = 16;
  rfp_config.shards = 2;
  rfp_config.generators = 2;
  rfp_config.client.mode = mc::ClientBehavior::Mode::rfp;
  core::TestBed rfp_bed(rfp_config);
  core::FleetWorkloadConfig rfp_mix = saturation;
  rfp_mix.key_space = 2048;
  rfp_mix.seed = seed + 5;
  const std::uint64_t rfp_ops_before =
      obs::registry().counter("mc.rfp.ops").value();
  const std::uint64_t rfp_fb_before =
      obs::registry().counter("mc.rfp.fallbacks").value();
  const auto rfp_smoke = core::run_fleet(rfp_bed, rfp_mix);
  const std::uint64_t rfp_ring_ops =
      obs::registry().counter("mc.rfp.ops").value() - rfp_ops_before;
  const std::uint64_t rfp_fallbacks =
      obs::registry().counter("mc.rfp.fallbacks").value() - rfp_fb_before;
  print_phase("rfp-smoke", rfp_smoke);
  std::printf("    ring ops: %llu  fallbacks: %llu  torn values: %llu\n",
              static_cast<unsigned long long>(rfp_ring_ops),
              static_cast<unsigned long long>(rfp_fallbacks),
              static_cast<unsigned long long>(rfp_smoke.value_mismatches));

  std::printf("\nheadline: fleet_10k_ops_per_sec = %.0f (saturation phase, sim time)\n",
              sat.tps());

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n  \"connections\": %zu,\n  \"phases\": {\n"
                 "    \"saturation\": {\"ops\": %llu, \"tps\": %.1f, \"hit_ratio\": %.4f},\n"
                 "    \"flash_crowd\": {\"ops\": %llu, \"tps\": %.1f, \"hit_ratio\": %.4f},\n"
                 "    \"ttl_reread\": {\"ops\": %llu, \"hit_ratio\": %.4f},\n"
                 "    \"evict_storm\": {\"ops\": %llu, \"evictions\": %llu, "
                 "\"value_mismatches\": %llu},\n"
                 "    \"rfp_smoke\": {\"ops\": %llu, \"ring_ops\": %llu, "
                 "\"fallbacks\": %llu, \"hit_ratio\": %.4f, \"value_mismatches\": %llu}\n"
                 "  },\n  \"headline\": {\"fleet_10k_ops_per_sec\": %.1f}\n}\n",
                 bed.connection_count(),
                 static_cast<unsigned long long>(sat.total_ops), sat.tps(), sat.hit_ratio(),
                 static_cast<unsigned long long>(crowd.total_ops), crowd.tps(),
                 crowd.hit_ratio(),
                 static_cast<unsigned long long>(expired.total_ops), expired.hit_ratio(),
                 static_cast<unsigned long long>(evict.total_ops),
                 static_cast<unsigned long long>(total_evictions(evict)),
                 static_cast<unsigned long long>(evict.value_mismatches),
                 static_cast<unsigned long long>(rfp_smoke.total_ops),
                 static_cast<unsigned long long>(rfp_ring_ops),
                 static_cast<unsigned long long>(rfp_fallbacks), rfp_smoke.hit_ratio(),
                 static_cast<unsigned long long>(rfp_smoke.value_mismatches), sat.tps());
    std::fclose(f);
    std::fprintf(stderr, "json written to %s\n", json_path.c_str());
  }

  if (!profile_path.empty()) {
    obs::profiler().disable();
    const std::string json = obs::profiler().to_json();
    if (std::FILE* f = std::fopen(profile_path.c_str(), "w")) {
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
      std::fprintf(stderr, "profile written to %s\n", profile_path.c_str());
    }
  }

  const std::string metrics_path = arg_value(argc, argv, "--metrics-json");
  if (!metrics_path.empty()) {
    const std::string json = obs::registry().to_json();
    if (std::FILE* f = std::fopen(metrics_path.c_str(), "w")) {
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
      std::fprintf(stderr, "metrics written to %s\n", metrics_path.c_str());
    }
  }
  return 0;
}
