// The fleet workload engine and the workload-accounting fixes.
//
// Covers the pieces a wrong fleet number would hide behind: the Zipfian
// sampler (deterministic per seed, actually skewed), the flash-crowd hot
// window (moves across epochs, stays inside its bounds), eviction storms
// (evictions really happen and surviving hits carry intact bytes), the
// failed-client accounting fix (failures are *reported*, partial ops kept
// — never silently folded into a healthy-looking TPS), the connect-failure
// fast path (no hang), and the delayed-flush timer (last write wins,
// cancel-safe after server destruction).
#include <gtest/gtest.h>

#include <set>
#include <span>
#include <string>

#include "core/testbed.hpp"
#include "core/workload.hpp"
#include "memcached/server.hpp"
#include "obs/metrics.hpp"
#include "simnet/faults.hpp"

namespace rmc {
namespace {

using namespace rmc::literals;
using namespace rmc::core;

std::uint64_t metric(const char* name) { return obs::registry().counter(name).value(); }

std::span<const std::byte> bytes_view(const std::string& s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

// ------------------------------------------------------------- sampler

TEST(ZipfGeneratorTest, DeterministicPerSeed) {
  const ZipfGenerator zipf(10'000, 0.99);
  Rng a(42), b(42), c(43);
  std::uint64_t c_mismatches = 0;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t x = zipf(a);
    EXPECT_EQ(x, zipf(b)) << "same seed must give the same sequence";
    EXPECT_LT(x, 10'000u);
    if (x != zipf(c)) ++c_mismatches;
  }
  EXPECT_GT(c_mismatches, 0u) << "a different seed must give a different sequence";
}

TEST(ZipfGeneratorTest, SkewMatchesExponent) {
  constexpr std::uint64_t kN = 1000;
  constexpr int kDraws = 20'000;
  const auto rank0_share = [&](double s) {
    const ZipfGenerator zipf(kN, s);
    Rng rng(7);
    int rank0 = 0;
    for (int i = 0; i < kDraws; ++i) {
      if (zipf(rng) == 0) ++rank0;
    }
    return rank0;
  };
  // At the YCSB default the head is far above the uniform share
  // (kDraws / kN = 20 draws); analytically ~2660 here.
  EXPECT_GT(rank0_share(0.99), 20 * 20);
  // And the skew is monotone in s.
  EXPECT_GT(rank0_share(1.2), rank0_share(0.4));
}

TEST(KeySamplerTest, HotWindowShiftsAcrossEpochsAndStaysBounded) {
  FleetWorkloadConfig config;
  config.dist = KeyDist::hot_shift;
  config.key_space = 4096;
  config.hot_set_size = 16;
  config.hot_shift_interval = 1_ms;
  config.hot_fraction = 1.0;  // every sample must land in the window
  config.seed = 7;
  const KeySampler sampler(config);

  Rng rng(1);
  std::set<std::uint64_t> bases;
  for (sim::Time epoch = 0; epoch < 8; ++epoch) {
    const sim::Time now = epoch * 1_ms;
    const std::uint64_t base = sampler.hot_base(now);
    EXPECT_LT(base, config.key_space);
    bases.insert(base);
    for (int i = 0; i < 64; ++i) {
      const std::uint64_t key = sampler.sample(rng, now);
      const std::uint64_t offset = (key + config.key_space - base) % config.key_space;
      EXPECT_LT(offset, config.hot_set_size)
          << "sample outside the hot window at epoch " << epoch;
    }
  }
  EXPECT_GT(bases.size(), 1u) << "the hot set never moved";

  // interval == 0 pins the window: the flash crowd stands still.
  config.hot_shift_interval = 0;
  const KeySampler pinned(config);
  EXPECT_EQ(pinned.hot_base(0), pinned.hot_base(5 * 1_ms));
}

TEST(FleetKeyTest, EncodingIsStable) {
  // The torn-value check depends on this encoding; pin it.
  EXPECT_EQ(fleet_key(0), "k00000000");
  EXPECT_EQ(fleet_key(0x1234), "k00001234");
  EXPECT_EQ(fleet_key(0xdeadbeef), "kdeadbeef");
  EXPECT_EQ(fleet_value_byte(0), static_cast<std::byte>(0x21));
  EXPECT_NE(fleet_value_byte(1), fleet_value_byte(2));
}

// -------------------------------------------------------- fleet engine

TestBedConfig small_fleet() {
  TestBedConfig config;
  config.num_clients = 8;
  config.shards = 2;
  config.generators = 2;
  return config;
}

TEST(FleetWorkloadTest, DeterministicPerSeedAndAccountingConsistent) {
  FleetWorkloadConfig workload;
  workload.key_space = 256;
  workload.ops_per_client = 50;
  workload.seed = 11;

  const auto run_once = [&](std::uint64_t seed) {
    TestBed bed(small_fleet());
    FleetWorkloadConfig w = workload;
    w.seed = seed;
    return run_fleet(bed, w);
  };

  const WorkloadResult a = run_once(11);
  const WorkloadResult b = run_once(11);
  EXPECT_EQ(a.total_ops, b.total_ops);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.elapsed, b.elapsed);
  ASSERT_EQ(a.shards.size(), b.shards.size());
  for (std::size_t s = 0; s < a.shards.size(); ++s) {
    EXPECT_EQ(a.shards[s].ops, b.shards[s].ops) << "shard " << s;
    EXPECT_EQ(a.shards[s].hits, b.shards[s].hits) << "shard " << s;
  }

  const WorkloadResult c = run_once(12);
  EXPECT_TRUE(c.elapsed != a.elapsed || c.hits != a.hits ||
              c.shards[0].ops != a.shards[0].ops)
      << "a different seed must change the run";

  // Accounting invariants on a healthy run.
  EXPECT_EQ(a.failed_clients, 0u);
  EXPECT_FALSE(a.connect_failed);
  EXPECT_EQ(a.errors, 0u);
  EXPECT_EQ(a.value_mismatches, 0u);
  EXPECT_EQ(a.gets + a.sets + a.mgets + a.dels, a.total_ops);
  EXPECT_EQ(a.total_ops, 8u * workload.ops_per_client);
  std::uint64_t shard_ops = 0;
  for (const auto& s : a.shards) shard_ops += s.ops;
  EXPECT_GT(shard_ops, 0u);
  EXPECT_GT(a.tps(), 0.0);
}

TEST(FleetWorkloadTest, EvictionStormEvictsWithoutTornValues) {
  TestBedConfig bed_config = small_fleet();
  // Slab budget (2 x 1 MiB pages per shard) far below the working set:
  // ~8192 keys x ~900-byte chunks split across 2 shards is ~3.7 MiB each.
  bed_config.server.store.slabs.memory_limit = 2 * 1024 * 1024;
  TestBed bed(bed_config);

  FleetWorkloadConfig storm;
  storm.dist = KeyDist::uniform;
  storm.key_space = 8192;
  storm.value_size = 768;
  storm.get_weight = 20;
  storm.set_weight = 75;
  storm.mget_weight = 4;
  storm.del_weight = 1;
  storm.ops_per_client = 200;
  storm.seed = 3;

  const std::uint64_t evictions_before = metric("mc.store.evictions");
  const WorkloadResult r = run_fleet(bed, storm);

  std::uint64_t evictions = 0;
  for (const auto& s : r.shards) evictions += s.evictions;
  EXPECT_GT(evictions, 0u) << "the storm never overflowed the slab budget";
  EXPECT_GT(metric("mc.store.evictions"), evictions_before);

  EXPECT_EQ(r.failed_clients, 0u);
  EXPECT_EQ(r.errors, 0u);
  EXPECT_GT(r.hits, 0u);
  EXPECT_GT(r.misses, 0u) << "evicted keys should produce misses";
  EXPECT_EQ(r.value_mismatches, 0u) << "surviving hits must carry intact bytes";
}

// ------------------------------------------------- one bed, every mode

// One wiring path builds every shape: each cell runs a fleet mix and must
// come back clean, with its ops served by its mode's own path — a bypass
// that quietly degrades to RPC fails here. 2 shards × 8 clients on 2
// generators in onesided_get used to build no Publisher and serve every
// GET over RPC.
TEST(OneBedTest, EveryModeServesItsOwnPathOnEveryShape) {
  using Mode = mc::ClientBehavior::Mode;
  struct Cell {
    TransportKind transport;
    Mode mode;
    const char* served;    ///< counter of ops the mode's own path served
    const char* fallback;  ///< its fallbacks, or nullptr
  };
  const Cell cells[] = {
      {TransportKind::ucr_verbs, Mode::rpc, "mc.requests.ucr", nullptr},
      {TransportKind::ucr_verbs, Mode::onesided_get, "mc.oneside.reads", "mc.oneside.fallbacks"},
      {TransportKind::ucr_verbs, Mode::rfp, "mc.rfp.ops", "mc.rfp.fallbacks"},
      {TransportKind::ipoib, Mode::rpc, "mc.requests.text", nullptr},
  };
  struct Shape {
    unsigned shards, clients, generators;
  };
  const Shape shapes[] = {{1, 4, 0}, {2, 8, 2}};

  for (const Cell& cell : cells) {
    for (const Shape& shape : shapes) {
      SCOPED_TRACE(std::string(transport_name(cell.transport)) + " mode " +
                   std::to_string(static_cast<int>(cell.mode)) + ", " +
                   std::to_string(shape.shards) + " shards, " +
                   std::to_string(shape.generators) + " generators");
      TestBedConfig config;
      config.transport = cell.transport;
      config.num_clients = shape.clients;
      config.shards = shape.shards;
      config.generators = shape.generators;
      config.client.mode = cell.mode;
      TestBed bed(config);
      ASSERT_EQ(bed.connection_count(), std::size_t{shape.clients} * shape.shards);

      FleetWorkloadConfig workload;
      workload.key_space = 256;
      workload.ops_per_client = 40;
      workload.seed = 5;
      const std::uint64_t served0 = metric(cell.served);
      const std::uint64_t fallback0 = cell.fallback ? metric(cell.fallback) : 0;
      const WorkloadResult r = run_fleet(bed, workload);
      const std::uint64_t served =
          (metric(cell.served) - served0) -
          (cell.fallback ? metric(cell.fallback) - fallback0 : 0);

      EXPECT_FALSE(r.connect_failed);
      EXPECT_EQ(r.errors, 0u);
      EXPECT_EQ(r.failed_clients, 0u);
      EXPECT_EQ(r.value_mismatches, 0u);
      EXPECT_EQ(r.total_ops, std::uint64_t{shape.clients} * workload.ops_per_client);
      EXPECT_EQ(r.shards.size(), shape.shards);
      EXPECT_GT(r.gets, 0u);
      EXPECT_GT(served, r.gets / 2) << cell.served << " barely moved: the mode degraded";
    }
  }
}

// --------------------------------------------- accounting regressions

TEST(WorkloadAccountingTest, FailedClientsReportedWithPartialOpsKept) {
  TestBedConfig config;
  config.num_clients = 2;
  TestBed bed(config);
  // Kill the server NIC mid-run: both clients have completed ops by then,
  // and both must be reported as failed — with their partials kept.
  bed.fabric().faults().schedule(
      {{1_ms, {.kind = sim::Fault::Kind::node_down, .a = bed.server_hca()->addr()}}});

  WorkloadConfig workload;
  workload.value_size = 64;
  workload.ops_per_client = 1'000'000;  // far more than fits before the fault
  const WorkloadResult r = run_workload(bed, workload);

  EXPECT_EQ(r.failed_clients, 2u);
  EXPECT_FALSE(r.connect_failed);
  EXPECT_GT(r.total_ops, 0u) << "partial ops of failed clients must be kept";
  EXPECT_EQ(r.failed_client_ops, r.total_ops);
  EXPECT_EQ(r.all_latency.count(), r.total_ops);
  EXPECT_GT(r.elapsed, 0u);
}

TEST(WorkloadAccountingTest, ConnectFailureFailsFastWithoutHang) {
  TestBedConfig config;
  config.num_clients = 2;
  TestBed bed(config);
  bed.fabric().faults().set_node_down(bed.server_hca()->addr(), true);

  WorkloadConfig workload;
  workload.ops_per_client = 10;
  // Regression: this used to leave every client suspended on the start
  // barrier forever. It must return, with the failure explicit.
  const WorkloadResult r = run_workload(bed, workload);
  EXPECT_TRUE(r.connect_failed);
  EXPECT_EQ(r.failed_clients, 2u);
  EXPECT_EQ(r.total_ops, 0u);
}

// ------------------------------------------------------- flush timers

TEST(FlushTimerTest, DelayedFlushFiresAtItsDeadline) {
  sim::Scheduler sched;
  sim::Host host(sched, 0, "srv", 8);
  mc::Server server(sched, host, {});
  const std::string v = "value";
  ASSERT_TRUE(server.store().store(mc::SetMode::set, "k", bytes_view(v), 0, 0).ok());

  server.schedule_flush(1);
  sched.run_until(500 * 1_ms);
  EXPECT_NE(server.store().get("k"), nullptr) << "flushed before its deadline";
  sched.run_until(1500 * 1_ms);
  EXPECT_EQ(server.store().get("k"), nullptr) << "delayed flush never fired";
}

TEST(FlushTimerTest, NewestFlushWins) {
  sim::Scheduler sched;
  sim::Host host(sched, 0, "srv", 8);
  mc::Server server(sched, host, {});
  const std::string v = "value";

  // An immediate flush supersedes a pending delayed one: the stale timer
  // must not fire later and wipe data written after it.
  ASSERT_TRUE(server.store().store(mc::SetMode::set, "k", bytes_view(v), 0, 0).ok());
  server.schedule_flush(2);
  server.schedule_flush(0);
  EXPECT_EQ(server.store().get("k"), nullptr) << "immediate flush did not flush";
  ASSERT_TRUE(server.store().store(mc::SetMode::set, "k", bytes_view(v), 0, 0).ok());
  sched.run_until(3 * kNsPerSec);
  EXPECT_NE(server.store().get("k"), nullptr)
      << "the superseded 2s timer fired anyway (stacked-timer regression)";

  // A newer delayed flush supersedes an older one, in both directions.
  server.schedule_flush(5);
  server.schedule_flush(1);
  sched.run_until(sched.now() + 2 * kNsPerSec);
  EXPECT_EQ(server.store().get("k"), nullptr) << "newest (1s) flush did not fire";
  ASSERT_TRUE(server.store().store(mc::SetMode::set, "k", bytes_view(v), 0, 0).ok());
  sched.run_until(sched.now() + 6 * kNsPerSec);
  EXPECT_NE(server.store().get("k"), nullptr) << "stale 5s flush fired anyway";
}

TEST(FlushTimerTest, PendingFlushIsCancelSafeAfterServerDestruction) {
  sim::Scheduler sched;
  sim::Host host(sched, 0, "srv", 8);
  {
    mc::Server server(sched, host, {});
    sched.run_until(1_ms);  // let the worker loops start and park
    server.schedule_flush(1);
  }
  // The timer fires into a destroyed server; the liveness token makes it a
  // no-op (ASan would flag the old capture-this use-after-free here).
  sched.run_until(2 * kNsPerSec);
}

}  // namespace
}  // namespace rmc
