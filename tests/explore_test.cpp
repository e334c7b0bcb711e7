// Schedule-exploration tests (DESIGN.md §17): the TieBreaker hook, the
// ScheduleExplorer modes, and two exhaustively model-checked protocols —
// the RFP request-ring seqlock (client claim/seal/abandon vs server
// execute/release/re-bootstrap) and the one-sided index seqlock (writer
// republish vs reader two-step snapshot). Every interleaving of the
// bounded small models must keep the protocol invariants: epochs move
// monotonically within a ring generation, busy-slot accounting stays
// consistent, and no schedule ever surfaces a torn value as verified.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <set>
#include <tuple>
#include <vector>

#include "core/testbed.hpp"
#include "core/workload.hpp"
#include "onesided/layout.hpp"
#include "simnet/explore.hpp"
#include "simnet/scheduler.hpp"
#include "ucr/frame.hpp"

namespace rmc {
namespace {

// ---------------------------------------------------------------- basics

/// Three events inserted at the same timestamp; returns dispatch order.
std::vector<int> run_three(sim::TieBreaker* tb) {
  sim::Scheduler sched;
  sched.set_tie_breaker(tb);
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    sched.call_at(5, [&order, i] { order.push_back(i); });
  }
  sched.run();
  return order;
}

TEST(ExploreTest, InsertionModeIsByteIdenticalToNoTieBreaker) {
  const std::vector<int> bare = run_three(nullptr);
  sim::ScheduleExplorer insertion;  // default = insertion mode
  const std::vector<int> hooked = run_three(&insertion);
  EXPECT_EQ(bare, hooked);
  EXPECT_EQ(bare, (std::vector<int>{0, 1, 2}));  // the pinned guarantee
}

TEST(ExploreTest, PermutationSameSeedSameSchedule) {
  auto run_seeded = [](std::uint64_t seed) {
    auto ex = sim::ScheduleExplorer::permutation(seed);
    ex.begin_run();
    const std::vector<int> order = run_three(&ex);
    return std::make_pair(order, ex.trace());
  };
  const auto [order_a, trace_a] = run_seeded(42);
  const auto [order_b, trace_b] = run_seeded(42);
  EXPECT_EQ(order_a, order_b);
  EXPECT_EQ(trace_a, trace_b);
  EXPECT_FALSE(trace_a.empty());  // ties existed, decisions were recorded
}

TEST(ExploreTest, ReplayReproducesARecordedSchedule) {
  auto ex = sim::ScheduleExplorer::permutation(7);
  ex.begin_run();
  const std::vector<int> recorded = run_three(&ex);

  auto replay = sim::ScheduleExplorer::replay(ex.trace());
  replay.begin_run();
  const std::vector<int> replayed = run_three(&replay);
  EXPECT_EQ(recorded, replayed);
}

TEST(ExploreTest, ExhaustiveEnumeratesEveryPermutation) {
  auto ex = sim::ScheduleExplorer::exhaustive();
  std::set<std::vector<int>> seen;
  const sim::ExploreReport report = ex.explore([&](sim::ScheduleExplorer& e) {
    seen.insert(run_three(&e));
  });
  EXPECT_TRUE(report.exhausted);
  EXPECT_FALSE(report.truncated_runs);
  EXPECT_EQ(report.schedules, 6u);  // 3! orders of three tied events
  EXPECT_EQ(seen.size(), 6u);
  EXPECT_TRUE(report.failed_invariant.empty());
}

TEST(ExploreTest, InvariantCounterexampleIsReplayable) {
  auto ex = sim::ScheduleExplorer::exhaustive();
  std::vector<int>* current = nullptr;
  // Deliberately false on some schedules: event 2 must not run first.
  ex.add_invariant("no-2-first", [&current] {
    return current == nullptr || current->empty() || (*current)[0] != 2;
  });
  const sim::ExploreReport report = ex.explore([&](sim::ScheduleExplorer& e) {
    sim::Scheduler sched;
    sched.set_tie_breaker(&e);
    std::vector<int> order;
    current = &order;
    for (int i = 0; i < 3; ++i) {
      sched.call_at(5, [&order, i] { order.push_back(i); });
    }
    sched.run();
    current = nullptr;
  });
  ASSERT_EQ(report.failed_invariant, "no-2-first");
  ASSERT_FALSE(report.failing_trace.empty());

  // The recorded trace must reproduce the violating schedule exactly.
  auto replay = sim::ScheduleExplorer::replay(report.failing_trace);
  replay.begin_run();
  const std::vector<int> order = run_three(&replay);
  EXPECT_EQ(order[0], 2);
}

// --------------------------------------------- RFP request-ring small model
//
// Two ring slots, the real seal_frame/read_frame codec, and a client whose
// slot writes land as two racing memcpys (RDMA writes are not atomic).
// The client claims+seals op A, claims+abandons a half-written op B', then
// re-bootstraps the ring (new generation) and runs op B; the server sweeps
// on doorbells that race every client step. Whether op A is executed or
// lost to the re-bootstrap is schedule-dependent — the protocol invariants
// below must hold either way, on every interleaving.

struct RfpModel {
  static constexpr std::uint32_t kSlotSize = 64;
  static constexpr std::uint32_t kBodyLen = 16;

  explicit RfpModel(sim::Scheduler& s) : sched(s) {}

  sim::Scheduler& sched;
  std::array<std::array<std::byte, kSlotSize>, 2> ring{};
  std::array<std::uint32_t, 2> expected_seq{1, 1};
  std::array<std::byte, kSlotSize> staged{};

  int generation = 1;
  int busy = 0;
  std::array<bool, 2> claimed{false, false};

  int consumed = 0;
  bool a_consumed = false;
  bool b_consumed = false;
  int torn_seen = 0;
  bool bad_consume = false;  // server executed a mismatched body
  bool accounting_ok = true;
  bool epochs_monotonic = true;

  // Epoch-monotonicity bookkeeping (within one ring generation).
  std::array<std::uint32_t, 2> prev_seq{1, 1};
  int prev_gen = 1;

  std::span<std::byte> slot(std::uint32_t i) { return {ring[i].data(), kSlotSize}; }

  void stage(std::uint32_t seq, std::byte tag) {
    staged = {};
    auto body = ucr::frame_body(std::span<std::byte>(staged));
    std::fill(body.begin(), body.begin() + kBodyLen, tag);
    ucr::seal_frame(std::span<std::byte>(staged), seq, kBodyLen);
  }
  void copy_first_half(std::uint32_t i) {
    std::memcpy(ring[i].data(), staged.data(), kSlotSize / 2);
  }
  void copy_second_half(std::uint32_t i) {
    std::memcpy(ring[i].data() + kSlotSize / 2, staged.data() + kSlotSize / 2,
                kSlotSize / 2);
  }

  void claim(std::uint32_t i) {
    claimed[i] = true;
    ++busy;
  }

  void rebootstrap() {
    for (auto& s : ring) s = {};
    expected_seq = {1, 1};
    ++generation;
    busy = 0;
    claimed = {false, false};
  }

  void sweep() {
    for (std::uint32_t i = 0; i < 2; ++i) {
      std::span<const std::byte> body;
      switch (ucr::read_frame(slot(i), expected_seq[i], body)) {
        case ucr::FrameState::ready: {
          // Execute: the body must be exactly what some seal produced.
          if (body.size() != kBodyLen ||
              !std::all_of(body.begin(), body.end(),
                           [&](std::byte b) { return b == body[0]; })) {
            bad_consume = true;
          }
          ++consumed;
          if (body[0] == std::byte{'A'}) a_consumed = true;
          if (body[0] == std::byte{'B'}) b_consumed = true;
          expected_seq[i] += 1;  // release_slot: the server's epoch advance
          if (claimed[i]) {
            claimed[i] = false;
            --busy;  // response delivery frees the client's slot
          }
          break;
        }
        case ucr::FrameState::torn:
          ++torn_seen;  // a write still landing; never executed
          break;
        case ucr::FrameState::empty:
          break;
      }
    }
  }

  void check_invariants() {
    const int claimed_count =
        static_cast<int>(claimed[0]) + static_cast<int>(claimed[1]);
    if (busy != claimed_count || busy < 0 || busy > 2) accounting_ok = false;
    if (generation == prev_gen) {
      for (std::uint32_t i = 0; i < 2; ++i) {
        if (expected_seq[i] < prev_seq[i]) epochs_monotonic = false;
      }
    }
    prev_gen = generation;
    prev_seq = expected_seq;
  }

  void doorbell() {
    sched.call_at(sched.now(), [this] { sweep(); });
  }

  void step(int k) {
    switch (k) {
      case 0:  // claim slot 0, first half of op A lands
        claim(0);
        stage(1, std::byte{'A'});
        copy_first_half(0);
        break;
      case 1:  // second half lands: op A sealed
        copy_second_half(0);
        doorbell();
        break;
      case 2:  // claim slot 1, half-write, abandon (client gives up mid-op)
        claim(1);
        stage(1, std::byte{'X'});
        copy_first_half(1);
        break;
      case 3:  // re-bootstrap: fresh ring generation races pending sweeps
        rebootstrap();
        doorbell();
        break;
      case 4:  // claim slot 0 again in the new generation, first half of B
        claim(0);
        stage(1, std::byte{'B'});
        copy_first_half(0);
        break;
      case 5:  // op B sealed; final doorbell drains it
        copy_second_half(0);
        doorbell();
        break;
    }
    if (k < 5) {
      sched.call_at(sched.now(), [this, k] { step(k + 1); });
    }
  }
};

TEST(ExploreTest, RfpSmallModelHoldsOnEveryInterleaving) {
  auto ex = sim::ScheduleExplorer::exhaustive();
  RfpModel* model = nullptr;
  ex.add_invariant("rfp-busy-slot-accounting", [&model] {
    if (model == nullptr) return true;
    model->check_invariants();
    return model->accounting_ok;
  });
  ex.add_invariant("rfp-epoch-monotonic",
                   [&model] { return model == nullptr || model->epochs_monotonic; });
  ex.add_invariant("rfp-no-torn-execution",
                   [&model] { return model == nullptr || !model->bad_consume; });

  std::set<std::tuple<bool, bool, int>> outcomes;
  const sim::ExploreReport report = ex.explore([&](sim::ScheduleExplorer& e) {
    sim::Scheduler sched;
    sched.set_tie_breaker(&e);
    RfpModel m(sched);
    model = &m;
    sched.call_at(0, [&m] { m.step(0); });
    sched.run();
    // Op B is sealed after the re-bootstrap and a doorbell follows it, so
    // every schedule must execute it; op A may be lost to the re-bootstrap.
    EXPECT_TRUE(m.b_consumed) << "trace size " << e.trace().size();
    outcomes.insert({m.a_consumed, m.torn_seen > 0, m.consumed});
    model = nullptr;
  });

  EXPECT_TRUE(report.exhausted);
  EXPECT_FALSE(report.truncated_runs);
  EXPECT_GT(report.schedules, 1u);
  EXPECT_TRUE(report.failed_invariant.empty())
      << "failed: " << report.failed_invariant;
  // The explorer must actually reach distinct protocol outcomes (e.g. op A
  // executed on some schedules, discarded by the re-bootstrap on others).
  EXPECT_GE(outcomes.size(), 2u);
}

// ------------------------------------------- one-sided index small model
//
// One bucket entry + one arena record slot, the real BucketEntry and
// record frame codec (ucr::seal_frame, onesided::open_record). The writer
// republishes the record twice (retract, two racing record memcpys,
// publish); the reader runs three two-step snapshot reads (entry, then
// record — separate RDMA reads in the real protocol). A read that passes
// every verification step must return a value byte-exact for its version;
// torn observations must verify false.

struct OnesidedModel {
  static constexpr std::size_t kValueLen = 24;
  static constexpr std::uint32_t kHash = 0x5eed;

  explicit OnesidedModel(sim::Scheduler& s) : sched(s) {
    record.resize(onesided::record_size(1, kValueLen));
    staged.resize(record.size());
  }

  sim::Scheduler& sched;
  onesided::BucketEntry entry{};   // the published index line
  std::vector<std::byte> record;   // the arena slot
  std::vector<std::byte> staged;   // writer's next record image

  int verified_reads = 0;
  int rejected_reads = 0;
  bool bad_value = false;  // verified read returned mismatched bytes

  static std::byte value_byte(std::uint32_t version) {
    return static_cast<std::byte>(0x40 + version / 2);
  }

  void stage_record(std::uint32_t version) {
    const onesided::RecordMeta meta{.key_len = 1, .value_len = kValueLen};
    std::memset(staged.data(), 0, staged.size());
    const auto body = ucr::frame_body(staged);
    std::memcpy(body.data(), &meta, sizeof(meta));
    body[sizeof(meta)] = std::byte{'k'};
    std::memset(body.data() + sizeof(meta) + 1, static_cast<int>(value_byte(version)),
                kValueLen);
    ucr::seal_frame(staged, version, static_cast<std::uint32_t>(body.size()));
  }

  // Writer steps for generation g (stable version 2*g).
  void writer_step(int g, int phase) {
    const auto version = static_cast<std::uint32_t>(2 * g);
    switch (phase) {
      case 0:  // retract: odd version marks the slot unstable
        entry.version = version - 1;
        entry.seal();
        break;
      case 1:  // first half of the record rewrite lands
        stage_record(version);
        std::memcpy(record.data(), staged.data(), record.size() / 2);
        break;
      case 2:  // second half lands
        std::memcpy(record.data() + record.size() / 2,
                    staged.data() + record.size() / 2,
                    record.size() - record.size() / 2);
        break;
      case 3:  // publish: even version, self-checked entry
        entry.tag = onesided::BucketEntry::make_tag(kHash, 1);
        entry.version = version;
        entry.arena_offset = 0;
        entry.record_len = static_cast<std::uint32_t>(record.size());
        entry.seal();
        break;
    }
    const int next = phase + 1;
    if (next < 4) {
      sched.call_at(sched.now(), [this, g, next] { writer_step(g, next); });
    } else if (g < 2) {
      sched.call_at(sched.now(), [this, g] { writer_step(g + 1, 0); });
    }
  }

  // Reader: snapshot the entry, yield (a separate RDMA read), snapshot the
  // record, then verify exactly like RemoteGetter.
  onesided::BucketEntry entry_snap{};
  void reader_step(int r, int phase) {
    if (phase == 0) {
      entry_snap = entry;  // RDMA read of the bucket line
      sched.call_at(sched.now(), [this, r] { reader_step(r, 1); });
      return;
    }
    std::vector<std::byte> snap = record;  // RDMA read of the record
    verify(entry_snap, snap);
    if (r < 3) {
      sched.call_at(sched.now(), [this, r] { reader_step(r + 1, 0); });
    }
  }

  void verify(const onesided::BucketEntry& e, std::span<const std::byte> snap) {
    auto reject = [this] { ++rejected_reads; };
    if (!e.self_consistent() || !e.occupied() || (e.version & 1u) != 0 ||
        e.record_len != snap.size()) {
      return reject();
    }
    onesided::RecordView rec;
    if (!onesided::open_record(snap, e.version, rec) || rec.key != "k" ||
        rec.meta.value_len != kValueLen) {
      return reject();
    }
    // Verified: the value must be byte-exact for this version.
    ++verified_reads;
    if (!std::all_of(rec.value.begin(), rec.value.end(),
                     [&](std::byte b) { return b == value_byte(e.version); })) {
      bad_value = true;
    }
  }
};

TEST(ExploreTest, OnesidedWriterVsReaderNeverSurfacesTornValues) {
  auto ex = sim::ScheduleExplorer::exhaustive();
  OnesidedModel* model = nullptr;
  ex.add_invariant("onesided-no-torn-value",
                   [&model] { return model == nullptr || !model->bad_value; });

  int runs_with_verified = 0;
  int runs_with_rejected = 0;
  const sim::ExploreReport report = ex.explore([&](sim::ScheduleExplorer& e) {
    sim::Scheduler sched;
    sched.set_tie_breaker(&e);
    OnesidedModel m(sched);
    model = &m;
    sched.call_at(0, [&m] { m.writer_step(1, 0); });
    sched.call_at(0, [&m] { m.reader_step(1, 0); });
    sched.run();
    if (m.verified_reads > 0) ++runs_with_verified;
    if (m.rejected_reads > 0) ++runs_with_rejected;
    model = nullptr;
  });

  EXPECT_TRUE(report.exhausted);
  EXPECT_FALSE(report.truncated_runs);
  EXPECT_GT(report.schedules, 100u);  // C(14,6) interleavings of 8+6 steps
  EXPECT_TRUE(report.failed_invariant.empty())
      << "failed: " << report.failed_invariant;
  // Both outcomes must be reachable: clean verified reads on some
  // schedules, torn observations correctly rejected on others.
  EXPECT_GT(runs_with_verified, 0);
  EXPECT_GT(runs_with_rejected, 0);
}

// ------------------------------------------------------- fleet smoke test

TEST(ExploreTest, PermutationFleetSmokeHasZeroTornValues) {
  core::TestBedConfig bed_config;
  bed_config.num_clients = 8;
  bed_config.shards = 2;
  bed_config.generators = 2;
  core::TestBed bed(bed_config);

  // Permute every same-timestamp tie for the whole fleet run. Traces of a
  // multi-million-event run are useless — record off, the seed replays it.
  auto ex = sim::ScheduleExplorer::permutation(0xf1ee7);
  ex.set_trace_recording(false);
  bed.scheduler().set_tie_breaker(&ex);

  core::FleetWorkloadConfig workload;
  workload.key_space = 256;
  workload.ops_per_client = 25;
  workload.seed = 11;
  const core::WorkloadResult result = core::run_fleet(bed, workload);

  EXPECT_FALSE(result.connect_failed);
  EXPECT_GT(result.total_ops, 0u);
  EXPECT_EQ(result.value_mismatches, 0u);  // no torn values on any schedule
  EXPECT_EQ(result.failed_clients, 0u);
}

}  // namespace
}  // namespace rmc
