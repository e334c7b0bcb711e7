// One-sided GET subsystem: the self-verifying remote index.
//
// Covers the publisher's publish/retract discipline (link, delete, flush,
// oversize skip, bucket displacement), the client's two-read verify
// ladder with its RPC fallback, and — the governing invariant — that a
// one-sided GET NEVER surfaces a torn value: under concurrent writers and
// a scripted lossy-link window, every GET either verifies a consistent
// published record or falls back to the RPC path.
#include <gtest/gtest.h>

#include <charconv>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "memcached/client.hpp"
#include "memcached/server.hpp"
#include "obs/metrics.hpp"
#include "onesided/publisher.hpp"
#include "onesided/remote_getter.hpp"
#include "simnet/faults.hpp"
#include "simnet/netparams.hpp"
#include "ucr/runtime.hpp"

namespace rmc {
namespace {

using namespace rmc::literals;
using sim::Scheduler;
using sim::Task;

std::uint64_t metric(const char* name) { return obs::registry().counter(name).value(); }

std::span<const std::byte> bytes_view(const std::string& s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

/// One server with a Publisher, one one-sided reader client, one RPC-only
/// writer client, all on one QDR fabric with the fault injector in reach.
struct OneSidedWorld {
  Scheduler sched;
  sim::Fabric fabric{sched, sim::ib_qdr_link()};

  sim::Host server_host{sched, 0, "server", 8};
  verbs::Hca server_hca{sched, fabric, server_host};
  ucr::Runtime server_ucr{server_hca};
  mc::Server server{sched, server_host, mc::ServerConfig{}};
  std::unique_ptr<onesided::Publisher> publisher;

  sim::Host reader_host{sched, 1, "reader", 8};
  verbs::Hca reader_hca{sched, fabric, reader_host};
  ucr::Runtime reader_ucr{reader_hca};
  std::unique_ptr<mc::Client> reader;

  sim::Host writer_host{sched, 2, "writer", 8};
  verbs::Hca writer_hca{sched, fabric, writer_host};
  ucr::Runtime writer_ucr{writer_hca};
  std::unique_ptr<mc::Client> writer;

  explicit OneSidedWorld(onesided::PublisherConfig pub_cfg = {},
                         mc::ClientBehavior reader_behavior = {}, bool publish = true) {
    server.attach_ucr_frontend(server_ucr);
    if (publish) {
      publisher = std::make_unique<onesided::Publisher>(server_ucr, server_host,
                                                        server.store(), pub_cfg);
    }
    reader_behavior.mode = mc::ClientBehavior::Mode::onesided_get;
    reader = std::make_unique<mc::Client>(sched, reader_host, reader_behavior);
    reader->add_server_ucr(reader_ucr, server_ucr.addr(), 11211);
    writer = std::make_unique<mc::Client>(sched, writer_host, mc::ClientBehavior{});
    writer->add_server_ucr(writer_ucr, server_ucr.addr(), 11211);
  }

  /// Run one coroutine to completion under a horizon.
  void drive(Task<> task, sim::Time horizon = 5_s) {
    bool done = false;
    sched.spawn([](Task<> inner, bool& fin) -> Task<> {
      co_await std::move(inner);
      fin = true;
    }(std::move(task), done));
    const sim::Time deadline = sched.now() + horizon;
    while (!done && sched.now() < deadline) {
      const sim::Time before = sched.now();
      sched.run_until(std::min(deadline, before + 1_ms));
      if (sched.now() == before) break;  // queue drained: no progress possible
    }
    ASSERT_TRUE(done) << "scenario hung past its horizon";
  }
};

// ----------------------------------------------------- the happy path ----

TEST(OneSided, HitBypassesServerAndFallsBackOnMissAndDelete) {
  OneSidedWorld w;
  const std::uint64_t reads0 = metric("mc.oneside.reads");
  const std::uint64_t falls0 = metric("mc.oneside.fallbacks");

  w.drive([](OneSidedWorld& wk) -> Task<> {
    EXPECT_TRUE((co_await wk.writer->connect_all()).ok());
    EXPECT_TRUE((co_await wk.reader->connect_all()).ok());
    EXPECT_TRUE((co_await wk.writer->set("alpha", bytes_view("value-one"), 7)).ok());

    const auto gets_before = wk.server.store().stats().cmd_get;
    auto hit = co_await wk.reader->get("alpha");
    EXPECT_TRUE(hit.ok());
    if (hit.ok()) {
      EXPECT_EQ(std::string(reinterpret_cast<const char*>(hit->data.data()),
                            hit->data.size()),
                "value-one");
      EXPECT_EQ(hit->flags, 7u);
    }
    // The whole point: the server's GET path never ran.
    EXPECT_EQ(wk.server.store().stats().cmd_get, gets_before);

    // Miss: not published, so the fallback RPC answers authoritatively.
    auto miss = co_await wk.reader->get("never-stored");
    EXPECT_EQ(miss.error(), Errc::not_found);

    // Delete retracts: the one-sided path must not serve the dead value.
    EXPECT_TRUE((co_await wk.writer->del("alpha")).ok());
    auto gone = co_await wk.reader->get("alpha");
    EXPECT_EQ(gone.error(), Errc::not_found);
  }(w));

  EXPECT_GT(metric("mc.oneside.reads"), reads0);
  EXPECT_GT(metric("mc.oneside.fallbacks"), falls0);
  EXPECT_GE(w.publisher->published(), 1u);
  EXPECT_GE(w.publisher->retracted(), 1u);
}

TEST(OneSided, ServerWithoutPublisherShowsEveryGetAsAFallback) {
  // No Publisher answers the bootstrap, so the reader's connection never
  // gets an index. Every GET still takes the one-sided rung and falls back
  // to RPC: the degraded mode shows as one fallback per GET instead of
  // hiding behind correct answers.
  OneSidedWorld w({}, {}, /*publish=*/false);
  constexpr std::uint64_t kGets = 12;
  const std::uint64_t reads0 = metric("mc.oneside.reads");
  const std::uint64_t falls0 = metric("mc.oneside.fallbacks");

  // Run to quiescence, not under drive()'s horizon: the unanswered
  // bootstrap idles the whole world until its op timeout.
  bool done = false;
  w.sched.spawn([](OneSidedWorld& wk, bool& fin) -> Task<> {
    EXPECT_TRUE((co_await wk.writer->connect_all()).ok());
    EXPECT_TRUE((co_await wk.reader->connect_all()).ok());
    EXPECT_TRUE((co_await wk.writer->set("alpha", bytes_view("value-one"))).ok());
    for (std::uint64_t i = 0; i < kGets; ++i) {
      auto hit = co_await wk.reader->get("alpha");
      EXPECT_TRUE(hit.ok());
    }
    fin = true;
  }(w, done));
  w.sched.run();
  ASSERT_TRUE(done);

  EXPECT_EQ(metric("mc.oneside.reads") - reads0, kGets);
  EXPECT_EQ(metric("mc.oneside.fallbacks") - falls0, kGets);
}

TEST(OneSided, GetIntoLandsInCallerBuffer) {
  OneSidedWorld w;
  w.drive([](OneSidedWorld& wk) -> Task<> {
    EXPECT_TRUE((co_await wk.writer->connect_all()).ok());
    EXPECT_TRUE((co_await wk.reader->connect_all()).ok());
    const std::string value(600, 'x');
    EXPECT_TRUE((co_await wk.writer->set("blob", bytes_view(value))).ok());

    std::vector<std::byte> dest(4096);
    auto r = co_await wk.reader->get_into("blob", dest);
    EXPECT_TRUE(r.ok());
    if (r.ok()) {
      EXPECT_EQ(r->value_len, value.size());
      EXPECT_EQ(std::memcmp(dest.data(), value.data(), value.size()), 0);
    }
  }(w));
}

TEST(OneSided, OversizeValuesSkipPublishAndFlushRetracts) {
  onesided::PublisherConfig cfg;
  cfg.slot_size = 256;  // values near/over 256 B can't be published
  OneSidedWorld w(cfg);

  w.drive([](OneSidedWorld& wk) -> Task<> {
    EXPECT_TRUE((co_await wk.writer->connect_all()).ok());
    EXPECT_TRUE((co_await wk.reader->connect_all()).ok());

    const std::string big(1000, 'b');
    EXPECT_TRUE((co_await wk.writer->set("big", bytes_view(big))).ok());
    EXPECT_GE(wk.publisher->skipped_oversize(), 1u);

    // Served correctly anyway — by the RPC fallback.
    auto r = co_await wk.reader->get("big");
    EXPECT_TRUE(r.ok());
    if (r.ok()) {
      EXPECT_EQ(r->data.size(), big.size());
    }

    // flush_all retracts every published entry.
    EXPECT_TRUE((co_await wk.writer->set("small", bytes_view("tiny"))).ok());
    EXPECT_TRUE((co_await wk.reader->get("small")).ok());
    EXPECT_TRUE((co_await wk.writer->flush_all()).ok());
    auto flushed = co_await wk.reader->get("small");
    EXPECT_EQ(flushed.error(), Errc::not_found);
  }(w));
}

TEST(OneSided, BucketDisplacementFallsBackInsteadOfMisreading) {
  // A 1-bucket, 1-way index: every second key displaces the first. The
  // displaced key must still be served (RPC), never misread.
  onesided::PublisherConfig cfg;
  cfg.bucket_count = 1;
  cfg.ways = 1;
  OneSidedWorld w(cfg);

  w.drive([](OneSidedWorld& wk) -> Task<> {
    EXPECT_TRUE((co_await wk.writer->connect_all()).ok());
    EXPECT_TRUE((co_await wk.reader->connect_all()).ok());
    EXPECT_TRUE((co_await wk.writer->set("first", bytes_view("v-first"))).ok());
    EXPECT_TRUE((co_await wk.writer->set("second", bytes_view("v-second"))).ok());

    auto a = co_await wk.reader->get("first");
    EXPECT_TRUE(a.ok());
    if (a.ok()) {
      EXPECT_EQ(std::string(reinterpret_cast<const char*>(a->data.data()), a->data.size()),
                "v-first");
    }
    auto b = co_await wk.reader->get("second");
    EXPECT_TRUE(b.ok());
    if (b.ok()) {
      EXPECT_EQ(std::string(reinterpret_cast<const char*>(b->data.data()), b->data.size()),
                "v-second");
    }
  }(w));
}

// ------------------------------------------------------------- chaos ----

/// Generation-stamped value: "<gen>:" + a fill byte derived from (gen,
/// key). Any stitch of two generations fails the consistency check.
std::string gen_value(int gen, int key, std::size_t len) {
  std::string v = std::to_string(gen) + ":";
  v.append(len, static_cast<char>('a' + (gen * 7 + key * 3) % 26));
  return v;
}

bool value_consistent(const std::string& v, int key, std::size_t len) {
  const auto colon = v.find(':');
  if (colon == std::string::npos) return false;
  int gen = -1;
  auto [ptr, ec] = std::from_chars(v.data(), v.data() + colon, gen);
  if (ec != std::errc{} || ptr != v.data() + colon) return false;
  return v == gen_value(gen, key, len);
}

TEST(OneSided, NeverServesTornValuesUnderWritersAndLinkLoss) {
  mc::ClientBehavior reader_behavior;
  reader_behavior.op_timeout = 300_us;
  reader_behavior.max_retries = 2;
  reader_behavior.eject_after_failures = 0;  // pool of one: keep retrying it
  OneSidedWorld w(onesided::PublisherConfig{}, reader_behavior);

  constexpr int kKeys = 8;
  constexpr int kGens = 40;
  constexpr std::size_t kLen = 512;

  // A scripted lossy window on the reader<->server link while the writer
  // keeps republishing every key: reads race publishes, and some RDMA
  // reads vanish mid-protocol.
  const sim::Time t0 = w.sched.now();
  w.fabric.faults().schedule({
      {t0 + 200_us, {.kind = sim::Fault::Kind::loss,
                     .a = 1 /* reader */, .b = 0 /* server */,
                     .drop_per_million = 30'000}},
      {t0 + 2_ms, {.kind = sim::Fault::Kind::loss, .a = 1, .b = 0,
                   .drop_per_million = 0}},
  });

  int hits = 0, misses = 0, transport_errors = 0, torn = 0;
  bool writer_done = false;

  w.drive([](OneSidedWorld& wk2, int& hits2, int& misses2, int& transport_errors2, int& torn2,
             bool& writer_done22) -> Task<> {
    EXPECT_TRUE((co_await wk2.writer->connect_all()).ok());
    EXPECT_TRUE((co_await wk2.reader->connect_all()).ok());
    for (int k = 0; k < kKeys; ++k) {
      EXPECT_TRUE(
          (co_await wk2.writer->set("key" + std::to_string(k), bytes_view(gen_value(0, k, kLen))))
              .ok());
    }

    // Writer: republish every key, generation after generation.
    wk2.sched.spawn([](OneSidedWorld& wk, bool& writer_done2) -> Task<> {
      for (int gen = 1; gen <= kGens; ++gen) {
        for (int k = 0; k < kKeys; ++k) {
          (void)co_await wk.writer->set("key" + std::to_string(k),
                                       bytes_view(gen_value(gen, k, kLen)));
        }
      }
      writer_done2 = true;
    }(wk2, writer_done22));

    // Reader: hammer GETs across the keys while the writer churns and the
    // link drops packets. Every result must verify or fall back — tally
    // anything inconsistent as torn2.
    Rng rng(42);
    for (int i = 0; i < 600; ++i) {
      const int k = static_cast<int>(rng.below(kKeys));
      auto r = co_await wk2.reader->get("key" + std::to_string(k));
      if (r.ok()) {
        const std::string v(reinterpret_cast<const char*>(r->data.data()), r->data.size());
        if (value_consistent(v, k, kLen)) {
          ++hits2;
        } else {
          ++torn2;
          ADD_FAILURE() << "torn value for key" << k << ": " << v.substr(0, 32);
        }
      } else if (r.error() == Errc::not_found) {
        ++misses2;
      } else {
        ++transport_errors2;  // lossy window: bounded failures are fine
      }
    }
  }(w, hits, misses, transport_errors, torn, writer_done));

  EXPECT_EQ(torn, 0);
  EXPECT_GT(hits, 0);
  EXPECT_GT(metric("mc.oneside.reads"), 0u);
  // The writer churned through every generation while we read.
  EXPECT_TRUE(writer_done);
}

// ------------------------------------------------- bootstrap stragglers ----

TEST(OneSided, LateBootstrapReplyIsDroppedAndRebootstrapIsSafe) {
  OneSidedWorld w;
  onesided::RemoteGetter getter(w.reader_ucr, 1_s);

  w.drive([](OneSidedWorld& wk, onesided::RemoteGetter& g) -> Task<> {
    EXPECT_TRUE((co_await wk.writer->connect_all()).ok());
    EXPECT_TRUE((co_await wk.writer->set("late", bytes_view("straggler"), 3)).ok());
    auto conn = co_await wk.reader_ucr.connect(wk.server_ucr.addr(), 11211);
    EXPECT_TRUE(conn.ok());
    if (!conn.ok()) co_return;
    ucr::Endpoint& ep = **conn;

    // Each reply needs 100 us to come back; each call gives up after 20.
    wk.fabric.faults().set_link_delay(1, 0, 50_us);
    EXPECT_EQ((co_await g.bootstrap(ep, 20_us)).error(), Errc::timed_out);
    EXPECT_EQ((co_await g.bootstrap(ep, 20_us)).error(), Errc::timed_out);
    co_await wk.sched.delay(1_ms);  // both stragglers land here
    EXPECT_FALSE(g.ready());

    wk.fabric.faults().set_link_delay(1, 0, 0);
    EXPECT_TRUE((co_await g.bootstrap(ep)).ok());
    EXPECT_TRUE(g.ready());
    auto hit = co_await g.try_get(ep, "late");
    EXPECT_TRUE(hit.ok());
    if (!hit.ok()) co_return;
    EXPECT_EQ(std::string(reinterpret_cast<const char*>(hit->value.data()),
                          hit->value.size()),
              "straggler");
    EXPECT_EQ(hit->flags, 3u);
  }(w, getter));
}

}  // namespace
}  // namespace rmc
