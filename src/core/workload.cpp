#include "core/workload.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/log.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"

namespace rmc::core {

std::string_view pattern_name(OpPattern pattern) {
  switch (pattern) {
    case OpPattern::pure_set: return "100% Set";
    case OpPattern::pure_get: return "100% Get";
    case OpPattern::non_interleaved: return "Set 10% / Get 90% (non-interleaved)";
    case OpPattern::interleaved: return "Set 50% / Get 50% (interleaved)";
  }
  return "?";
}

std::string_view key_dist_name(KeyDist dist) {
  switch (dist) {
    case KeyDist::uniform: return "uniform";
    case KeyDist::zipfian: return "zipfian";
    case KeyDist::hot_shift: return "hot-shift";
  }
  return "?";
}

namespace {

/// Riemann zeta partial sum — the normalization constant of the Zipfian
/// CDF. O(n), computed once per generator.
double zeta(std::uint64_t n, double s) {
  double sum = 0.0;
  for (std::uint64_t i = 1; i <= n; ++i) sum += 1.0 / std::pow(static_cast<double>(i), s);
  return sum;
}

}  // namespace

ZipfGenerator::ZipfGenerator(std::uint64_t n, double s)
    : n_(std::max<std::uint64_t>(1, n)), s_(s) {
  // s == 1 makes the inverse-CDF exponent 1/(1-s) blow up; nudge off the
  // pole (the distribution is indistinguishable at this resolution).
  if (std::abs(1.0 - s_) < 1e-6) s_ = 1.0 - 1e-6;
  zetan_ = zeta(n_, s_);
  alpha_ = 1.0 / (1.0 - s_);
  const double zeta2 = zeta(2, s_);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - s_)) /
         (1.0 - zeta2 / zetan_);
}

std::uint64_t ZipfGenerator::operator()(Rng& rng) const {
  if (n_ == 1) return 0;
  const double u = rng.uniform();
  const double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < 1.0 + std::pow(0.5, s_)) return 1;
  const auto k = static_cast<std::uint64_t>(
      static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return std::min(k, n_ - 1);
}

KeySampler::KeySampler(const FleetWorkloadConfig& config)
    : dist_(config.dist),
      key_space_(std::max<std::uint64_t>(1, config.key_space)),
      hot_fraction_(config.hot_fraction),
      hot_set_size_(std::clamp<std::uint64_t>(config.hot_set_size, 1, key_space_)),
      hot_shift_interval_(config.hot_shift_interval),
      seed_(config.seed),
      zipf_(key_space_, config.zipf_s) {}

std::uint64_t KeySampler::hot_base(sim::Time now) const {
  const std::uint64_t epoch =
      hot_shift_interval_ ? static_cast<std::uint64_t>(now / hot_shift_interval_) : 0;
  // splitmix64-style mix of (epoch, seed): a new pseudo-random base per
  // epoch, deterministic per seed, uncorrelated with the previous one.
  std::uint64_t z = epoch * 0x9e3779b97f4a7c15ull + seed_ * 0xbf58476d1ce4e5b9ull +
                    0x94d049bb133111ebull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  return z % key_space_;
}

std::uint64_t KeySampler::sample(Rng& rng, sim::Time now) const {
  switch (dist_) {
    case KeyDist::uniform:
      return rng.below(key_space_);
    case KeyDist::zipfian:
      return zipf_(rng);
    case KeyDist::hot_shift:
      if (rng.uniform() < hot_fraction_) {
        return (hot_base(now) + rng.below(hot_set_size_)) % key_space_;
      }
      return rng.below(key_space_);
  }
  return 0;
}

std::string fleet_key(std::uint64_t index) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string key("kxxxxxxxx");  // fixed width: no per-op length variance
  for (int i = 0; i < 8; ++i) key[8 - i] = kHex[(index >> (4 * i)) & 0xf];
  return key;
}

std::byte fleet_value_byte(std::uint64_t index) {
  return static_cast<std::byte>(0x21 + (index * 131) % 0x5e);  // printable
}

namespace {

const std::uint16_t kProfRun =
    obs::profiler().register_scope("prof.mc.workload.run", obs::ScopeKind::engine);

/// A client gives up after this many failed ops: one unreachable shard
/// bounds its run without stopping its traffic to the healthy ones.
constexpr std::uint64_t kAbortAfterErrors = 16;

/// The private key set of each client in a figure workload.
constexpr std::uint64_t kKeysPerClient = 8;

enum class OpKind : std::uint8_t { get, set, mget, del };

/// One client's part of a run: its SET payload, the keys of the op in
/// hand, and what the failure policy needs to know about it.
struct ClientState {
  std::vector<std::byte> value;
  std::vector<std::uint64_t> keys;  ///< key ids of the op in hand
  std::vector<std::string> names;   ///< their names on the wire
  std::vector<std::size_t> shards;  ///< the shard each one routes to
  std::uint32_t ttl = 0;            ///< of the SET in hand
  std::uint64_t ops = 0;            ///< completed
  std::uint64_t errors = 0;
  sim::Time finished_at = 0;
  bool failed = false;

  /// Make `key` the one key of the op in hand.
  void stage(std::uint64_t key, std::string name) {
    keys.assign(1, key);
    names.assign(1, std::move(name));
  }
};

/// An op-stream generator: each client's populate set, its ops in a fixed
/// RNG draw order, and what every value read back must hold.
class OpStream {
 public:
  OpStream(std::uint64_t ops_per_client, std::uint64_t seed)
      : ops_per_client_(ops_per_client), seed_(seed) {}

  std::uint64_t ops_per_client() const { return ops_per_client_; }
  std::uint64_t seed() const { return seed_; }
  /// Stage client c's k-th populate SET in s (key and value); false once
  /// its populate set is done.
  virtual bool populate(std::size_t c, std::uint64_t k, ClientState& s) const = 0;
  /// Draw client c's op #i into s: its keys and, for a SET, value and TTL.
  virtual OpKind draw(Rng& rng, std::size_t c, std::uint64_t i, sim::Time now,
                      ClientState& s) const = 0;
  /// Does `got`, read back for key #j of the op in hand, hold what was written?
  virtual bool intact(const ClientState& s, std::size_t j,
                      std::span<const std::byte> got) const = 0;

 protected:
  ~OpStream() = default;

 private:
  std::uint64_t ops_per_client_;
  std::uint64_t seed_;
};

/// The §VI instruction mixes: uniform picks over a private key set, one
/// RNG draw per op, and each client's own value buffer for every key.
class PatternStream final : public OpStream {
 public:
  explicit PatternStream(const WorkloadConfig& config)
      : OpStream(config.ops_per_client, config.seed), pattern_(config.pattern) {}

  bool populate(std::size_t c, std::uint64_t k, ClientState& s) const override {
    if (k == kKeysPerClient) return false;
    s.stage(k, name(c, k));
    return true;
  }
  OpKind draw(Rng& rng, std::size_t c, std::uint64_t i, sim::Time,
              ClientState& s) const override {
    const std::uint64_t k = rng.below(kKeysPerClient);
    s.stage(k, name(c, k));
    return is_set_op(i) ? OpKind::set : OpKind::get;
  }
  bool intact(const ClientState& s, std::size_t,
              std::span<const std::byte> got) const override {
    return std::ranges::equal(got, s.value);
  }

 private:
  static std::string name(std::size_t c, std::uint64_t k) {
    return "c" + std::to_string(c) + ":k" + std::to_string(k);
  }
  /// Is operation #i of the stream a Set?
  bool is_set_op(std::uint64_t i) const {
    switch (pattern_) {
      case OpPattern::pure_set: return true;
      case OpPattern::pure_get: return false;
      case OpPattern::non_interleaved: return i % 100 < 10;  // 10 Sets then 90 Gets
      case OpPattern::interleaved: return i % 2 == 0;        // 1 Set, 1 Get
    }
    return false;
  }

  OpPattern pattern_;
};

/// The fleet mixes: each op draws its kind, then its key or keys from the
/// shared key space, then (a SET) its TTL chance. Every byte of a key's
/// value is fleet_value_byte(key).
class MixStream final : public OpStream {
 public:
  MixStream(const FleetWorkloadConfig& config, std::size_t clients)
      : OpStream(config.ops_per_client, config.seed),
        config_(config),
        sampler_(config),
        clients_(clients),
        weight_total_(std::max<std::uint64_t>(
            1, std::uint64_t{config.get_weight} + config.set_weight + config.mget_weight +
                   config.del_weight)) {}

  /// Client c writes its stripe of the key space: c, c + clients, ...
  bool populate(std::size_t c, std::uint64_t k, ClientState& s) const override {
    const std::uint64_t key = c + k * clients_;
    if (!config_.populate || key >= config_.key_space) return false;
    s.stage(key, fleet_key(key));
    std::ranges::fill(s.value, fleet_value_byte(key));
    return true;
  }
  OpKind draw(Rng& rng, std::size_t, std::uint64_t, sim::Time now,
              ClientState& s) const override {
    const std::uint64_t pick = rng.below(weight_total_);
    OpKind kind = OpKind::del;
    std::uint32_t width = 1;
    if (pick < config_.get_weight) {
      kind = OpKind::get;
    } else if (pick < config_.get_weight + config_.set_weight) {
      kind = OpKind::set;
    } else if (pick < config_.get_weight + config_.set_weight + config_.mget_weight) {
      kind = OpKind::mget;  // one client call, keys spread across shards
      width = std::max<std::uint32_t>(1, config_.mget_width);
    }
    s.keys.clear();
    s.names.clear();
    for (std::uint32_t k = 0; k < width; ++k) {
      s.keys.push_back(sampler_.sample(rng, now));
      s.names.push_back(fleet_key(s.keys.back()));
    }
    if (kind == OpKind::set) {
      // Optionally with a short TTL: the churn knob.
      const bool ttl = config_.ttl_set_fraction > 0.0 && rng.chance(config_.ttl_set_fraction);
      s.ttl = ttl ? config_.ttl_seconds : 0;
      std::ranges::fill(s.value, fleet_value_byte(s.keys[0]));
    }
    return kind;
  }
  bool intact(const ClientState& s, std::size_t j,
              std::span<const std::byte> got) const override {
    const std::byte expect = fleet_value_byte(s.keys[j]);
    return std::ranges::all_of(got, [expect](std::byte b) { return b == expect; });
  }

 private:
  const FleetWorkloadConfig& config_;
  KeySampler sampler_;
  std::size_t clients_;
  std::uint64_t weight_total_;
};

/// What every task of one run shares: the barriers, the client states and
/// the result, which every client tallies into as its ops complete.
struct Run {
  Run(sim::Scheduler& sched, std::vector<ClientState> states, std::size_t shards)
      : connected(sched), ready(sched), start(sched), clients(std::move(states)) {
    result.shards.resize(shards);
  }

  /// Count a failed op of client s; true once s gives up.
  bool give_up(ClientState& s, sim::Time now) {
    ++result.errors;
    if (++s.errors < kAbortAfterErrors) return false;
    s.failed = true;
    s.finished_at = now;
    return true;
  }

  sim::Event connected;
  sim::Counter ready;
  sim::Event start;
  sim::Time start_time = 0;
  /// Raised by the starter before it wakes the clients, so a failed
  /// connect_all drains every task instead of leaving them suspended.
  bool connect_failed = false;
  std::vector<ClientState> clients;
  WorkloadResult result;
  /// Per-op-kind registry timers: the registry's percentile synthesis
  /// turns these into the per-op p99 the fleet report quotes.
  obs::Timer* get_timer = &obs::registry().timer("mc.fleet.get");
  obs::Timer* set_timer = &obs::registry().timer("mc.fleet.set");
  obs::Timer* mget_timer = &obs::registry().timer("mc.fleet.mget");
};

sim::Task<> client_task(TestBed& bed, const OpStream& stream, Run& run, std::size_t index) {
  // rmclint:allow(coro-lifetime): every referenced object lives in drive()'s
  // frame, which blocks in sched.run() until all client tasks finish.
  mc::Client& client = bed.client(index);
  sim::Scheduler& sched = bed.scheduler();
  ClientState& s = run.clients[index];
  WorkloadResult& r = run.result;
  co_await run.connected.wait();
  if (run.connect_failed) {
    // connect_all failed: exit cleanly (and keep the start barrier
    // honest) instead of waiting on a start that would never fire.
    s.failed = true;
    s.finished_at = sched.now();
    run.ready.add();
    co_return;
  }

  // Populate this client's keys (untimed warm-up; also the warm path for
  // connection buffers and the server's slab classes).
  for (std::uint64_t k = 0; stream.populate(index, k, s); ++k) {
    const Status st = co_await client.set(s.names[0], s.value);
    if (!st.ok() && run.give_up(s, sched.now())) {
      run.ready.add();
      co_return;
    }
  }

  // Synchronized start: all clients fire together (Fig. 6 semantics).
  run.ready.add();
  co_await run.start.wait();

  Rng rng(stream.seed() * 1000003 + index);
  for (std::uint64_t i = 0; i < stream.ops_per_client(); ++i) {
    const sim::Time begin = sched.now();
    const OpKind kind = stream.draw(rng, index, i, begin, s);
    s.shards.clear();
    for (const std::string& name : s.names) s.shards.push_back(client.server_index(name));

    // Tally key #j of a lookup: a hit (checked against what was written)
    // or, when `got` is null, a miss.
    auto account = [&](std::size_t j, const mc::Value* got) {
      ShardStats& shard = r.shards[s.shards[j]];
      if (got != nullptr) {
        ++r.hits;
        ++shard.hits;
        if (!stream.intact(s, j, got->data)) ++r.value_mismatches;
      } else {
        ++r.misses;
        ++shard.misses;
      }
    };
    bool ok = true;
    switch (kind) {
      case OpKind::get: {
        auto got = co_await client.get(s.names[0]);
        ok = got.ok() || got.error() == Errc::not_found;
        if (ok) account(0, got.ok() ? &*got : nullptr);
        break;
      }
      case OpKind::set:
        ok = (co_await client.set(s.names[0], s.value, 0, s.ttl)).ok();
        break;
      case OpKind::mget: {
        auto got = co_await client.mget(s.names);
        ok = got.ok();
        for (std::size_t j = 0; ok && j < got->size(); ++j) {
          account(j, (*got)[j] ? &*(*got)[j] : nullptr);
        }
        break;
      }
      case OpKind::del: {
        const Status st = co_await client.del(s.names[0]);
        ok = st.ok() || st.error() == Errc::not_found;
        break;
      }
    }
    if (!ok) {
      if (run.give_up(s, sched.now())) co_return;
      continue;
    }

    const sim::Time lat = sched.now() - begin;
    ++s.ops;
    ++r.total_ops;
    for (const std::size_t shard : s.shards) ++r.shards[shard].ops;
    r.all_latency.record(lat);
    switch (kind) {
      case OpKind::get:
        ++r.gets;
        r.get_latency.record(lat);
        run.get_timer->record(lat);
        break;
      case OpKind::set:
        ++r.sets;
        r.set_latency.record(lat);
        run.set_timer->record(lat);
        break;
      case OpKind::mget:
        ++r.mgets;
        r.mget_latency.record(lat);
        run.mget_timer->record(lat);
        break;
      case OpKind::del:
        ++r.dels;
        break;
    }
  }
  s.finished_at = sched.now();
}

/// The closed loop: connect, let every client populate, start them
/// together, run the streams to completion, aggregate and publish.
WorkloadResult drive(TestBed& bed, const OpStream& stream, std::vector<ClientState> states) {
  sim::Scheduler& sched = bed.scheduler();
  const std::size_t n = states.size();
  const std::size_t shards = bed.shard_count();
  Run run(sched, std::move(states), shards);
  std::vector<std::uint64_t> evictions_before(shards);
  for (std::size_t sh = 0; sh < shards; ++sh) {
    evictions_before[sh] = bed.server(sh).store().stats().evictions;
  }

  sched.spawn([](TestBed& tb, Run& r, std::size_t clients) -> sim::Task<> {
    // rmclint:allow(coro-lifetime): both live in drive()'s frame, which
    // blocks in sched.run() until this starter and every client finish.
    auto st = co_await tb.connect_all();
    if (!st.ok()) {
      RMC_LOG_ERROR("workload: connect failed: %s",
                    std::string(to_string(st.error())).c_str());
      // Wake the clients anyway: they check connect_failed and drain, so
      // the run terminates instead of hanging inside sched.run().
      r.connect_failed = true;
    }
    r.connected.set();
    co_await r.ready.wait_geq(clients);
    r.start_time = tb.scheduler().now();
    r.start.set();
  }(bed, run, n));
  for (std::size_t i = 0; i < n; ++i) sched.spawn(client_task(bed, stream, run, i));
  {
    // Root of the drive loop: every dispatched event nests under it, so
    // the gap between this node's wall time and its children's is the
    // scheduler's own bookkeeping (heap ops, slot recycling).
    obs::ProfScope prof{kProfRun};
    sched.run();
  }

  // Every client's ops are in the result — including those of clients
  // that failed mid-run. Their finish times extend the window too, so a
  // lossy run reports the loss explicitly instead of silently inflating
  // per-client throughput.
  WorkloadResult& result = run.result;
  result.connect_failed = run.connect_failed;
  sim::Time last_finish = run.start_time;
  for (const ClientState& s : run.clients) {
    if (s.failed) {
      ++result.failed_clients;
      result.failed_client_ops += s.ops;
    }
    last_finish = std::max(last_finish, s.finished_at);
  }
  result.elapsed = last_finish - run.start_time;
  if (result.failed_clients != 0) {
    RMC_LOG_WARN("workload: %llu/%zu clients failed (%llu partial ops kept)",
                 static_cast<unsigned long long>(result.failed_clients), n,
                 static_cast<unsigned long long>(result.failed_client_ops));
  }

  // Publish the run into the registry: aggregates, then the per-shard
  // dynamic family under the "mc.fleet.shard." prefix.
  obs::Registry& reg = obs::registry();
  reg.counter("mc.fleet.ops").inc(result.total_ops);
  reg.counter("mc.fleet.hits").inc(result.hits);
  reg.counter("mc.fleet.misses").inc(result.misses);
  reg.counter("mc.fleet.errors").inc(result.errors);
  reg.counter("mc.fleet.failed_clients").inc(result.failed_clients);
  reg.counter("mc.fleet.value_mismatches").inc(result.value_mismatches);
  reg.gauge("mc.fleet.hit_ratio_ppm")
      .set(static_cast<std::int64_t>(result.hit_ratio() * 1e6));
  for (std::size_t sh = 0; sh < shards; ++sh) {
    ShardStats& stats = result.shards[sh];
    stats.evictions = bed.server(sh).store().stats().evictions - evictions_before[sh];
    const std::string prefix = "mc.fleet.shard." + std::to_string(sh);
    reg.counter(prefix + ".ops").inc(stats.ops);
    reg.counter(prefix + ".hits").inc(stats.hits);
    reg.counter(prefix + ".misses").inc(stats.misses);
    reg.counter(prefix + ".evictions").inc(stats.evictions);
  }
  return std::move(result);
}

}  // namespace

WorkloadResult run_workload(TestBed& bed, const WorkloadConfig& config) {
  // One value buffer per client, registered for zero-copy rendezvous.
  std::vector<ClientState> states(bed.client_count());
  Rng rng(config.seed);
  for (std::size_t i = 0; i < states.size(); ++i) {
    std::vector<std::byte>& value = states[i].value;
    value.resize(std::max<std::uint32_t>(1, config.value_size));
    for (auto& b : value) b = static_cast<std::byte>(rng() & 0xff);
    bed.register_client_memory(i, value);
  }
  return drive(bed, PatternStream(config), std::move(states));
}

WorkloadResult run_fleet(TestBed& bed, const FleetWorkloadConfig& config) {
  const MixStream stream(config, bed.client_count());
  std::vector<ClientState> states(bed.client_count());
  for (ClientState& s : states) s.value.resize(std::max<std::uint32_t>(1, config.value_size));
  return drive(bed, stream, std::move(states));
}

}  // namespace rmc::core
