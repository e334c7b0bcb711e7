// rmcbench workload process: runs one workload for about --seconds of host
// time and prints one JSON object of raw results on stdout. run.py turns
// those into the named metrics and checks them.
//
//   rmcbench --workload rpc-small --seed 1 --seconds 10 --trace 0
//
// A process builds the bed four times for set-up timing only (the first
// build is cold), then runs --seconds / 5 measured rounds, each on a
// freshly built bed (at least one round; with --trace 1 at least two, and
// the odd ones traced). Every round replays the same pregenerated op
// streams, so its simulated results and ledger counts must match round 0
// exactly; run.py checks that.
//
// Inside a round, every client populates its stripe of the key space,
// waits at a barrier, then runs its stream closed-loop: it sends the next
// op only after the reply to the previous one. The first 5 % of each
// client's ops are warm-up and give no latency sample. Rates and the
// ledger use one global window, which opens at the completion that brings
// the round to 5 % of its ops and closes at the last completion. The window
// is cut into equal-op host windows; an untraced round times the
// calibration slice (ref_kernel.cpp) at every cut, outside the windows, and
// before every build.
#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/fleetbed.hpp"
#include "core/testbed.hpp"
#include "memcached/store.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "rmcbench.hpp"
#include "simnet/event.hpp"

namespace rmcbench {

namespace {

using rmc::Errc;
using rmc::sim::Time;
namespace core = rmc::core;
namespace mc = rmc::mc;
namespace obs = rmc::obs;
namespace sim = rmc::sim;

constexpr unsigned kWindows = 24;
constexpr std::size_t kMaxSpans = 16384;
constexpr unsigned kSetupOnlyBuilds = 4;
constexpr double kNominalRoundSeconds = 5.0;  // what the op counts are sized for
constexpr std::size_t kReplayOps = 200'000;

std::uint64_t host_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

// ---------------------------------------------------------------- ledger
// Registry counters, read as deltas over the measured window.
constexpr const char* kCounters[] = {
    "sim.sched.events",      "sim.counter.waits",          "sim.fabric.packets",
    "sim.fabric.bytes",      "verbs.post.send",            "verbs.post.rdma_read",
    "verbs.post.rdma_write", "verbs.post.ud_send",         "verbs.doorbell.batched_wrs",
    "verbs.cq.polls",        "verbs.cq.completions",       "verbs.rdma.read_bytes",
    "verbs.rc.retransmits",  "ucr.eager.sends",            "ucr.rendezvous.sends",
    "ucr.msgs.received",     "ucr.backlog.stalls",         "sock.segments.sent",
    "sock.bytes.sent",       "mc.requests.ucr",            "mc.requests.text",
    "mc.requests.binary",    "mc.store.evictions",         "mc.alloc.arena_overflows",
    "mc.oneside.reads",      "mc.oneside.fallbacks",       "mc.oneside.torn_retries",
    "mc.oneside.publishes",  "mc.rfp.ops",                 "mc.rfp.fallbacks",
    "mc.rfp.poll.sweeps",    "mc.rfp.poll.frames",         "mc.rfp.poll.parks",
    "mc.rfp.wakes",
};
// Timers and level gauges restarted when the window opens (their updates
// are sim-time samples and set() snapshots, so restarting is exact).
constexpr const char* kTimers[] = {
    "mc.server.stage.parse",   "mc.server.stage.queue",   "mc.server.stage.execute",
    "mc.server.stage.format",  "mc.latency.get.build",    "mc.latency.get.wait",
    "mc.latency.get.complete", "mc.latency.set.build",    "mc.latency.set.wait",
    "mc.latency.set.complete", "mc.latency.mget.build",   "mc.latency.mget.wait",
    "mc.latency.mget.complete", "ucr.cq.drain_batch",
};
constexpr const char* kWindowGauges[] = {"sim.sched.queue_depth", "mc.worker.queue_depth"};
// Tracked with add()/sub(), so only its process-lifetime high-water mark
// is meaningful.
constexpr const char* kProcessGauge = "sim.pool.cached_bytes";

struct Snapshot {
  std::vector<std::uint64_t> counters;
  AllocCount alloc;
};

Snapshot snapshot() {
  Snapshot s;
  s.counters.reserve(std::size(kCounters));
  for (const char* name : kCounters) s.counters.push_back(obs::registry().counter(name).value());
  s.alloc = alloc_count();
  return s;
}

void restart_window_instruments() {
  for (const char* name : kTimers) obs::registry().timer(name).reset();
  for (const char* name : kWindowGauges) obs::registry().gauge(name).reset();
}

const std::uint16_t kProfWindow = obs::profiler().register_scope("bench.window", obs::ScopeKind::engine);

// ------------------------------------------------------------------ json
class Json {
 public:
  Json& key(std::string_view k) {
    comma();
    out_ += '"';
    out_ += k;
    out_ += "\":";
    fresh_ = true;
    return *this;
  }
  Json& num(double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    return raw(buf);
  }
  Json& num(std::uint64_t v) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
    return raw(buf);
  }
  Json& str(std::string_view v) {
    comma();
    out_ += '"';
    out_ += v;
    out_ += '"';
    return *this;
  }
  Json& boolean(bool v) { return raw(v ? "true" : "false"); }
  Json& raw(std::string_view v) {
    comma();
    out_ += v;
    return *this;
  }
  Json& open(char c) {
    comma();
    out_ += c;
    fresh_ = true;
    return *this;
  }
  Json& close(char c) {
    out_ += c;
    fresh_ = false;
    return *this;
  }
  const std::string& text() const { return out_; }

 private:
  void comma() {
    if (!fresh_ && !out_.empty()) out_ += ',';
    fresh_ = false;
  }
  std::string out_;
  bool fresh_ = true;
};

// ------------------------------------------------------------------- bed
struct Bed {
  std::unique_ptr<core::TestBed> test;
  std::unique_ptr<core::FleetBed> fleet;

  sim::Scheduler& sched() { return test ? test->scheduler() : fleet->scheduler(); }
  mc::Client& client(std::size_t i) { return test ? test->client(i) : fleet->client(i); }
  sim::Task<rmc::Status> connect_all() { return test ? test->connect_all() : fleet->connect_all(); }
};

mc::ServerConfig server_config(const WorkloadSpec& spec) {
  mc::ServerConfig server;
  if (spec.slab_limit != 0) server.store.slabs.memory_limit = spec.slab_limit;
  return server;
}

Bed make_bed(const WorkloadSpec& spec) {
  Bed bed;
  if (spec.fleet) {
    core::FleetBedConfig cfg;
    cfg.shards = spec.shards;
    cfg.clients = spec.clients;
    cfg.generators = spec.generators;
    cfg.server = server_config(spec);
    cfg.client.mode = spec.mode;
    bed.fleet = std::make_unique<core::FleetBed>(cfg);
  } else {
    core::TestBedConfig cfg;
    cfg.cluster = core::ClusterKind::cluster_b;
    cfg.transport = spec.transport;
    cfg.num_clients = spec.clients;
    cfg.server = server_config(spec);
    cfg.client.mode = spec.mode;
    bed.test = std::make_unique<core::TestBed>(cfg);
  }
  return bed;
}

// ----------------------------------------------------------------- spans
struct Span {
  std::uint64_t op;
  std::uint32_t client;
  OpKind kind;
  Time sim_begin, sim_end;
  std::uint64_t host_begin, host_end;
};

std::string_view kind_name(OpKind k) {
  switch (k) {
    case OpKind::get: return "get";
    case OpKind::set: return "set";
    case OpKind::mget: return "mget";
    case OpKind::del: return "del";
  }
  return "?";
}

// ----------------------------------------------------------------- round
struct RoundResult {
  bool traced = false;
  double build_s = 0, connect_s = 0, populate_s = 0;
  std::uint64_t attempted = 0, errors = 0, timeouts = 0, mismatches = 0;
  std::uint64_t window_ops = 0;
  Time window_sim_ns = 0;
  double window_host_s = 0;
  std::vector<double> window_rates;
  std::vector<double> cal_mops;  ///< calibration slice at every window boundary (untraced)
  double setup_cal_mops = 0;     ///< calibration slice just before the build
  double get_p50_us = 0, get_p99_us = 0, set_p50_us = 0, set_p99_us = 0;
  std::uint64_t get_samples = 0, set_samples = 0;
  std::uint64_t lookups = 0, hits = 0;
  std::uint64_t w_get = 0, w_set = 0, w_mget = 0, w_mget_keys = 0, w_del = 0;
  Snapshot open, close;
  std::vector<std::pair<std::uint64_t, double>> timers;  // (count, mean ns)
  std::vector<std::int64_t> gauges;
  std::int64_t pool_hwm = 0;
};

struct ClientBuffers {
  std::vector<std::byte> set_buf;
  std::vector<std::byte> get_buf;  ///< one value per mget slot
  std::vector<mc::MgetSlot> slots;
  std::vector<std::string_view> views;
  std::byte set_fill{0};
};

bool intact(std::span<const std::byte> data, std::uint32_t len, std::uint32_t want_len,
            std::byte want) {
  if (len != want_len || data.size() < len) return false;
  for (std::uint32_t i = 0; i < len; ++i) {
    if (data[i] != want) return false;
  }
  return true;
}

/// Nearest-rank percentile of sim-time samples (ns), in microseconds.
double percentile_us(std::vector<std::uint32_t>& v, double q) {
  if (v.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  const auto nth = v.begin() + static_cast<std::ptrdiff_t>(std::max<std::size_t>(rank, 1) - 1);
  std::nth_element(v.begin(), nth, v.end());
  return static_cast<double>(*nth) / 1e3;
}

/// Measured sim latencies (ns). One buffer per process, reused by every
/// round, so the benchmark's own allocations stay out of set-up timing and
/// out of the program's heap behaviour.
struct Samples {
  std::vector<std::uint32_t> get, set;
};

class Round {
 public:
  Round(const WorkloadSpec& spec, const std::vector<ClientStream>& streams,
        const std::vector<std::string>& keys, bool traced, bool setup_only, Samples& samples,
        std::vector<Span>* spans)
      : spec_(spec), streams_(streams), keys_(keys), traced_(traced), setup_only_(setup_only),
        samples_(samples), spans_(spans) {}

  RoundResult run() {
    res_.traced = traced_;
    for (const ClientStream& s : streams_) total_ops_ += s.ops.size();
    const std::uint64_t open_at = total_ops_ / 20;
    const std::uint64_t span = total_ops_ - open_at;
    const std::uint64_t windows = std::min<std::uint64_t>(kWindows, span);
    for (std::uint64_t k = 0; k <= windows; ++k) boundaries_.push_back(open_at + k * span / windows);
    stamps_.reserve(boundaries_.size());
    resumes_.reserve(boundaries_.size());
    res_.cal_mops.reserve(boundaries_.size());  // no allocation inside the window
    samples_.get.clear();
    samples_.set.clear();

    res_.setup_cal_mops = cal_kernel_mops();
    const std::uint64_t t_build = host_ns();
    bed_ = make_bed(spec_);
    bufs_.resize(spec_.clients);
    for (std::size_t i = 0; i < bufs_.size(); ++i) {
      ClientBuffers& b = bufs_[i];
      const std::size_t width = spec_.mget_weight ? spec_.mget_width : 1;
      b.set_buf.assign(spec_.value_size, std::byte{0});
      b.get_buf.assign(std::size_t{spec_.value_size} * width, std::byte{0});
      b.slots.resize(width);
      b.views.resize(width);
      if (bed_.test) {
        bed_.test->register_client_memory(i, b.set_buf);
        bed_.test->register_client_memory(i, b.get_buf);
      }
    }
    sim::Scheduler& sched = bed_.sched();
    connected_ = std::make_unique<sim::Event>(sched);
    ready_ = std::make_unique<sim::Counter>(sched);
    start_ = std::make_unique<sim::Event>(sched);
    t_run_ = host_ns();
    res_.build_s = static_cast<double>(t_run_ - t_build) * 1e-9;
    sched.spawn(starter());
    for (std::size_t i = 0; i < spec_.clients; ++i) sched.spawn(client_loop(i));
    sched.run();
    finish();
    return std::move(res_);
  }

 private:
  sim::Task<> starter() {
    auto st = co_await bed_.connect_all();
    const std::uint64_t t_connected = host_ns();
    res_.connect_s = static_cast<double>(t_connected - t_run_) * 1e-9;
    if (!st.ok()) {
      connect_failed_ = true;
      ++res_.errors;
    }
    connected_->set();
    co_await ready_->wait_geq(spec_.clients);
    res_.populate_s = static_cast<double>(host_ns() - t_connected) * 1e-9;
    start_->set();
  }

  sim::Task<> client_loop(std::size_t ci) {
    mc::Client& client = bed_.client(ci);
    ClientBuffers& b = bufs_[ci];
    const ClientStream& stream = streams_[ci];
    sim::Scheduler& sched = bed_.sched();
    co_await connected_->wait();
    if (connect_failed_) {
      ready_->add();
      co_return;
    }
    for (std::uint32_t k = static_cast<std::uint32_t>(ci); k < spec_.keys; k += spec_.clients) {
      fill(b, k);
      auto st = co_await client.set(keys_[k], b.set_buf);
      if (!st.ok()) ++res_.errors;
    }
    ready_->add();
    if (setup_only_) co_return;
    co_await start_->wait();

    const std::size_t warm = stream.ops.size() / 20;
    const std::span<std::byte> get_dest(b.get_buf.data(), spec_.value_size);
    for (std::size_t i = 0; i < stream.ops.size(); ++i) {
      const Op op = stream.ops[i];
      const bool measured = i >= warm;
      const Time sim_begin = sched.now();
      const std::uint64_t host_begin = traced_ ? host_ns() : 0;
      Errc err = Errc::ok;
      switch (op.kind) {
        case OpKind::get: {
          auto got = co_await client.get_into(keys_[op.key], get_dest);
          if (got.ok()) {
            if (!intact(get_dest, got->value_len, spec_.value_size, value_byte(op.key))) {
              ++res_.mismatches;
            }
            if (measured) ++res_.hits;
          } else if (got.error() != Errc::not_found) {
            err = got.error();
          }
          if (measured) ++res_.lookups;
          break;
        }
        case OpKind::set: {
          fill(b, op.key);
          auto st = co_await client.set(keys_[op.key], b.set_buf);
          if (!st.ok()) err = st.error();
          break;
        }
        case OpKind::mget: {
          const std::span<const std::uint32_t> ks(stream.mget_keys.data() + op.key,
                                                  spec_.mget_width);
          for (std::size_t j = 0; j < ks.size(); ++j) {
            b.views[j] = keys_[ks[j]];
            b.slots[j] = mc::MgetSlot{};
            b.slots[j].dest = std::span<std::byte>(b.get_buf).subspan(j * spec_.value_size,
                                                                       spec_.value_size);
          }
          auto st = co_await client.mget_into(b.views, b.slots);
          if (!st.ok()) {
            err = st.error();
            break;
          }
          for (std::size_t j = 0; j < ks.size(); ++j) {
            const mc::MgetSlot& slot = b.slots[j];
            if (slot.hit && !intact(slot.value, slot.value_len, spec_.value_size,
                                    value_byte(ks[j]))) {
              ++res_.mismatches;
            }
            if (measured) {
              ++res_.lookups;
              if (slot.hit) ++res_.hits;
            }
          }
          break;
        }
        case OpKind::del: {
          auto st = co_await client.del(keys_[op.key]);
          if (!st.ok() && st.error() != Errc::not_found) err = st.error();
          break;
        }
      }
      if (err != Errc::ok) {
        ++res_.errors;
        if (err == Errc::timed_out) ++res_.timeouts;
      }
      complete(ci, i, op, measured, sim_begin, host_begin);
    }
  }

  void fill(ClientBuffers& b, std::uint32_t key) {
    const std::byte want = value_byte(key);
    if (b.set_fill == want) return;
    std::fill(b.set_buf.begin(), b.set_buf.end(), want);
    b.set_fill = want;
  }

  void complete(std::size_t ci, std::size_t index, Op op, bool measured, Time sim_begin,
                std::uint64_t host_begin) {
    const Time now = bed_.sched().now();
    ++res_.attempted;
    ++completed_;
    if (measured) {
      const auto lat = static_cast<std::uint32_t>(std::min<Time>(now - sim_begin, UINT32_MAX));
      if (op.kind == OpKind::get) samples_.get.push_back(lat);
      if (op.kind == OpKind::set) samples_.set.push_back(lat);
    }
    if (completed_ > boundaries_.front()) {
      switch (op.kind) {
        case OpKind::get: ++res_.w_get; break;
        case OpKind::set: ++res_.w_set; break;
        case OpKind::mget:
          ++res_.w_mget;
          res_.w_mget_keys += spec_.mget_width;
          break;
        case OpKind::del: ++res_.w_del; break;
      }
    }
    if (traced_ && measured && spans_ != nullptr && spans_->size() < kMaxSpans) {
      spans_->push_back(Span{index, static_cast<std::uint32_t>(ci), op.kind, sim_begin, now,
                             host_begin, host_ns()});
    }
    if (stamps_.size() == boundaries_.size() || completed_ != boundaries_[stamps_.size()]) return;
    stamps_.push_back(host_ns());
    // Untraced rounds time a calibration slice at every boundary, outside
    // the windows, so that run.py can correct each window for the speed the
    // machine had around it.
    if (!traced_) res_.cal_mops.push_back(cal_kernel_mops());
    resumes_.push_back(host_ns());
    if (stamps_.size() == 1) {
      res_.open = snapshot();
      restart_window_instruments();
      t_open_ = now;
      if (traced_) {
        obs::profiler().enable();
        (void)obs::profiler().push(kProfWindow);
      }
    }
    if (completed_ == total_ops_) {
      if (traced_) obs::profiler().disable();
      res_.close = snapshot();
      res_.window_ops = total_ops_ - boundaries_.front();
      res_.window_sim_ns = now - t_open_;
      for (const char* name : kTimers) {
        const auto& h = obs::registry().timer(name).hist();
        res_.timers.emplace_back(h.count(), h.mean());
      }
      for (const char* name : kWindowGauges) res_.gauges.push_back(obs::registry().gauge(name).hwm());
      res_.pool_hwm = obs::registry().gauge(kProcessGauge).hwm();
    }
  }

  void finish() {
    if (setup_only_) return;
    if (stamps_.size() != boundaries_.size()) {
      ++res_.errors;  // some client never finished its stream
      return;
    }
    for (std::size_t k = 0; k + 1 < stamps_.size(); ++k) {
      const double ops = static_cast<double>(boundaries_[k + 1] - boundaries_[k]);
      const auto ns = static_cast<double>(stamps_[k + 1] - resumes_[k]);
      res_.window_rates.push_back(ops * 1e9 / ns);
      res_.window_host_s += ns * 1e-9;
    }
    res_.get_samples = samples_.get.size();
    res_.set_samples = samples_.set.size();
    res_.get_p50_us = percentile_us(samples_.get, 0.50);
    res_.get_p99_us = percentile_us(samples_.get, 0.99);
    res_.set_p50_us = percentile_us(samples_.set, 0.50);
    res_.set_p99_us = percentile_us(samples_.set, 0.99);
  }

  const WorkloadSpec& spec_;
  const std::vector<ClientStream>& streams_;
  const std::vector<std::string>& keys_;
  const bool traced_;
  const bool setup_only_;
  Samples& samples_;
  std::vector<Span>* spans_;
  // Declared before bed_ so they outlive it: the scheduler's destructor
  // tears down any still-suspended frame that awaits them or reads them.
  std::unique_ptr<sim::Event> connected_;
  std::unique_ptr<sim::Counter> ready_;
  std::unique_ptr<sim::Event> start_;
  std::vector<ClientBuffers> bufs_;
  Bed bed_;
  bool connect_failed_ = false;
  std::uint64_t t_run_ = 0;
  std::uint64_t total_ops_ = 0;
  std::uint64_t completed_ = 0;
  std::vector<std::uint64_t> boundaries_;
  std::vector<std::uint64_t> stamps_;   ///< host time each window boundary was reached
  std::vector<std::uint64_t> resumes_;  ///< host time the next window started
  Time t_open_ = 0;
  RoundResult res_;
};

void emit_round(Json& j, const RoundResult& r) {
  j.open('{');
  j.key("traced").boolean(r.traced);
  j.key("attempted").num(r.attempted);
  j.key("errors").num(r.errors);
  j.key("timeouts").num(r.timeouts);
  j.key("mismatches").num(r.mismatches);
  j.key("window_ops").num(r.window_ops);
  j.key("window_sim_ns").num(r.window_sim_ns);
  j.key("window_host_s").num(r.window_host_s);
  j.key("window_rates").open('[');
  for (const double v : r.window_rates) j.num(v);
  j.close(']');
  j.key("cal_mops").open('[');
  for (const double v : r.cal_mops) j.num(v);
  j.close(']');
  j.key("sim").open('{');
  j.key("get_p50_us").num(r.get_p50_us);
  j.key("get_p99_us").num(r.get_p99_us);
  j.key("set_p50_us").num(r.set_p50_us);
  j.key("set_p99_us").num(r.set_p99_us);
  j.key("get_samples").num(r.get_samples);
  j.key("set_samples").num(r.set_samples);
  j.key("lookups").num(r.lookups);
  j.key("hits").num(r.hits);
  j.close('}');
  j.key("kinds").open('{');
  j.key("get").num(r.w_get);
  j.key("set").num(r.w_set);
  j.key("mget").num(r.w_mget);
  j.key("mget_keys").num(r.w_mget_keys);
  j.key("del").num(r.w_del);
  j.close('}');
  j.key("counters").open('{');
  for (std::size_t i = 0; i < r.close.counters.size(); ++i) {
    j.key(kCounters[i]).num(r.close.counters[i] - r.open.counters[i]);
  }
  j.close('}');
  j.key("timers").open('{');
  for (std::size_t i = 0; i < r.timers.size(); ++i) {
    j.key(kTimers[i]).open('{');
    j.key("count").num(r.timers[i].first);
    j.key("mean_ns").num(r.timers[i].second);
    j.close('}');
  }
  j.close('}');
  j.key("gauges").open('{');
  for (std::size_t i = 0; i < r.gauges.size(); ++i) {
    j.key(kWindowGauges[i]).num(static_cast<std::uint64_t>(std::max<std::int64_t>(0, r.gauges[i])));
  }
  j.close('}');
  j.key("pool_cached_bytes_hwm").num(static_cast<std::uint64_t>(std::max<std::int64_t>(0, r.pool_hwm)));
  j.key("alloc_calls").num(r.close.alloc.calls - r.open.alloc.calls);
  j.key("alloc_bytes").num(r.close.alloc.bytes - r.open.alloc.bytes);
  j.close('}');
}

/// Times the store's synchronous API from outside: the workload's own op
/// stream, interleaved across clients, against a standalone ItemStore with
/// the server's slab configuration.
void replay_store(Json& j, const WorkloadSpec& spec, const std::vector<ClientStream>& streams,
                  const std::vector<std::string>& keys) {
  mc::ItemStore store(server_config(spec).store);
  std::vector<std::byte> value(spec.value_size);
  auto put = [&](std::uint32_t k) {
    std::fill(value.begin(), value.end(), value_byte(k));
    return store.store(mc::SetMode::set, keys[k], value, 0, 0);
  };
  for (std::uint32_t k = 0; k < spec.keys; ++k) (void)put(k);
  std::uint64_t get_ns = 0, gets = 0, set_ns = 0, sets = 0, sink = 0;
  auto timed_get = [&](std::uint32_t k) {
    const std::uint64_t t0 = host_ns();
    const mc::ItemHeader* item = store.get(keys[k]);
    get_ns += host_ns() - t0;
    ++gets;
    sink += item != nullptr;
  };
  std::size_t done = 0;
  for (std::size_t i = 0; done < kReplayOps; ++i) {
    bool any = false;
    for (const ClientStream& s : streams) {
      if (i >= s.ops.size()) continue;
      any = true;
      ++done;
      const Op op = s.ops[i];
      switch (op.kind) {
        case OpKind::get: timed_get(op.key); break;
        case OpKind::mget:
          for (std::uint32_t m = 0; m < spec.mget_width; ++m) timed_get(s.mget_keys[op.key + m]);
          break;
        case OpKind::set: {
          const std::uint64_t t0 = host_ns();
          sink += put(op.key).ok();
          set_ns += host_ns() - t0;
          ++sets;
          break;
        }
        case OpKind::del: sink += store.del(keys[op.key]); break;
      }
    }
    if (!any) break;
  }
  j.open('{');
  j.key("get_ns").num(gets ? static_cast<double>(get_ns) / static_cast<double>(gets) : 0.0);
  j.key("set_ns").num(sets ? static_cast<double>(set_ns) / static_cast<double>(sets) : 0.0);
  j.key("gets").num(gets);
  j.key("sets").num(sets);
  j.key("checksum").num(sink);
  j.close('}');
}

void write_spans(const std::string& path, const WorkloadSpec& spec,
                 const std::vector<Span>& spans) {
  std::ofstream out(path);
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  char buf[320];
  Time lo = spans.empty() ? 0 : spans.front().sim_begin, hi = lo;
  for (const Span& s : spans) {
    lo = std::min(lo, s.sim_begin);
    hi = std::max(hi, s.sim_end);
  }
  std::snprintf(buf, sizeof(buf),
                "{\"name\":\"%.*s\",\"cat\":\"workload\",\"ph\":\"X\",\"pid\":1,\"tid\":0,"
                "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":\"workload\"}}",
                static_cast<int>(spec.name.size()), spec.name.data(),
                static_cast<double>(lo) / 1e3, static_cast<double>(hi - lo) / 1e3);
  out << buf;
  for (const Span& s : spans) {
    const std::string_view kind = kind_name(s.kind);
    std::snprintf(buf, sizeof(buf),
                  ",{\"name\":\"%.*s\",\"cat\":\"op\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%" PRIu64
                  ",\"client\":%u,\"parent\":\"workload\",\"host_begin_ns\":%" PRIu64
                  ",\"host_end_ns\":%" PRIu64 "}}",
                  static_cast<int>(kind.size()), kind.data(), s.client + 1,
                  static_cast<double>(s.sim_begin) / 1e3,
                  static_cast<double>(s.sim_end - s.sim_begin) / 1e3, s.op, s.client,
                  s.host_begin, s.host_end);
    out << buf;
  }
  out << "]}\n";
}

/// A numeric field of /proc/self/status ("Threads:", "VmHWM:" in kB).
std::uint64_t proc_status(std::string_view field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field, 0) == 0) return std::strtoull(line.c_str() + field.size(), nullptr, 10);
  }
  return 0;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0.0;
  bool trace = false;
  double scale = 1.0;
  std::string spans;
};

int usage(const char* why) {
  std::fprintf(stderr,
               "rmcbench: %s\nusage: rmcbench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--scale F] [--spans FILE]\nworkloads:",
               why);
  for (const WorkloadSpec& w : workloads()) {
    std::fprintf(stderr, " %.*s", static_cast<int>(w.name.size()), w.name.data());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

int run(const Args& args) {
  const WorkloadSpec* spec = find_workload(args.workload);
  if (spec == nullptr) return usage("unknown workload");

  const double kernel_before = ref_kernel_mops();
  std::vector<std::string> keys;
  keys.reserve(spec->keys);
  for (std::uint32_t k = 0; k < spec->keys; ++k) keys.push_back(key_name(k));
  const auto streams = make_streams(*spec, args.seed, args.scale);
  const std::uint64_t hash = stream_hash(streams);
  const std::uint64_t hash_seed1 =
      args.seed == 1 ? hash : stream_hash(make_streams(*spec, 1, args.scale));

  Samples samples;
  std::size_t total_ops = 0;
  for (const ClientStream& s : streams) total_ops += s.ops.size();
  samples.get.reserve(total_ops);
  samples.set.reserve(total_ops);
  std::vector<Span> spans;
  if (args.trace) {
    spans.reserve(kMaxSpans);
    obs::profiler().reset();
  }
  std::vector<RoundResult> setups;
  for (unsigned i = 0; i < kSetupOnlyBuilds; ++i) {
    setups.push_back(Round(*spec, streams, keys, false, true, samples, nullptr).run());
  }
  // The round count follows from --seconds alone, never from how fast the
  // host happens to run, so a faster program does the same work per run as
  // its parent and every per-process figure (peak RSS, set-up samples)
  // stays comparable.
  const std::size_t round_count = std::max<std::size_t>(
      args.trace ? 2 : 1, static_cast<std::size_t>(args.seconds / kNominalRoundSeconds));
  std::vector<RoundResult> rounds;
  std::uint64_t peak_rss_kb = 0;
  for (std::size_t i = 0; i < round_count; ++i) {
    const bool traced = args.trace && i % 2 == 1;
    rounds.push_back(Round(*spec, streams, keys, traced, false, samples, &spans).run());
    // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across
    // execve, so it would report the launching process's RSS whenever that
    // was larger.
    if (i == 0) peak_rss_kb = proc_status("VmHWM:");
  }

  Json j;
  j.open('{');
  j.key("workload").str(spec->name);
  j.key("seed").num(args.seed);
  j.key("scale").num(args.scale);
  j.key("trace").boolean(args.trace);
  char hex[20];
  std::snprintf(hex, sizeof(hex), "%016" PRIx64, hash);
  j.key("stream_hash").str(hex);
  std::snprintf(hex, sizeof(hex), "%016" PRIx64, hash_seed1);
  j.key("stream_hash_seed1").str(hex);
  j.key("setup").open('[');
  for (const auto* list : {&setups, &rounds}) {
    for (const RoundResult& r : *list) {
      j.open('{');
      j.key("build_s").num(r.build_s);
      j.key("connect_s").num(r.connect_s);
      j.key("populate_s").num(r.populate_s);
      j.key("cal_mops").num(r.setup_cal_mops);
      j.key("errors").num(r.errors);
      j.close('}');
    }
  }
  j.close(']');
  j.key("rounds").open('[');
  for (const RoundResult& r : rounds) emit_round(j, r);
  j.close(']');
  if (args.trace) {
    j.key("profile").raw(obs::profiler().to_json());
    j.key("store_replay");
    replay_store(j, *spec, streams, keys);
  }
  if (!args.spans.empty() && args.trace) {
    write_spans(args.spans, *spec, spans);
    j.key("spans").num(std::uint64_t{spans.size()});
  }
  j.key("ref_kernel_mops").open('[');
  j.num(kernel_before);
  j.num(ref_kernel_mops());
  j.close(']');
  j.key("peak_rss_kb").num(peak_rss_kb);
  j.key("threads").num(proc_status("Threads:"));
  j.close('}');
  std::printf("%s\n", j.text().c_str());
  return 0;
}

}  // namespace

}  // namespace rmcbench

int main(int argc, char** argv) {
  // Pin glibc's mmap threshold at its documented default. Left dynamic,
  // it rises after the first large free, and then whether a build's big
  // buffers are fresh pages or reused heap depends on what earlier builds
  // freed, which moves set-up time by 2x between otherwise equal builds.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  rmcbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) return rmcbench::usage("missing value");
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::string_view(value) == "1";
    } else if (flag == "--scale") {
      args.scale = std::strtod(value, nullptr);
    } else if (flag == "--spans") {
      args.spans = value;
    } else {
      return rmcbench::usage("unknown flag");
    }
  }
  return rmcbench::run(args);
}
