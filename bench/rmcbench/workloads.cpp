#include <algorithm>
#include <cmath>
#include <optional>

#include "rmcbench.hpp"

namespace rmcbench {

namespace {

using rmc::core::TransportKind;
using Mode = rmc::mc::ClientBehavior::Mode;

WorkloadSpec small(std::string_view name, TransportKind transport, Mode mode,
                   std::uint64_t ops_per_client) {
  WorkloadSpec w;
  w.name = name;
  w.transport = transport;
  w.mode = mode;
  w.ops_per_client = ops_per_client;
  return w;
}

std::vector<WorkloadSpec> make_table() {
  std::vector<WorkloadSpec> table;
  // The four small-op workloads share one op stream shape (8 clients, 64 B,
  // 90/10 GET/SET, uniform over 4096 keys) and differ only in the path
  // that serves it. Op counts give each roughly the same host time.
  table.push_back(small("rpc-small", TransportKind::ucr_verbs, Mode::rpc, 100'000));
  table.push_back(small("onesided-small", TransportKind::ucr_verbs, Mode::onesided_get, 125'000));
  table.push_back(small("rfp-small", TransportKind::ucr_verbs, Mode::rfp, 110'000));
  table.push_back(small("ipoib-text", TransportKind::ipoib, Mode::rpc, 125'000));

  WorkloadSpec fleet;
  fleet.name = "fleet-10k";
  fleet.fleet = true;
  fleet.clients = 1250;  // x 8 shards = 10 000 UCR connections
  fleet.shards = 8;
  fleet.generators = 8;
  fleet.value_size = 128;
  fleet.keys = 8192;
  fleet.zipf_s = 0.99;
  fleet.get_weight = 85;
  fleet.set_weight = 10;
  fleet.mget_weight = 4;
  fleet.del_weight = 1;
  fleet.mget_width = 8;
  fleet.ops_per_client = 320;
  table.push_back(fleet);

  WorkloadSpec large;
  large.name = "rpc-large-writes";
  large.value_size = 32 * 1024;  // above the 8 KiB UCR eager limit
  large.keys = 1024;             // 32 MiB of values ...
  large.slab_limit = 16u << 20;  // ... against 16 MiB of slab memory
  large.get_weight = 50;
  large.set_weight = 50;
  large.ops_per_client = 60'000;
  table.push_back(large);
  return table;
}

/// SplitMix64: the benchmark's own generator, so a change to src/common
/// cannot change the inputs.
struct Prng {
  std::uint64_t state;
  std::uint64_t next() {
    state += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
};

/// Zipfian ranks over [0, n) with exponent s (Gray et al., "Quickly
/// generating billion-record synthetic databases").
class Zipf {
 public:
  Zipf(std::uint64_t n, double s) : n_(n), s_(s) {
    for (std::uint64_t i = 1; i <= n; ++i) zetan_ += 1.0 / std::pow(static_cast<double>(i), s);
    const double zeta2 = 1.0 + std::pow(0.5, s);
    alpha_ = 1.0 / (1.0 - s);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - s)) / (1.0 - zeta2 / zetan_);
  }
  std::uint32_t operator()(Prng& rng) const {
    const double u = rng.uniform();
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < 1.0 + std::pow(0.5, s_)) return 1;
    const auto k = static_cast<std::uint64_t>(static_cast<double>(n_) *
                                              std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return static_cast<std::uint32_t>(k < n_ ? k : n_ - 1);
  }

 private:
  std::uint64_t n_;
  double s_;
  double zetan_ = 0.0;
  double alpha_ = 0.0;
  double eta_ = 0.0;
};

}  // namespace

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> table = make_table();
  return table;
}

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::string key_name(std::uint32_t k) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string key = "rmcb:00000000";
  for (std::size_t i = 0; i < 8; ++i) key[key.size() - 1 - i] = kHex[(k >> (4 * i)) & 0xf];
  return key;
}

std::byte value_byte(std::uint32_t k) {
  return static_cast<std::byte>(0x21 + (k * 53u + 7u) % 0x5e);  // printable ASCII
}

std::vector<ClientStream> make_streams(const WorkloadSpec& spec, std::uint64_t seed,
                                       double scale) {
  const auto ops = std::max<std::uint64_t>(
      20, static_cast<std::uint64_t>(std::llround(static_cast<double>(spec.ops_per_client) * scale)));
  const std::uint64_t total_weight =
      std::uint64_t{spec.get_weight} + spec.set_weight + spec.mget_weight + spec.del_weight;
  std::optional<Zipf> zipf;
  if (spec.zipf_s > 0.0) zipf.emplace(spec.keys, spec.zipf_s);
  std::uint64_t salt = 0;
  for (const char c : spec.name) salt = salt * 131 + static_cast<unsigned char>(c);

  std::vector<ClientStream> streams(spec.clients);
  for (std::size_t c = 0; c < streams.size(); ++c) {
    Prng rng{seed * 0x9e3779b97f4a7c15ull ^ salt ^ (c * 0xd1b54a32d192ed03ull)};
    auto pick = [&]() -> std::uint32_t {
      return zipf ? (*zipf)(rng) : static_cast<std::uint32_t>(rng.below(spec.keys));
    };
    ClientStream& s = streams[c];
    s.ops.reserve(ops);
    for (std::uint64_t i = 0; i < ops; ++i) {
      std::uint64_t w = rng.below(total_weight);
      Op op;
      if (w < spec.get_weight) {
        op = {pick(), OpKind::get};
      } else if ((w -= spec.get_weight) < spec.set_weight) {
        op = {pick(), OpKind::set};
      } else if ((w -= spec.set_weight) < spec.mget_weight) {
        op = {static_cast<std::uint32_t>(s.mget_keys.size()), OpKind::mget};
        for (std::uint32_t j = 0; j < spec.mget_width; ++j) s.mget_keys.push_back(pick());
      } else {
        op = {pick(), OpKind::del};
      }
      s.ops.push_back(op);
    }
  }
  return streams;
}

std::uint64_t stream_hash(const std::vector<ClientStream>& streams) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  for (const ClientStream& s : streams) {
    for (const Op& op : s.ops) mix((std::uint64_t{op.key} << 8) | static_cast<std::uint8_t>(op.kind));
    for (const std::uint32_t k : s.mget_keys) mix(k);
  }
  return h;
}

}  // namespace rmcbench
