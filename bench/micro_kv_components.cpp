// Google-benchmark microbenchmarks of the storage-engine components: slab
// allocation, hash table operations under churn and rehash, LRU-driven
// eviction, text protocol parse/encode, and the MD5/key hashing the client
// uses. These run in wall-clock time (no simulator involved).
#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "common/md5.hpp"
#include "common/rng.hpp"
#include "memcached/protocol.hpp"
#include "memcached/store.hpp"

namespace rmc::mc {
namespace {

std::span<const std::byte> val(const std::string& s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

// ---------------------------------------------------------------- slab ----

void BM_SlabAllocFree(benchmark::State& state) {
  SlabAllocator slabs;
  const auto cls = *slabs.class_for(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto chunk = slabs.allocate(cls);
    benchmark::DoNotOptimize(*chunk);
    slabs.free(cls, *chunk);
  }
}
BENCHMARK(BM_SlabAllocFree)->Arg(100)->Arg(1024)->Arg(65536);

// --------------------------------------------------------------- store ----

void BM_StoreSet(benchmark::State& state) {
  ItemStore store;
  const std::string value(static_cast<std::size_t>(state.range(0)), 'v');
  Rng rng(1);
  std::vector<std::string> keys;
  for (int i = 0; i < 1024; ++i) keys.push_back("key:" + std::to_string(i));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.store(SetMode::set, keys[i++ & 1023], val(value), 0, 0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_StoreSet)->Arg(64)->Arg(1024)->Arg(16384);

void BM_StoreGetHit(benchmark::State& state) {
  ItemStore store;
  std::vector<std::string> keys;
  for (int i = 0; i < 4096; ++i) {
    keys.push_back("key:" + std::to_string(i));
    (void)store.store(SetMode::set, keys.back(), val("value"), 0, 0);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.get(keys[i++ & 4095]));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_StoreGetHit);

void BM_StoreGetMiss(benchmark::State& state) {
  ItemStore store;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.get("absent-key"));
  }
}
BENCHMARK(BM_StoreGetMiss);

void BM_StoreChurnWithEviction(benchmark::State& state) {
  StoreConfig config;
  config.slabs.memory_limit = 4 * 1024 * 1024;
  ItemStore store(config);
  const std::string value(1024, 'x');
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        store.store(SetMode::set, "churn:" + std::to_string(i++), val(value), 0, 0));
  }
  state.counters["evictions"] =
      benchmark::Counter(static_cast<double>(store.stats().evictions));
}
BENCHMARK(BM_StoreChurnWithEviction);

// ------------------------------------------------------------ protocol ----

// One parser for the whole run, as a connection keeps one: each iteration
// feeds one message and pops it.

void BM_ParseSetRequest(benchmark::State& state) {
  const std::string wire = "set somekey 42 0 64\r\n" + std::string(64, 'd') + "\r\n";
  proto::RequestParser parser;
  for (auto _ : state) {
    parser.feed({reinterpret_cast<const std::byte*>(wire.data()), wire.size()});
    benchmark::DoNotOptimize(parser.next());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * wire.size()));
}
BENCHMARK(BM_ParseSetRequest);

void BM_ParseGetRequest(benchmark::State& state) {
  const std::string wire = "get somekey\r\n";
  proto::RequestParser parser;
  for (auto _ : state) {
    parser.feed({reinterpret_cast<const std::byte*>(wire.data()), wire.size()});
    benchmark::DoNotOptimize(parser.next());
  }
}
BENCHMARK(BM_ParseGetRequest);

void BM_ParseValuesResponse(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  const std::string wire =
      "VALUE somekey 0 " + std::to_string(size) + "\r\n" + std::string(size, 'd') + "\r\nEND\r\n";
  proto::ResponseParser parser;
  for (auto _ : state) {
    parser.feed({reinterpret_cast<const std::byte*>(wire.data()), wire.size()});
    benchmark::DoNotOptimize(parser.next(proto::ResponseParser::Expect::values));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * wire.size()));
}
BENCHMARK(BM_ParseValuesResponse)->Arg(64)->Arg(4096);

// ------------------------------------------------------------- hashing ----

void BM_KeyHash(benchmark::State& state) {
  const auto kind = static_cast<HashKind>(state.range(0));
  const std::string key = "user:12345:profile:settings";
  for (auto _ : state) {
    benchmark::DoNotOptimize(hash_key(kind, key));
  }
}
BENCHMARK(BM_KeyHash)
    ->Arg(static_cast<int>(HashKind::default_jenkins))
    ->Arg(static_cast<int>(HashKind::fnv1a_64))
    ->Arg(static_cast<int>(HashKind::crc))
    ->Arg(static_cast<int>(HashKind::md5));

void BM_Md5(benchmark::State& state) {
  const std::string data(static_cast<std::size_t>(state.range(0)), 'm');
  for (auto _ : state) {
    benchmark::DoNotOptimize(md5(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * data.size()));
}
BENCHMARK(BM_Md5)->Arg(16)->Arg(4096);

}  // namespace
}  // namespace rmc::mc

BENCHMARK_MAIN();
