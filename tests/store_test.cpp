// Tests for the storage engine: slab allocator invariants, hash table with
// incremental rehash, LRU eviction, expiration, flush_all, CAS, arithmetic,
// the two-phase RDMA path, and refcount pinning.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "memcached/store.hpp"

namespace rmc::mc {
namespace {

std::span<const std::byte> val(const std::string& s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

std::string str(std::span<const std::byte> bytes) {
  return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
}

// ---------------------------------------------------------------- slab ----

TEST(Slab, ClassLadderGrowsByFactor) {
  SlabAllocator slabs;
  std::size_t prev = 0;
  for (std::size_t c = 0; c < slabs.class_count(); ++c) {
    EXPECT_GT(slabs.chunk_size(static_cast<std::uint8_t>(c)), prev);
    prev = slabs.chunk_size(static_cast<std::uint8_t>(c));
  }
  EXPECT_EQ(prev, SlabAllocator::kChunkMax);
}

TEST(Slab, ClassForPicksSmallestFit) {
  SlabAllocator slabs;
  auto cls = slabs.class_for(100);
  ASSERT_TRUE(cls.ok());
  EXPECT_GE(slabs.chunk_size(*cls), 100u);
  if (*cls > 0) {
    EXPECT_LT(slabs.chunk_size(*cls - 1), 100u);
  }
}

TEST(Slab, TooLargeRejected) {
  SlabAllocator slabs;
  EXPECT_EQ(slabs.class_for(2 * 1024 * 1024).error(), Errc::too_large);
}

TEST(Slab, AllocationsAreDistinctAndNonOverlapping) {
  SlabAllocator slabs;
  const auto cls = *slabs.class_for(200);
  const std::size_t chunk = slabs.chunk_size(cls);
  std::set<std::byte*> seen;
  std::vector<std::byte*> chunks;
  for (int i = 0; i < 500; ++i) {
    auto p = slabs.allocate(cls);
    ASSERT_TRUE(p.ok());
    EXPECT_TRUE(seen.insert(*p).second) << "duplicate chunk";
    chunks.push_back(*p);
  }
  // Property: no two chunks overlap.
  std::sort(chunks.begin(), chunks.end());
  for (std::size_t i = 1; i < chunks.size(); ++i) {
    EXPECT_GE(static_cast<std::size_t>(chunks[i] - chunks[i - 1]), chunk);
  }
}

TEST(Slab, FreeRecyclesMemory) {
  SlabConfig config;
  config.memory_limit = 1024 * 1024;  // one page only
  SlabAllocator slabs(config);
  const auto cls = *slabs.class_for(100000);  // big chunks, few per page
  std::vector<std::byte*> all;
  while (true) {
    auto p = slabs.allocate(cls);
    if (!p.ok()) break;
    all.push_back(*p);
  }
  ASSERT_FALSE(all.empty());
  slabs.free(cls, all.back());
  auto again = slabs.allocate(cls);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, all.back());
}

TEST(Slab, MemoryLimitEnforced) {
  SlabConfig config;
  config.memory_limit = 2 * 1024 * 1024;
  SlabAllocator slabs(config);
  const auto cls = *slabs.class_for(1000);
  while (slabs.allocate(cls).ok()) {
  }
  EXPECT_LE(slabs.memory_allocated(), config.memory_limit);
}

// ----------------------------------------------------------- hashtable ----

TEST(Hash, InsertFindRemoveAcrossRehash) {
  // Start tiny so expansion happens many times; every key must stay
  // findable through incremental migration.
  HashTable table(4);  // 16 buckets
  SlabAllocator slabs;
  std::map<std::string, ItemHeader*> reference;

  const auto cls = *slabs.class_for(400);
  for (int i = 0; i < 2000; ++i) {
    const std::string key = "key-" + std::to_string(i);
    auto chunk = slabs.allocate(cls);
    auto* item = new (*chunk) ItemHeader();
    item->key_len = static_cast<std::uint16_t>(key.size());
    std::memcpy(item->key_data(), key.data(), key.size());
    table.insert(item, hash_one_at_a_time(key));
    reference[key] = item;

    // Interleave lookups of old keys while expansion is in flight.
    if (i % 7 == 0) {
      const std::string probe = "key-" + std::to_string(i / 2);
      EXPECT_EQ(table.find(probe, hash_one_at_a_time(probe)), reference[probe]);
    }
  }
  EXPECT_EQ(table.size(), 2000u);
  EXPECT_GT(table.bucket_count(), 16u);  // expanded

  for (const auto& [key, item] : reference) {
    EXPECT_EQ(table.find(key, hash_one_at_a_time(key)), item);
  }
  // Remove half, verify the rest.
  int removed = 0;
  for (const auto& [key, item] : reference) {
    if (removed % 2 == 0) {
      EXPECT_TRUE(table.remove(item, hash_one_at_a_time(key)));
    }
    ++removed;
  }
  EXPECT_EQ(table.size(), 1000u);
}

// --------------------------------------------------------------- store ----

TEST(Store, SetAndGetRoundTrip) {
  ItemStore store;
  ASSERT_TRUE(store.store(SetMode::set, "hello", val("world"), 42, 0).ok());
  ItemHeader* item = store.get("hello");
  ASSERT_NE(item, nullptr);
  EXPECT_EQ(str(item->value()), "world");
  EXPECT_EQ(item->flags, 42u);
  EXPECT_EQ(item->key(), "hello");
}

TEST(Store, GetMissingReturnsNull) {
  ItemStore store;
  EXPECT_EQ(store.get("nope"), nullptr);
  EXPECT_EQ(store.stats().get_misses, 1u);
}

TEST(Store, SetOverwritesAndBumpsCas) {
  ItemStore store;
  ASSERT_TRUE(store.store(SetMode::set, "k", val("v1"), 0, 0).ok());
  const auto cas1 = store.get("k")->cas;
  ASSERT_TRUE(store.store(SetMode::set, "k", val("v2"), 0, 0).ok());
  ItemHeader* item = store.get("k");
  EXPECT_EQ(str(item->value()), "v2");
  EXPECT_GT(item->cas, cas1);
  EXPECT_EQ(store.item_count(), 1u);
}

TEST(Store, AddOnlyWhenAbsent) {
  ItemStore store;
  EXPECT_TRUE(store.store(SetMode::add, "k", val("v"), 0, 0).ok());
  EXPECT_EQ(store.store(SetMode::add, "k", val("w"), 0, 0).error(), Errc::not_stored);
  EXPECT_EQ(str(store.get("k")->value()), "v");
}

TEST(Store, ReplaceOnlyWhenPresent) {
  ItemStore store;
  EXPECT_EQ(store.store(SetMode::replace, "k", val("v"), 0, 0).error(), Errc::not_stored);
  ASSERT_TRUE(store.store(SetMode::set, "k", val("v"), 0, 0).ok());
  EXPECT_TRUE(store.store(SetMode::replace, "k", val("w"), 0, 0).ok());
  EXPECT_EQ(str(store.get("k")->value()), "w");
}

TEST(Store, AppendPrependCombineAndKeepFlags) {
  ItemStore store;
  ASSERT_TRUE(store.store(SetMode::set, "k", val("mid"), 7, 0).ok());
  ASSERT_TRUE(store.store(SetMode::append, "k", val("-end"), 99, 0).ok());
  ASSERT_TRUE(store.store(SetMode::prepend, "k", val("start-"), 99, 0).ok());
  ItemHeader* item = store.get("k");
  EXPECT_EQ(str(item->value()), "start-mid-end");
  EXPECT_EQ(item->flags, 7u);  // storage verbs keep original flags
}

TEST(Store, CasMatchesAndConflicts) {
  ItemStore store;
  ASSERT_TRUE(store.store(SetMode::set, "k", val("v1"), 0, 0).ok());
  const auto cas = store.get("k")->cas;
  EXPECT_TRUE(store.store(SetMode::cas, "k", val("v2"), 0, 0, cas).ok());
  // Old CAS id now stale.
  EXPECT_EQ(store.store(SetMode::cas, "k", val("v3"), 0, 0, cas).error(), Errc::exists);
  EXPECT_EQ(store.store(SetMode::cas, "missing", val("x"), 0, 0, 1).error(), Errc::not_found);
  EXPECT_EQ(str(store.get("k")->value()), "v2");
  EXPECT_EQ(store.stats().cas_hits, 1u);
  EXPECT_EQ(store.stats().cas_badval, 1u);
  EXPECT_EQ(store.stats().cas_misses, 1u);
}

TEST(Store, DeleteRemoves) {
  ItemStore store;
  ASSERT_TRUE(store.store(SetMode::set, "k", val("v"), 0, 0).ok());
  EXPECT_TRUE(store.del("k"));
  EXPECT_FALSE(store.del("k"));
  EXPECT_EQ(store.get("k"), nullptr);
  EXPECT_EQ(store.stats().curr_items, 0u);
}

TEST(Store, ExpirationIsLazy) {
  ItemStore store;
  store.set_clock(100);
  ASSERT_TRUE(store.store(SetMode::set, "k", val("v"), 0, 5).ok());  // expires at 105
  EXPECT_NE(store.get("k"), nullptr);
  store.set_clock(104);
  EXPECT_NE(store.get("k"), nullptr);
  store.set_clock(105);
  EXPECT_EQ(store.get("k"), nullptr);
  EXPECT_EQ(store.stats().expired_unfetched, 1u);
  EXPECT_EQ(store.stats().curr_items, 0u);
}

TEST(Store, ExptimeZeroNeverExpires) {
  ItemStore store;
  ASSERT_TRUE(store.store(SetMode::set, "k", val("v"), 0, 0).ok());
  store.set_clock(1u << 30);
  EXPECT_NE(store.get("k"), nullptr);
}

TEST(Store, LargeExptimeIsAbsolute) {
  ItemStore store;
  store.set_clock(100);
  const std::uint32_t absolute = 40 * 86400;  // > 30 days -> absolute
  ASSERT_TRUE(store.store(SetMode::set, "k", val("v"), 0, absolute).ok());
  EXPECT_EQ(store.get("k")->exptime, absolute);
}

TEST(Store, FlushAllInvalidatesEverythingStoredBefore) {
  ItemStore store;
  ASSERT_TRUE(store.store(SetMode::set, "a", val("1"), 0, 0).ok());
  ASSERT_TRUE(store.store(SetMode::set, "b", val("2"), 0, 0).ok());
  store.flush_all();
  EXPECT_EQ(store.get("a"), nullptr);
  EXPECT_EQ(store.get("b"), nullptr);
  // New stores after the flush live.
  ASSERT_TRUE(store.store(SetMode::set, "c", val("3"), 0, 0).ok());
  EXPECT_NE(store.get("c"), nullptr);
}

TEST(Store, IncrDecrSemantics) {
  ItemStore store;
  ASSERT_TRUE(store.store(SetMode::set, "n", val("10"), 0, 0).ok());
  EXPECT_EQ(*store.arith("n", 5, false), 15u);
  EXPECT_EQ(*store.arith("n", 3, true), 12u);
  EXPECT_EQ(*store.arith("n", 100, true), 0u);  // clamps at zero
  EXPECT_EQ(str(store.get("n")->value()), "0");
  EXPECT_EQ(store.arith("missing", 1, false).error(), Errc::not_found);
}

TEST(Store, IncrOnNonNumericFails) {
  ItemStore store;
  ASSERT_TRUE(store.store(SetMode::set, "s", val("abc"), 0, 0).ok());
  EXPECT_EQ(store.arith("s", 1, false).error(), Errc::invalid_argument);
}

TEST(Store, IncrGrowsValueLength) {
  ItemStore store;
  ASSERT_TRUE(store.store(SetMode::set, "n", val("9"), 0, 0).ok());
  EXPECT_EQ(*store.arith("n", 1, false), 10u);
  EXPECT_EQ(str(store.get("n")->value()), "10");
  // Wrap a number to maximum width.
  ASSERT_TRUE(store.store(SetMode::set, "m", val("18446744073709551615"), 0, 0).ok());
  EXPECT_EQ(*store.arith("m", 1, false), 0u);  // wraps like memcached
}

TEST(Store, TouchUpdatesExpiry) {
  ItemStore store;
  store.set_clock(10);
  ASSERT_TRUE(store.store(SetMode::set, "k", val("v"), 0, 5).ok());
  EXPECT_TRUE(store.touch("k", 100));
  store.set_clock(50);
  EXPECT_NE(store.get("k"), nullptr);  // would have expired without touch
  EXPECT_FALSE(store.touch("missing", 10));
}

TEST(Store, EvictionReclaimsLruTail) {
  StoreConfig config;
  config.slabs.memory_limit = 1024 * 1024;  // one page
  ItemStore store(config);
  const std::string value(1000, 'x');

  // Fill beyond capacity; early keys must be evicted, late ones live.
  int stored = 0;
  for (int i = 0; i < 2000; ++i) {
    if (store.store(SetMode::set, "k" + std::to_string(i), val(value), 0, 0).ok()) ++stored;
  }
  EXPECT_EQ(stored, 2000);  // eviction means set never fails
  EXPECT_GT(store.stats().evictions, 0u);
  EXPECT_EQ(store.get("k0"), nullptr);                  // oldest gone
  EXPECT_NE(store.get("k1999"), nullptr);               // newest alive
  EXPECT_LE(store.slabs().memory_allocated(), config.slabs.memory_limit);
}

TEST(Store, GetBumpsLruSoHotKeysSurvive) {
  StoreConfig config;
  config.slabs.memory_limit = 1024 * 1024;
  ItemStore store(config);
  const std::string value(1000, 'x');
  ASSERT_TRUE(store.store(SetMode::set, "hot", val(value), 0, 0).ok());
  for (int i = 0; i < 1500; ++i) {
    ASSERT_TRUE(store.store(SetMode::set, "k" + std::to_string(i), val(value), 0, 0).ok());
    store.get("hot");  // keep it warm
  }
  EXPECT_NE(store.get("hot"), nullptr);
}

TEST(Store, EvictionDisabledReturnsNoResources) {
  StoreConfig config;
  config.slabs.memory_limit = 1024 * 1024;
  config.evict_to_free = false;  // memcached -M
  ItemStore store(config);
  const std::string value(1000, 'x');
  bool failed = false;
  for (int i = 0; i < 2000 && !failed; ++i) {
    failed = !store.store(SetMode::set, "k" + std::to_string(i), val(value), 0, 0).ok();
  }
  EXPECT_TRUE(failed);
  EXPECT_EQ(store.stats().evictions, 0u);
}

TEST(Store, ItemOwnsKeyAndValueBytesAfterCallerBufferDies) {
  // The store must copy key and value into the slab chunk: the hot path
  // hands it string_views/spans into receive buffers that are recycled
  // immediately after the call.
  ItemStore store;
  std::string key_buf = "volatile-key";
  std::string val_buf = "volatile-value";
  ASSERT_TRUE(store.store(SetMode::set, key_buf, val(val_buf), 0, 0).ok());
  // Scribble over the caller's buffers (simulating rx-buffer reuse).
  std::fill(key_buf.begin(), key_buf.end(), '!');
  std::fill(val_buf.begin(), val_buf.end(), '?');
  ItemHeader* item = store.get("volatile-key");
  ASSERT_NE(item, nullptr);
  EXPECT_EQ(item->key(), "volatile-key");
  EXPECT_EQ(str(item->value()), "volatile-value");
  // And lookups read the probe key by value, not by pointer identity.
  std::string probe = "volatile-key";
  EXPECT_EQ(store.get(probe), item);
}

TEST(Store, PinnedItemSurvivesDeleteUntilRelease) {
  ItemStore store;
  ASSERT_TRUE(store.store(SetMode::set, "k", val("payload"), 0, 0).ok());
  ItemHeader* item = store.get_pinned("k");
  ASSERT_NE(item, nullptr);
  EXPECT_TRUE(store.del("k"));
  // The chunk is still readable: an in-flight RDMA would still see it.
  EXPECT_EQ(str(item->value()), "payload");
  store.release(item);  // now it may be recycled
  EXPECT_EQ(store.get("k"), nullptr);
}

TEST(Store, PinnedItemNotEvicted) {
  StoreConfig config;
  config.slabs.memory_limit = 1024 * 1024;
  ItemStore store(config);
  const std::string value(1000, 'x');
  ASSERT_TRUE(store.store(SetMode::set, "pinned", val(value), 0, 0).ok());
  ItemHeader* pinned = store.get_pinned("pinned");
  for (int i = 0; i < 1500; ++i) {
    (void)store.store(SetMode::set, "k" + std::to_string(i), val(value), 0, 0);
  }
  EXPECT_EQ(str(pinned->value()), value);
  EXPECT_TRUE(pinned->linked);
  store.release(pinned);
}

TEST(Store, TwoPhaseAllocateCommit) {
  ItemStore store;
  auto item = store.allocate_item("rdma-key", 8, 5, 0);
  ASSERT_TRUE(item.ok());
  EXPECT_EQ(store.get("rdma-key"), nullptr);  // not yet visible
  std::memcpy((*item)->value_data(), "RDMADATA", 8);
  store.commit_item(*item);
  ItemHeader* found = store.get("rdma-key");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found, *item);  // same memory: zero-copy
  EXPECT_EQ(str(found->value()), "RDMADATA");
  EXPECT_EQ(found->flags, 5u);
}

TEST(Store, TwoPhaseCommitReplacesExisting) {
  ItemStore store;
  ASSERT_TRUE(store.store(SetMode::set, "k", val("old"), 0, 0).ok());
  auto item = store.allocate_item("k", 3, 0, 0);
  ASSERT_TRUE(item.ok());
  std::memcpy((*item)->value_data(), "new", 3);
  store.commit_item(*item);
  EXPECT_EQ(str(store.get("k")->value()), "new");
  EXPECT_EQ(store.item_count(), 1u);
}

TEST(Store, TwoPhaseAbandonFrees) {
  ItemStore store;
  auto item = store.allocate_item("k", 100, 0, 0);
  ASSERT_TRUE(item.ok());
  const auto in_use = store.slabs().chunks_in_use((*item)->slab_class);
  store.abandon_item(*item);
  EXPECT_EQ(store.slabs().chunks_in_use((*item)->slab_class), in_use - 1);
  EXPECT_EQ(store.get("k"), nullptr);
}

TEST(Store, KeyLimits) {
  ItemStore store;
  EXPECT_EQ(store.store(SetMode::set, "", val("v"), 0, 0).error(), Errc::invalid_argument);
  const std::string long_key(251, 'k');
  EXPECT_EQ(store.store(SetMode::set, long_key, val("v"), 0, 0).error(),
            Errc::invalid_argument);
  const std::string max_key(250, 'k');
  EXPECT_TRUE(store.store(SetMode::set, max_key, val("v"), 0, 0).ok());
}

TEST(Store, ValueTooLargeRejected) {
  ItemStore store;
  std::vector<std::byte> huge(2 * 1024 * 1024);
  EXPECT_EQ(store.store(SetMode::set, "k", huge, 0, 0).error(), Errc::too_large);
}

TEST(Store, BytesStatTracksUsage) {
  ItemStore store;
  EXPECT_EQ(store.stats().bytes, 0u);
  ASSERT_TRUE(store.store(SetMode::set, "k", val("0123456789"), 0, 0).ok());
  const auto with_item = store.stats().bytes;
  EXPECT_GT(with_item, 10u);
  store.del("k");
  EXPECT_EQ(store.stats().bytes, 0u);
}

// Property: random workload against a std::map reference model.
TEST(Store, RandomizedAgainstReferenceModel) {
  ItemStore store;
  std::map<std::string, std::string> model;
  Rng rng(2024);
  for (int op = 0; op < 20000; ++op) {
    const std::string key = "key" + std::to_string(rng.below(500));
    switch (rng.below(4)) {
      case 0: {  // set
        const std::string value = rng.alnum(rng.between(1, 2000));
        ASSERT_TRUE(store.store(SetMode::set, key, val(value), 0, 0).ok());
        model[key] = value;
        break;
      }
      case 1: {  // get
        ItemHeader* item = store.get(key);
        auto it = model.find(key);
        if (it == model.end()) {
          EXPECT_EQ(item, nullptr) << key;
        } else {
          ASSERT_NE(item, nullptr) << key;
          EXPECT_EQ(str(item->value()), it->second);
        }
        break;
      }
      case 2: {  // delete
        EXPECT_EQ(store.del(key), model.erase(key) > 0);
        break;
      }
      case 3: {  // add
        const std::string value = rng.alnum(16);
        const bool existed = model.count(key) > 0;
        const auto result = store.store(SetMode::add, key, val(value), 0, 0);
        EXPECT_EQ(result.ok(), !existed);
        if (!existed) model[key] = value;
        break;
      }
    }
  }
  EXPECT_EQ(store.item_count(), model.size());
}

}  // namespace
}  // namespace rmc::mc
