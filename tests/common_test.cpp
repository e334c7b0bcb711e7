// Unit tests for src/common: hashing (with RFC vectors), histograms, RNG
// determinism, tables, units, page-backed buffers.
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/histogram.hpp"
#include "common/md5.hpp"
#include "common/page_buffer.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/units.hpp"

namespace rmc {
namespace {

using namespace rmc::literals;

// ---------------------------------------------------------------- MD5 ----

// RFC 1321 appendix A.5 test suite.
TEST(Md5, Rfc1321Vectors) {
  EXPECT_EQ(md5("").hex(), "d41d8cd98f00b204e9800998ecf8427e");
  EXPECT_EQ(md5("a").hex(), "0cc175b9c0f1b6a831c399e269772661");
  EXPECT_EQ(md5("abc").hex(), "900150983cd24fb0d6963f7d28e17f72");
  EXPECT_EQ(md5("message digest").hex(), "f96b697d7cb7938d525a2f31aaf161d0");
  EXPECT_EQ(md5("abcdefghijklmnopqrstuvwxyz").hex(), "c3fcd3d76192e4007dfb496cca67e13b");
  EXPECT_EQ(md5("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789").hex(),
            "d174ab98d277d9f5a5611c2c9f419d9f");
  EXPECT_EQ(
      md5("12345678901234567890123456789012345678901234567890123456789012345678901234567890")
          .hex(),
      "57edf4a22be3c955ac49da2e2107b67a");
}

// Exercise the one-block/two-block padding boundary (55, 56, 63, 64, 65
// byte inputs hit every branch of the tail logic).
TEST(Md5, PaddingBoundaries) {
  std::set<std::string> digests;
  for (std::size_t n : {0u, 1u, 54u, 55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u, 128u, 129u}) {
    std::string input(n, 'x');
    auto d = md5(input);
    EXPECT_EQ(d.hex().size(), 32u);
    digests.insert(d.hex());
  }
  // All distinct inputs must give distinct digests.
  EXPECT_EQ(digests.size(), 13u);
}

TEST(Md5, DigestEquality) {
  EXPECT_EQ(md5("hello"), md5("hello"));
  EXPECT_NE(md5("hello"), md5("hellp"));
}

// --------------------------------------------------------------- hash ----

TEST(Hash, OneAtATimeMatchesKnownValues) {
  // Jenkins OAAT of "a" computed by the reference implementation.
  EXPECT_EQ(hash_one_at_a_time(""), 0u);
  EXPECT_NE(hash_one_at_a_time("a"), hash_one_at_a_time("b"));
  EXPECT_EQ(hash_one_at_a_time("key"), hash_one_at_a_time("key"));
}

TEST(Hash, Fnv1aKnownVectors) {
  // Standard FNV-1a test vectors.
  EXPECT_EQ(hash_fnv1a_32(""), 0x811c9dc5u);
  EXPECT_EQ(hash_fnv1a_32("a"), 0xe40c292cu);
  EXPECT_EQ(hash_fnv1a_32("foobar"), 0xbf9cf968u);
  EXPECT_EQ(hash_fnv1a_64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(hash_fnv1a_64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(hash_fnv1a_64("foobar"), 0x85944171f73967e8ull);
}

TEST(Hash, Crc32KnownVector) {
  EXPECT_EQ(hash_crc32("123456789"), 0xcbf43926u);
}

TEST(Hash, DispatchCoversAllKinds) {
  for (HashKind kind : {HashKind::default_jenkins, HashKind::fnv1a_32, HashKind::fnv1a_64,
                        HashKind::crc, HashKind::md5}) {
    // Sanity: same key hashes equal, different keys usually differ.
    EXPECT_EQ(hash_key(kind, "alpha"), hash_key(kind, "alpha"));
  }
}

// Distribution property: hashing many distinct keys into 8 server buckets
// should not leave any bucket nearly empty (client-side server selection).
TEST(Hash, ServerSelectionIsRoughlyUniform) {
  constexpr int kServers = 8;
  constexpr int kKeys = 8000;
  std::map<std::uint32_t, int> load;
  for (int i = 0; i < kKeys; ++i) {
    const std::string key = "user:" + std::to_string(i) + ":profile";
    load[hash_key(HashKind::default_jenkins, key) % kServers]++;
  }
  ASSERT_EQ(load.size(), kServers);
  for (const auto& [server, count] : load) {
    EXPECT_GT(count, kKeys / kServers / 2) << "server " << server;
    EXPECT_LT(count, kKeys / kServers * 2) << "server " << server;
  }
}

// ---------------------------------------------------------------- rng ----

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a() == b());
  EXPECT_LT(equal, 3);
}

TEST(Rng, BelowRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Rng, BetweenInclusiveBounds) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    auto v = rng.between(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    saw_lo |= (v == 3);
    saw_hi |= (v == 5);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(99);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ForkIsIndependent) {
  Rng parent(5);
  Rng child = parent.fork();
  EXPECT_NE(parent(), child());
}

TEST(Rng, AlnumProducesRequestedLength) {
  Rng rng(1);
  EXPECT_EQ(rng.alnum(16).size(), 16u);
  EXPECT_EQ(rng.alnum(0).size(), 0u);
}

// ---------------------------------------------------------- histogram ----

TEST(Histogram, EmptyIsZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(0.5), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.min(), 0u);
}

TEST(Histogram, ExactForSmallValues) {
  LatencyHistogram h;
  for (std::uint64_t v : {5u, 5u, 5u, 10u}) h.record(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.min(), 5u);
  EXPECT_EQ(h.max(), 10u);
  EXPECT_EQ(h.percentile(0.5), 5u);
  EXPECT_EQ(h.percentile(1.0), 10u);
  EXPECT_DOUBLE_EQ(h.mean(), 6.25);
}

TEST(Histogram, PercentileWithinRelativeError) {
  LatencyHistogram h;
  for (std::uint64_t v = 1; v <= 100000; ++v) h.record(v);
  // Median of 1..100000 is 50000; log bucketing guarantees ~1.6% error.
  const auto p50 = static_cast<double>(h.percentile(0.5));
  EXPECT_NEAR(p50, 50000.0, 50000.0 * 0.02);
  const auto p99 = static_cast<double>(h.percentile(0.99));
  EXPECT_NEAR(p99, 99000.0, 99000.0 * 0.02);
}

TEST(Histogram, MergeEqualsCombinedRecording) {
  LatencyHistogram a, b, combined;
  Rng rng(3);
  for (int i = 0; i < 5000; ++i) {
    auto v = rng.below(1000000);
    (i % 2 ? a : b).record(v);
    combined.record(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_EQ(a.min(), combined.min());
  EXPECT_EQ(a.max(), combined.max());
  EXPECT_EQ(a.percentile(0.5), combined.percentile(0.5));
  EXPECT_DOUBLE_EQ(a.mean(), combined.mean());
}

TEST(Histogram, ResetClearsEverything) {
  LatencyHistogram h;
  h.record(123);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

TEST(Histogram, LargeValuesDoNotOverflowBuckets) {
  LatencyHistogram h;
  h.record(~0ull);
  h.record(1ull << 62);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.max(), ~0ull);
}

// Regression: q<=0 must return the exact recorded minimum, not the upper
// bound of the minimum's bucket (which for e.g. 1000 is 1008).
TEST(Histogram, PercentileZeroIsExactMin) {
  LatencyHistogram h;
  h.record(1000);
  h.record(5000);
  EXPECT_EQ(h.percentile(0.0), 1000u);
  EXPECT_EQ(h.percentile(-0.5), 1000u);
  EXPECT_EQ(h.min(), 1000u);
}

// Regression: q>1 and NaN clamp instead of scanning past the last bucket.
TEST(Histogram, PercentileOutOfRangeClamps) {
  LatencyHistogram h;
  for (std::uint64_t v : {7u, 70u, 700u}) h.record(v);
  EXPECT_EQ(h.percentile(2.0), h.percentile(1.0));
  EXPECT_EQ(h.percentile(std::numeric_limits<double>::quiet_NaN()), h.min());
  EXPECT_EQ(h.percentile(std::numeric_limits<double>::infinity()), h.percentile(1.0));
}

// Regression: the running sum saturates on record() and merge() instead of
// wrapping, so mean() stays at the ceiling rather than going tiny.
TEST(Histogram, SumSaturatesInsteadOfWrapping) {
  LatencyHistogram a;
  a.record(~0ull);
  a.record(~0ull);  // sum would wrap to ~0; must pin at 2^64-1
  EXPECT_GE(a.mean(), static_cast<double>(~0ull) / 2.1);

  LatencyHistogram b;
  b.record(~0ull);
  LatencyHistogram c;
  c.record(~0ull);
  b.merge(c);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_GE(b.mean(), static_cast<double>(~0ull) / 2.1);
}

// -------------------------------------------------------------- units ----

TEST(Units, Literals) {
  EXPECT_EQ(5_us, 5000u);
  EXPECT_EQ(2_ms, 2000000u);
  EXPECT_EQ(1_s, 1000000000u);
  EXPECT_EQ(4_KiB, 4096u);
  EXPECT_EQ(1_MiB, 1048576u);
}

TEST(Units, Conversions) {
  EXPECT_DOUBLE_EQ(to_us(12000), 12.0);
  EXPECT_DOUBLE_EQ(to_sec(1500000000ull), 1.5);
}

TEST(Units, SizeLabels) {
  EXPECT_EQ(format_size_label(4), "4");
  EXPECT_EQ(format_size_label(1024), "1K");
  EXPECT_EQ(format_size_label(512 * 1024), "512K");
  EXPECT_EQ(format_size_label(2 * 1024 * 1024), "2M");
  EXPECT_EQ(format_size_label(1500), "1500");
}

// -------------------------------------------------------------- error ----

TEST(Error, ResultHoldsValue) {
  Result<int> r(7);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 7);
  EXPECT_EQ(r.value_or(9), 7);
}

TEST(Error, ResultHoldsError) {
  Result<int> r(Errc::not_found);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error(), Errc::not_found);
  EXPECT_EQ(r.value_or(9), 9);
}

TEST(Error, StatusDefaultsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  Status bad(Errc::timed_out);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(to_string(bad.error()), "timed_out");
}

TEST(Error, AllCodesHaveNames) {
  for (auto e : {Errc::ok, Errc::timed_out, Errc::disconnected, Errc::refused,
                 Errc::no_resources, Errc::invalid_argument, Errc::not_found, Errc::exists,
                 Errc::not_stored, Errc::too_large, Errc::protocol_error}) {
    EXPECT_NE(to_string(e), "unknown");
  }
}

// -------------------------------------------------------------- table ----

TEST(Table, RendersAlignedColumns) {
  Table t("demo", {"size", "latency"});
  t.add_row({"4", "12.00"});
  t.add_row({"4096", "20.50"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("## demo"), std::string::npos);
  EXPECT_NE(s.find("size"), std::string::npos);
  EXPECT_NE(s.find("4096"), std::string::npos);
}

TEST(Table, NumFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(std::uint64_t{42}), "42");
}

TEST(Table, ShortRowsArePadded) {
  Table t("x", {"a", "b", "c"});
  t.add_row({"1"});
  EXPECT_NO_THROW(t.to_string());
}

// --------------------------------------------------------- PageBuffer ----

std::size_t page_bytes() { return static_cast<std::size_t>(sysconf(_SC_PAGESIZE)); }

/// Which pages of `buf` are resident, by mincore.
std::vector<bool> resident_pages(const PageBuffer& buf) {
  const std::size_t pages = (buf.size() + page_bytes() - 1) / page_bytes();
  std::vector<unsigned char> vec(pages);
  EXPECT_EQ(mincore(buf.data(), buf.size(), vec.data()), 0);
  std::vector<bool> out;
  for (const unsigned char v : vec) out.push_back((v & 1) != 0);
  return out;
}

TEST(PageBuffer, ReadsAsZeroAndTouchesNoPageUntilWritten) {
  const std::size_t page = page_bytes();
  PageBuffer buf(8 * page + 100);
  ASSERT_EQ(buf.size(), 8 * page + 100);
  EXPECT_EQ(resident_pages(buf), std::vector<bool>(9, false));

  buf.data()[3 * page + 5] = std::byte{0x5a};
  std::vector<bool> expect(9, false);
  expect[3] = true;
  EXPECT_EQ(resident_pages(buf), expect) << "one write made other pages resident";

  for (std::size_t i = 0; i < buf.size(); ++i) {
    if (i == 3 * page + 5) continue;
    ASSERT_EQ(buf.data()[i], std::byte{0}) << "byte " << i;
  }
}

TEST(PageBuffer, AssignZeroedKeepsTheMappingAndDropsItsPages) {
  const std::size_t page = page_bytes();
  PageBuffer buf(4 * page);
  std::byte* const base = buf.data();
  for (std::size_t i = 0; i < buf.size(); ++i) buf.data()[i] = std::byte{0xff};

  // Same size: same address (so registrations stay valid), zero again.
  buf.assign_zeroed(4 * page);
  EXPECT_EQ(buf.data(), base);
  EXPECT_EQ(resident_pages(buf), std::vector<bool>(4, false));
  for (std::size_t i = 0; i < buf.size(); ++i) ASSERT_EQ(buf.data()[i], std::byte{0});

  // Smaller fits the mapping too; larger maps afresh. Both read as zero.
  buf.data()[0] = std::byte{1};
  buf.assign_zeroed(page);
  EXPECT_EQ(buf.data(), base);
  EXPECT_EQ(buf.size(), page);
  EXPECT_EQ(buf.data()[0], std::byte{0});
  buf.assign_zeroed(16 * page);
  EXPECT_EQ(buf.size(), 16 * page);
  for (std::size_t i = 0; i < buf.size(); ++i) ASSERT_EQ(buf.data()[i], std::byte{0});
}

TEST(PageBuffer, MovesOwnershipOfTheMapping) {
  PageBuffer a(100);
  a.data()[7] = std::byte{7};
  std::byte* const base = a.data();
  PageBuffer b(std::move(a));
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(a.data(), nullptr);
  EXPECT_EQ(b.data(), base);
  EXPECT_EQ(b.data()[7], std::byte{7});
  PageBuffer c;
  c = std::move(b);
  EXPECT_EQ(c.span().data(), base);
  EXPECT_EQ(c.span().size(), 100u);
  EXPECT_TRUE(PageBuffer(0).empty());
}

#if defined(__SANITIZE_ADDRESS__)
TEST(PageBuffer, BytesPastTheEndArePoisoned) {
  // Page-exact and ragged sizes: the first byte past the buffer, up to and
  // including a guard page, is poisoned; the last byte of the buffer is not.
  for (const std::size_t size : {page_bytes(), 3 * page_bytes(), std::size_t{1000}}) {
    PageBuffer buf(size);
    EXPECT_FALSE(__asan_address_is_poisoned(buf.data() + size - 1)) << size;
    EXPECT_TRUE(__asan_address_is_poisoned(buf.data() + size)) << size;
  }
}
#endif

}  // namespace
}  // namespace rmc
