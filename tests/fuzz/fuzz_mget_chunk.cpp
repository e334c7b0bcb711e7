// Fuzz harness for the multiget reply decoder (ucrp::read_mget_chunk and
// ucrp::split_mget_frame in memcached/ucr_proto.hpp) — the one reader of
// the multiget reply chunks a server writes, which the UCR client scatters
// on the RPC path and on the RFP rings alike. Properties checked on every
// input, beyond "does not crash":
//
//  1. No byte outside the input is read: the block and the values are
//     views of one exact copy of the input, and the decoder reports no
//     record the block does not hold.
//  2. Every value lies inside the values region, in record order and back
//     to back.
//  3. A record count larger than the records the block holds is rejected
//     before any record is reported.
//  4. A fuzz-chosen chunk, encoded and then decoded, round-trips its
//     header, records and values; split_mget_frame finds the same block
//     and values in the single-buffer form.
//
// Input layout: [u16 block length][block bytes][value bytes].
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <vector>

#include "memcached/ucr_proto.hpp"

// Unconditional check: the harness runs in Release trees where NDEBUG
// would compile assert() out.
#define FUZZ_REQUIRE(cond)                                                  \
  do {                                                                      \
    if (!(cond)) {                                                          \
      std::fprintf(stderr, "FUZZ FAILURE: %s at %s:%d\n", #cond, __FILE__,  \
                   __LINE__);                                               \
      std::abort();                                                         \
    }                                                                       \
  } while (0)

namespace {

namespace ucrp = rmc::mc::ucrp;
constexpr std::size_t kHeader = ucrp::MgetChunkHeader::kSize;
constexpr std::size_t kRecord = ucrp::MgetRecord::kSize;

bool same_bytes(const ucrp::MgetChunkHeader& a, const ucrp::MgetChunkHeader& b) {
  std::byte wire_a[kHeader];
  std::byte wire_b[kHeader];
  a.encode(wire_a);
  b.encode(wire_b);
  return std::memcmp(wire_a, wire_b, kHeader) == 0;
}

bool same_bytes(const ucrp::MgetRecord& a, const ucrp::MgetRecord& b) {
  std::byte wire_a[kRecord];
  std::byte wire_b[kRecord];
  a.encode(wire_a);
  b.encode(wire_b);
  return std::memcmp(wire_a, wire_b, kRecord) == 0;
}

/// Properties 1-3: arbitrary bytes as a chunk.
void check_decode(std::span<const std::byte> block, std::span<const std::byte> values) {
  const std::size_t present = block.size() < kHeader ? 0 : (block.size() - kHeader) / kRecord;
  ucrp::MgetChunkHeader header{};
  if (block.size() >= kHeader) header = ucrp::MgetChunkHeader::decode(block.data());
  std::size_t seen = 0;
  const std::byte* next_value = values.data();
  const auto chunk = ucrp::read_mget_chunk(
      block, values,
      [&](std::size_t index, const ucrp::MgetRecord& rec, std::span<const std::byte> value) {
        FUZZ_REQUIRE(seen < present);
        FUZZ_REQUIRE(index == std::size_t{header.start_index} + seen);
        if (rec.status == ucrp::RStatus::value) {
          FUZZ_REQUIRE(value.size() == rec.value_len);
          FUZZ_REQUIRE(value.data() == next_value);
          FUZZ_REQUIRE(value.data() + value.size() <= values.data() + values.size());
          next_value += value.size();
        } else {
          FUZZ_REQUIRE(value.empty());
        }
        ++seen;
        return true;
      });
  if (block.size() < kHeader || header.record_count > present) {
    FUZZ_REQUIRE(!chunk && seen == 0);
    return;
  }
  if (chunk) {
    FUZZ_REQUIRE(same_bytes(*chunk, header));
    FUZZ_REQUIRE(seen == header.record_count);
  }
}

/// Property 4: a chunk built from the input's bytes, encoded and decoded.
void check_round_trip(const std::uint8_t* data, std::size_t size) {
  std::size_t at = 0;
  auto byte = [&] { return size == 0 ? std::uint8_t{0} : data[at++ % size]; };
  ucrp::MgetChunkHeader header;
  header.record_count = byte() % 17;
  header.start_index = byte();
  header.total_chunks = 1 + byte() % 4;
  header.total_keys = header.start_index + header.record_count;
  std::vector<ucrp::MgetRecord> records(header.record_count);
  std::vector<std::byte> block(kHeader + records.size() * kRecord);
  std::vector<std::byte> values;
  header.encode(block.data());
  for (std::size_t i = 0; i < records.size(); ++i) {
    ucrp::MgetRecord& rec = records[i];
    if (byte() % 2 == 0) {
      rec.status = ucrp::RStatus::value;
      rec.flags = byte();
      rec.cas = std::uint64_t{byte()} << 32 | byte();
      rec.value_len = byte() % 40;
      for (std::uint32_t v = 0; v < rec.value_len; ++v) values.push_back(std::byte{byte()});
    }
    rec.encode(block.data() + kHeader + i * kRecord);
  }

  std::size_t seen = 0;
  std::size_t off = 0;
  const auto chunk = ucrp::read_mget_chunk(
      block, values,
      [&](std::size_t index, const ucrp::MgetRecord& rec, std::span<const std::byte> value) {
        FUZZ_REQUIRE(seen < records.size());
        FUZZ_REQUIRE(index == std::size_t{header.start_index} + seen);
        FUZZ_REQUIRE(same_bytes(rec, records[seen]));
        const std::size_t len = rec.status == ucrp::RStatus::value ? rec.value_len : 0;
        FUZZ_REQUIRE(value.size() == len);
        FUZZ_REQUIRE(len == 0 || std::memcmp(value.data(), values.data() + off, len) == 0);
        off += len;
        ++seen;
        return true;
      });
  FUZZ_REQUIRE(chunk && same_bytes(*chunk, header));
  FUZZ_REQUIRE(seen == records.size() && off == values.size());

  std::vector<std::byte> frame = block;
  frame.insert(frame.end(), values.begin(), values.end());
  std::span<const std::byte> frame_block;
  std::span<const std::byte> frame_values;
  FUZZ_REQUIRE(ucrp::split_mget_frame(frame, frame_block, frame_values));
  FUZZ_REQUIRE(frame_block.data() == frame.data() && frame_block.size() == block.size());
  FUZZ_REQUIRE(frame_values.data() == frame.data() + block.size());
  FUZZ_REQUIRE(frame_values.size() == values.size());
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  std::uint16_t block_len = 0;
  std::memcpy(&block_len, data, std::min(size, sizeof(block_len)));
  const std::size_t prefix = std::min(size, sizeof(block_len));
  // One exact copy: the block runs straight into the values, and the
  // values end where the allocation ends.
  const std::vector<std::byte> input(reinterpret_cast<const std::byte*>(data) + prefix,
                                     reinterpret_cast<const std::byte*>(data) + size);
  const std::size_t split = std::min<std::size_t>(block_len, input.size());
  const std::span<const std::byte> all(input);
  check_decode(all.first(split), all.subspan(split));

  // The single-buffer form splits where the decoder reads.
  std::span<const std::byte> block;
  std::span<const std::byte> values;
  if (ucrp::split_mget_frame(all, block, values)) {
    FUZZ_REQUIRE(block.data() == all.data() && values.data() == all.data() + block.size());
    FUZZ_REQUIRE(block.size() + values.size() == all.size());
    check_decode(block, values);
  }

  check_round_trip(data, size);
  return 0;
}

#include "standalone_driver.hpp"
