// Slab allocator, following memcached 1.4.x.
//
// Memory is divided into size classes growing by a configurable factor
// (memcached's -f, default 1.25). Each class allocates 1 MB pages from a
// global budget and chops them into equal chunks; freed chunks go to a
// per-class freelist. The design exists to avoid fragmentation under
// mixed item sizes — and, as §III notes, it is exactly why clients cannot
// cache item addresses: the server is free to reuse chunk memory at any
// time without telling anyone.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/page_buffer.hpp"

namespace rmc::mc {

struct SlabConfig {
  std::size_t memory_limit = 64 * 1024 * 1024;  ///< memcached -m (bytes)
};

class SlabAllocator {
 public:
  /// memcached's defaults for the class ladder.
  static constexpr std::size_t kPageSize = 1024 * 1024;  ///< per-class allocation unit
  static constexpr std::size_t kChunkMin = 96;           ///< smallest chunk
  static constexpr std::size_t kChunkMax = 1024 * 1024;  ///< largest item (memcached -I)
  static constexpr double kGrowthFactor = 1.25;          ///< memcached -f


  explicit SlabAllocator(SlabConfig config = {});
  SlabAllocator(const SlabAllocator&) = delete;
  SlabAllocator& operator=(const SlabAllocator&) = delete;

  /// Smallest class whose chunk size fits `size` bytes; no_resources when
  /// size exceeds kChunkMax.
  Result<std::uint8_t> class_for(std::size_t size) const;

  std::size_t chunk_size(std::uint8_t cls) const { return classes_[cls].chunk_size; }
  std::size_t class_count() const { return classes_.size(); }

  /// Allocate one chunk in `cls`. Fails with no_resources when the class
  /// freelist is empty and the memory budget is exhausted (the store then
  /// evicts from that class's LRU and retries).
  Result<std::byte*> allocate(std::uint8_t cls);

  /// Return a chunk to its class freelist.
  void free(std::uint8_t cls, std::byte* chunk);

  /// All pages ever allocated (so the server can register them for RDMA).
  /// Pages are stable for the allocator's lifetime.
  std::span<const std::pair<std::byte*, std::size_t>> pages() const { return pages_; }

  /// Newly added pages since the last call (incremental registration).
  std::vector<std::pair<std::byte*, std::size_t>> take_new_pages();

  std::size_t memory_allocated() const { return memory_allocated_; }
  std::uint64_t chunks_in_use(std::uint8_t cls) const { return classes_[cls].in_use; }

 private:
  struct SizeClass {
    std::size_t chunk_size = 0;
    std::vector<std::byte*> freelist;
    std::uint64_t in_use = 0;
  };

  SlabConfig config_;
  std::vector<SizeClass> classes_;
  /// The whole budget, reserved as one page-backed mapping and carved into
  /// pages in order, so a chunk costs memory only once written. One
  /// mapping per slab, not one per page: a mapping per page cost rmcbench's
  /// slab-bound rpc-large-writes workload about a fifth of its host rate.
  PageBuffer memory_;
  std::vector<std::pair<std::byte*, std::size_t>> pages_;
  std::size_t new_pages_mark_ = 0;
  std::size_t memory_allocated_ = 0;
};

}  // namespace rmc::mc
