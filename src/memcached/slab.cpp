#include "memcached/slab.hpp"

#include <cassert>

namespace rmc::mc {

SlabAllocator::SlabAllocator(SlabConfig config)
    : config_(config), memory_(config.memory_limit) {
  // Build the class table: kChunkMin, then *= kGrowthFactor (rounded up
  // to 8-byte alignment), capped by kChunkMax — the memcached -f ladder.
  double size = static_cast<double>(kChunkMin);
  while (true) {
    auto chunk = static_cast<std::size_t>(size);
    chunk = (chunk + 7) & ~std::size_t{7};
    if (chunk >= kChunkMax) {
      classes_.push_back({kChunkMax, {}, 0});
      break;
    }
    classes_.push_back({chunk, {}, 0});
    size *= kGrowthFactor;
  }
  assert(classes_.size() < 256);
}

Result<std::uint8_t> SlabAllocator::class_for(std::size_t size) const {
  for (std::size_t i = 0; i < classes_.size(); ++i) {
    if (classes_[i].chunk_size >= size) return static_cast<std::uint8_t>(i);
  }
  return Errc::too_large;
}

Result<std::byte*> SlabAllocator::allocate(std::uint8_t cls) {
  SizeClass& sc = classes_[cls];
  if (sc.freelist.empty()) {
    // Grow the class by one page if the global budget allows.
    const std::size_t page = std::max(kPageSize, sc.chunk_size);
    if (memory_allocated_ + page > config_.memory_limit) return Errc::no_resources;
    std::byte* base = memory_.data() + memory_allocated_;
    pages_.emplace_back(base, page);
    memory_allocated_ += page;
    const std::size_t chunks = page / sc.chunk_size;
    sc.freelist.reserve(sc.freelist.size() + chunks);
    // Push in reverse so chunks hand out in address order.
    for (std::size_t i = chunks; i-- > 0;) {
      sc.freelist.push_back(base + i * sc.chunk_size);
    }
  }
  std::byte* chunk = sc.freelist.back();
  sc.freelist.pop_back();
  ++sc.in_use;
  return chunk;
}

void SlabAllocator::free(std::uint8_t cls, std::byte* chunk) {
  SizeClass& sc = classes_[cls];
  assert(sc.in_use > 0);
  --sc.in_use;
  sc.freelist.push_back(chunk);
}

std::vector<std::pair<std::byte*, std::size_t>> SlabAllocator::take_new_pages() {
  std::vector<std::pair<std::byte*, std::size_t>> out(pages_.begin() + new_pages_mark_,
                                                      pages_.end());
  new_pages_mark_ = pages_.size();
  return out;
}

}  // namespace rmc::mc
