#include "common/page_buffer.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cstring>
#include <new>
#include <utility>

#if defined(__SANITIZE_ADDRESS__)
#define RMC_PAGE_BUFFER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define RMC_PAGE_BUFFER_ASAN 1
#endif
#endif

#ifdef RMC_PAGE_BUFFER_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace rmc {

namespace {

std::size_t page_size() {
  static const auto size = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return size;
}

/// Whole pages for `size` bytes, plus the guard page under ASan.
std::size_t mapped_bytes(std::size_t size) {
  const std::size_t page = page_size();
  std::size_t bytes = (size + page - 1) / page * page;
#ifdef RMC_PAGE_BUFFER_ASAN
  bytes += page;
#endif
  return bytes;
}

/// Bytes of a `mapped`-byte mapping that a buffer may use.
std::size_t usable_bytes(std::size_t mapped) {
#ifdef RMC_PAGE_BUFFER_ASAN
  return mapped == 0 ? 0 : mapped - page_size();
#else
  return mapped;
#endif
}

/// Poison everything mapped past the buffer's last byte.
void poison_tail([[maybe_unused]] std::byte* data, [[maybe_unused]] std::size_t size,
                 [[maybe_unused]] std::size_t mapped) {
#ifdef RMC_PAGE_BUFFER_ASAN
  ASAN_UNPOISON_MEMORY_REGION(data, size);
  ASAN_POISON_MEMORY_REGION(data + size, mapped - size);
#endif
}

}  // namespace

PageBuffer::PageBuffer(std::size_t size) {
  if (size == 0) return;
  const std::size_t mapped = mapped_bytes(size);
  // A reservation: pages are committed one by one as they are written.
  void* p = mmap(nullptr, mapped, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc{};
  // Best effort: without it one write may make a whole 2 MiB huge page
  // resident, which only inflates residency, never changes contents.
  (void)madvise(p, mapped, MADV_NOHUGEPAGE);
  data_ = static_cast<std::byte*>(p);
  size_ = size;
  mapped_ = mapped;
  poison_tail(data_, size_, mapped_);
}

PageBuffer::PageBuffer(PageBuffer&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      mapped_(std::exchange(other.mapped_, 0)) {}

PageBuffer& PageBuffer::operator=(PageBuffer&& other) noexcept {
  if (this != &other) {
    release();
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
    mapped_ = std::exchange(other.mapped_, 0);
  }
  return *this;
}

PageBuffer::~PageBuffer() { release(); }

void PageBuffer::assign_zeroed(std::size_t size) {
  if (data_ == nullptr || size > usable_bytes(mapped_)) {
    *this = PageBuffer(size);
    return;
  }
  size_ = size;
  poison_tail(data_, size_, mapped_);
  // Private anonymous pages read as zero again after MADV_DONTNEED.
  if (madvise(data_, mapped_, MADV_DONTNEED) != 0) std::memset(data_, 0, size_);
}

void PageBuffer::release() {
  if (data_ == nullptr) return;
#ifdef RMC_PAGE_BUFFER_ASAN
  ASAN_UNPOISON_MEMORY_REGION(data_, mapped_);
#endif
  munmap(data_, mapped_);
  data_ = nullptr;
  size_ = 0;
  mapped_ = 0;
}

}  // namespace rmc
