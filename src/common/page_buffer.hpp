// PageBuffer: a byte buffer backed by its own anonymous mapping.
//
// Every buffer the UCR stack registers with a simulated HCA or exposes to
// remote peers is one of these: the runtime's receive and send arenas, a
// client connection's landing arena, the one-sided index and record arena,
// the RFP rings and staging, and the slab's memory. These are sized for the
// worst case (thousands of receive slots, megabytes of landing space), and
// a run writes a small part of them. Fresh pages read as zero and stay
// untouched, and so cost no memory, until the program writes them.
// Transparent huge pages are off for the mapping, so residency grows a
// 4 KiB page at a time, not 2 MiB.
//
// A heap buffer can promise neither. Zero-filling one touches every page,
// and an uninitialised one (make_unique_for_overwrite, calloc) may sit on
// pages that an earlier testbed in the same process already touched.
//
// Under AddressSanitizer one extra page is mapped and, with the slack
// behind the last byte, poisoned: adjacent anonymous mappings merge, so
// without it an overrun would land silently in the next buffer.
#pragma once

#include <cstddef>
#include <span>

namespace rmc {

class PageBuffer {
 public:
  PageBuffer() = default;
  /// `size` bytes that read as zero; no page is resident until written.
  explicit PageBuffer(std::size_t size);
  PageBuffer(PageBuffer&& other) noexcept;
  PageBuffer& operator=(PageBuffer&& other) noexcept;
  PageBuffer(const PageBuffer&) = delete;
  PageBuffer& operator=(const PageBuffer&) = delete;
  ~PageBuffer();

  std::byte* data() const { return data_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::span<std::byte> span() const { return {data_, size_}; }

  /// Make the buffer `size` bytes that all read as zero, as
  /// vector::assign(size, std::byte{0}) would, without writing them. A
  /// mapping large enough for `size` is kept, and so are its address and
  /// every registration of it; its pages go back to the OS. A larger size
  /// maps afresh.
  void assign_zeroed(std::size_t size);

 private:
  void release();

  std::byte* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t mapped_ = 0;  ///< bytes mapped at data_, a whole number of pages
};

}  // namespace rmc
