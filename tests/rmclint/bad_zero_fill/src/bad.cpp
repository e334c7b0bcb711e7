#include <cstddef>
#include <memory>
#include <vector>

namespace fx {
struct Arenas {
  std::vector<std::byte> ring_;
  std::unique_ptr<std::byte[]> page_;
  std::unique_ptr<std::byte[]> landing_;

  void build(std::size_t slots, std::size_t slot_size) {
    ring_.assign(slots * slot_size, std::byte{0});  // zeroes every page
    page_ = std::make_unique<std::byte[]>(slot_size);  // zeroes too
    landing_ = std::make_unique_for_overwrite<std::byte[]>(slots);  // recycled heap pages
  }
};
}  // namespace fx
