#include <array>
#include <cstddef>
#include <cstring>
#include <vector>

namespace fx {
struct Arenas {
  std::array<std::byte, 64> header_{};  // compile-time size: fine
  std::vector<std::byte> scratch_;
  std::vector<int> counters_;

  void build(std::size_t n, const std::byte* src) {
    counters_.assign(n, 0);               // not a byte buffer
    scratch_.assign(src, src + n);        // a copy, not a fill
    std::memset(header_.data(), 0, header_.size());
  }
};
}  // namespace fx
