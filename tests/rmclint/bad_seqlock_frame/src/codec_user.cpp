// Fixture: seqlock-discipline reaches a file that sees the guarded types
// only through the shared frame codec header — it lives outside src/rfp/
// and src/onesided/ and includes no layout header.
#include "ucr/frame.hpp"

#include <cstdint>

namespace fx {

struct FrameHeader {
  std::uint32_t seq = 0;
  std::uint32_t body_len = 0;
  std::uint64_t checksum = 0;
};

// Not a blessed writer: restamping the epoch without the body checksum
// and tail lets a reader accept a torn frame.
void restamp(FrameHeader& hdr, std::uint32_t epoch) {
  hdr.seq = epoch;
}

}  // namespace fx
