// RFP server-bypass RPC wire layout (DESIGN.md §16).
//
// RFP (remote fetch paradigm) inverts the active-message RPC: the client
// RDMA-writes a framed request into a server-polled per-client ring, the
// server executes it and RDMA-writes a framed response into the client's
// response arena, and the client polls *locally*. Neither direction posts
// a SEND or consumes a receive buffer, so the server's CQ wake-up — AM
// dispatch, worker hand-off, reply post — leaves the critical path for
// every command, not just GET (Su et al., PAPERS.md).
//
// Both directions use the ucr seqlock frame (ucr/frame.hpp): a slot is
// consumed only when its seq equals the consumer's expected epoch for that
// slot and the frame verifies; a torn frame (an RDMA write still landing)
// is simply polled again. Slot epochs advance in lockstep on both sides
// (request use N and its response both carry seq N), so no clearing writes
// are ever needed: reuse makes old frames unreadable by construction.
//
// Request bodies reuse the ucr_proto.hpp op formats verbatim:
//   ucrp::RequestHeader | key bytes | inline value bytes (storage ops)
// and for Op::mget the packed key block follows the header in place of
// key+value. Response bodies are ucrp::ResponseHeader | value bytes, or
// for mget ucrp::ResponseHeader | MgetChunkHeader + records + values,
// repeated chunk by chunk back to back.
#pragma once

#include <cstddef>
#include <cstdint>

#include "ucr/bootstrap.hpp"
#include "ucr/frame.hpp"
#include "ucr/runtime.hpp"

namespace rmc::rfp {

/// Bootstrap + wake AM ids (the only active messages RFP ever sends).
inline constexpr std::uint16_t kMsgRfpBootstrap = 0x6d20;
inline constexpr std::uint16_t kMsgRfpBootstrapResp = 0x6d21;
/// One-way nudge re-arming a parked server poll loop (no reply).
inline constexpr std::uint16_t kMsgRfpWake = 0x6d22;
/// The wake AM's body: zero bytes the server ignores, kept because its
/// size is part of the modeled wire cost.
inline constexpr std::size_t kWakeBodySize = 8;

/// Bootstrap request body: the client proposes a ring geometry and ships
/// the window of its response arena (slot i of the request ring answers
/// into slot i of the response arena — same epoch, same index).
struct RingProposal {
  ucr::Runtime::RemoteMemory response_ring;  ///< client's exposed response arena
  std::uint32_t slot_count = 0;
  std::uint32_t slot_size = 0;
};

/// Bootstrap reply body: where the server's request ring lives (the
/// geometry may be clamped below the client's proposal) plus the park
/// threshold so the client knows when a wake AM is needed before the next
/// request. All zero = unusable proposal, stay on classic RPC.
struct RingDescriptor {
  ucr::Runtime::RemoteMemory request_ring;
  std::uint32_t slot_count = 0;
  std::uint32_t slot_size = 0;
  std::uint64_t park_after_ns = 0;  ///< server poll loop parks after this idle

  bool valid() const {
    return slot_count != 0 && slot_size != 0 && ucr::body_capacity(slot_size) != 0;
  }
};

// Bootstrap wire sizes: a 40 B request and a 40 B reply.
static_assert(ucr::kBootstrapRequestPrefix + sizeof(RingProposal) == 40);
static_assert(sizeof(RingDescriptor) + ucr::kBootstrapReplySuffix == 40);

}  // namespace rmc::rfp
