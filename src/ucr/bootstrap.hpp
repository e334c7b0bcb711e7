// Bootstrap call: the one active-message round trip in which a bypass
// client learns the memory windows a server exposed (§IV-B: a peer names
// a window to another inside an AM header). The one-sided GET index
// (DESIGN.md §9) and the RFP rings (§16) both start this way.
//
// Wire format, the same for every user:
//   request  u64 cookie | u64 reply counter | body
//   reply    body | u64 cookie
// The server answers with the caller's exported counter as the reply's
// target counter, so UCR fires it after the reply handler has copied the
// body out. The cookie routes the reply to its BootstrapCall: the
// endpoint's user_data belongs to the connection layer above.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "simnet/event.hpp"
#include "simnet/task.hpp"
#include "ucr/runtime.hpp"

namespace rmc::ucr {

/// Bytes the call puts in front of the request body (cookie + counter).
inline constexpr std::size_t kBootstrapRequestPrefix = 16;
/// Bytes the server appends to the reply body (the echoed cookie).
inline constexpr std::size_t kBootstrapReplySuffix = 8;
/// Largest request or reply body either side frames.
inline constexpr std::size_t kMaxBootstrapBody = 64;

class BootstrapCall {
 public:
  /// Registers the `reply_id` handler on `runtime` (idempotent: the
  /// handler resolves its call through the cookie alone).
  BootstrapCall(Runtime& runtime, std::uint16_t request_id, std::uint16_t reply_id);
  ~BootstrapCall();
  BootstrapCall(const BootstrapCall&) = delete;
  BootstrapCall& operator=(const BootstrapCall&) = delete;

  /// Send `body` over `ep` and wait up to `timeout` for the reply. On ok
  /// the span is the reply body, valid until the next call. Each call
  /// exports a fresh reply counter and retires the one before it, so the
  /// reply to a call that timed out wakes nothing. One cookie per object
  /// is enough because RC delivers replies in order: a straggler always
  /// lands before the reply of the call that replaced it.
  sim::Task<Result<std::span<const std::byte>>> call(Endpoint& ep,
                                                     std::span<const std::byte> body,
                                                     sim::Time timeout);

 private:
  static void on_reply(std::span<const std::byte> header);

  Runtime* runtime_;
  std::uint16_t request_id_;
  std::uint64_t cookie_;
  std::unique_ptr<sim::Counter> reply_counter_;  ///< fired by the current call's reply
  CounterRef reply_ref_{};
  std::vector<std::byte> reply_;  ///< last body that carried our cookie
};

/// Server half: `serve` writes the reply body for one request body into
/// `reply` (kMaxBootstrapBody bytes) and returns its length.
using BootstrapServer = std::function<std::size_t(
    Endpoint& ep, std::span<const std::byte> request, std::span<std::byte> reply)>;

/// Answer every `request_id` AM on `runtime` with a `reply_id` AM.
void serve_bootstrap(Runtime& runtime, std::uint16_t request_id, std::uint16_t reply_id,
                     BootstrapServer serve);

}  // namespace rmc::ucr
