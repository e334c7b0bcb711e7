// Client side of the one-sided GET subsystem.
//
// A RemoteGetter bootstraps the server's IndexDescriptor with one
// ucr::BootstrapCall, then serves GETs by RDMA Read. The cold path is two
// reads — the bucket line keyed by the store's hash, then the record slot
// the matching entry names. Because the record is a self-verifying frame
// (seq pair, checksum over metadata, key and value), a verified hit also
// yields a location hint, and steady-state GETs re-read the record
// directly in ONE round trip; a hint that no longer verifies is dropped
// and the two-read path repairs it. Every read is re-verified (entry
// self-check, frame, key bytes) before a value is surfaced; any mismatch
// is a torn observation and is retried a bounded number of times before
// the caller falls back to the RPC GET.
//
// The getter is deliberately non-authoritative: a miss here only means
// "not published" (absent, oversized, or displaced from a full bucket),
// so callers always fall back to the RPC path rather than reporting
// not_found from a one-sided miss.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/error.hpp"
#include "common/page_buffer.hpp"
#include "obs/metrics.hpp"
#include "onesided/layout.hpp"
#include "simnet/event.hpp"
#include "ucr/bootstrap.hpp"
#include "ucr/runtime.hpp"

namespace rmc::onesided {

/// A verified one-sided GET hit. `value` points into the getter's scratch
/// buffer and stays valid until the next try_get on the same getter.
struct OneSidedHit {
  std::span<const std::byte> value;
  std::uint32_t flags = 0;
  std::uint64_t cas = 0;
};

class RemoteGetter {
 public:
  /// `read_timeout` bounds each RDMA Read's completion wait (endpoint
  /// failures wake waiters earlier via the runtime's fail-fast path).
  RemoteGetter(ucr::Runtime& runtime, sim::Time read_timeout);
  RemoteGetter(const RemoteGetter&) = delete;
  RemoteGetter& operator=(const RemoteGetter&) = delete;

  /// The one RPC: fetch the index descriptor over `ep`. Idempotent;
  /// returns immediately when already bootstrapped. Only a successful call
  /// makes the getter ready.
  sim::Task<Status> bootstrap(ucr::Endpoint& ep, sim::Time timeout = 1 * kNsPerSec);

  bool ready() const { return descriptor_.valid(); }
  const IndexDescriptor& descriptor() const { return descriptor_; }

  /// Attempt a one-sided GET. Any non-ok result means "use the RPC path":
  ///   not_found     — no verifiable published entry (miss/displaced/torn
  ///                   beyond the retry budget/expired)
  ///   too_large     — published record exceeds the scratch capacity
  ///   disconnected  — endpoint failed or a read never completed
  /// mc.oneside.reads counts attempts, mc.oneside.torn_retries counts
  /// re-reads after failed verification, mc.oneside.fallbacks counts
  /// non-ok returns.
  sim::Task<Result<OneSidedHit>> try_get(ucr::Endpoint& ep, std::string_view key);

 private:
  /// Where a key's record lived the last time it verified. Advisory:
  /// the hinted read re-verifies everything, so a stale hint costs one
  /// wasted read, never a wrong value.
  struct Hint {
    std::uint32_t arena_offset = 0;
    std::uint32_t record_len = 0;
  };
  enum class Verify { hit, expired, mismatch };

  /// One RDMA Read + wait. False = failed/timed out (endpoint trouble).
  sim::Task<bool> read(ucr::Endpoint& ep, std::span<std::byte> dst,
                       const ucr::Runtime::RemoteMemory& window, std::uint32_t offset);
  /// Full record verification: the frame at an even seq
  /// (`expected_version` pins it, 0 accepts any even seq), the exact
  /// framed size, the embedded key, expiry. On `hit`, `out` points into
  /// the record bytes.
  Verify verify_record(std::span<const std::byte> record, std::string_view key,
                       std::uint32_t expected_version, OneSidedHit& out) const;
  void remember_hint(const std::string& key, Hint hint);
  /// Current cache-clock seconds, mirroring the server's advance_clock.
  std::uint32_t now_seconds() const;

  ucr::Runtime* runtime_;
  sim::Time read_timeout_;
  ucr::BootstrapCall bootstrap_call_;
  IndexDescriptor descriptor_{};

  PageBuffer scratch_;  ///< bucket line + record landing zone
  std::unique_ptr<sim::Counter> read_counter_;
  std::unordered_map<std::string, Hint> hints_;  ///< key -> last-verified slot

  obs::Counter* reads_metric_;
  obs::Counter* fallbacks_metric_;
  obs::Counter* torn_metric_;
};

}  // namespace rmc::onesided
