#include "onesided/remote_getter.hpp"

#include <cstring>

#include "common/hash.hpp"
#include "ucr/endpoint.hpp"

namespace rmc::onesided {

namespace {

/// Torn-observation re-reads of the two-read sequence before a GET gives
/// up and falls back to RPC.
constexpr std::uint32_t kMaxTornRetries = 2;
/// Location hints cached per key. The cache is advisory only — a hinted
/// read must still fully verify — so the cap just bounds memory; the map
/// is cleared when it fills.
constexpr std::size_t kMaxHints = 4096;

}  // namespace

RemoteGetter::RemoteGetter(ucr::Runtime& runtime, sim::Time read_timeout)
    : runtime_(&runtime), read_timeout_(read_timeout),
      bootstrap_call_(runtime, kMsgBootstrap, kMsgBootstrapResp),
      read_counter_(runtime.make_counter()),
      reads_metric_(&obs::registry().counter("mc.oneside.reads")),
      fallbacks_metric_(&obs::registry().counter("mc.oneside.fallbacks")),
      torn_metric_(&obs::registry().counter("mc.oneside.torn_retries")) {}

std::uint32_t RemoteGetter::now_seconds() const {
  // Mirror of Server::advance_clock so both ends agree on expiry.
  return static_cast<std::uint32_t>(1 + runtime_->scheduler().now() / kNsPerSec);
}

sim::Task<Status> RemoteGetter::bootstrap(ucr::Endpoint& ep, sim::Time timeout) {
  if (ready()) co_return Status{};
  if (ep.state() != ucr::EpState::ready) co_return Errc::disconnected;

  auto reply = co_await bootstrap_call_.call(ep, {}, timeout);
  if (!reply.ok()) co_return reply.error();
  IndexDescriptor descriptor;
  if (reply->size() != IndexDescriptor::kWireSize) co_return Errc::protocol_error;
  // Everything but the struct's tail padding travels.
  std::memcpy(static_cast<void*>(&descriptor), reply->data(), IndexDescriptor::kWireSize);
  if (!descriptor.valid()) co_return Errc::protocol_error;

  // One landing zone for both reads: the bucket line up front, the record
  // behind it. Sized once from the descriptor and pre-registered so the
  // steady-state GET path never registers memory.
  const std::size_t bucket_bytes =
      static_cast<std::size_t>(descriptor.ways) * sizeof(BucketEntry);
  scratch_.assign_zeroed(bucket_bytes + descriptor.slot_size);
  runtime_->register_region(scratch_.span());
  descriptor_ = descriptor;
  co_return Status{};
}

sim::Task<bool> RemoteGetter::read(ucr::Endpoint& ep, std::span<std::byte> dst,
                                   const ucr::Runtime::RemoteMemory& window,
                                   std::uint32_t offset) {
  const std::uint64_t target = read_counter_->value() + 1;
  auto posted = runtime_->get(ep, dst, window, offset, read_counter_.get());
  if (!posted.ok()) co_return false;
  co_return co_await read_counter_->wait_geq(target, read_timeout_);
}

RemoteGetter::Verify RemoteGetter::verify_record(std::span<const std::byte> record,
                                                 std::string_view key,
                                                 std::uint32_t expected_version,
                                                 OneSidedHit& out) const {
  // A bucket entry pins the epoch exactly; a hinted read accepts whatever
  // stable epoch the frame carries. Odd is a retracted record, zero a
  // never-published slot.
  const std::uint32_t seq = expected_version != 0 ? expected_version : ucr::frame_seq(record);
  if (seq == 0 || (seq & 1u) != 0) return Verify::mismatch;
  RecordView rec;
  if (!open_record(record, seq, rec) || rec.key != key) return Verify::mismatch;
  // Fully verified. Expiry is the one post-verification miss: the record
  // is genuine but dead, and only the RPC path may reap it.
  if (rec.meta.exptime != 0 && rec.meta.exptime <= now_seconds()) return Verify::expired;
  out = OneSidedHit{.value = rec.value, .flags = rec.meta.flags, .cas = rec.meta.cas};
  return Verify::hit;
}

void RemoteGetter::remember_hint(const std::string& key, Hint hint) {
  if (hints_.size() >= kMaxHints && !hints_.contains(key)) hints_.clear();
  hints_[key] = hint;
}

sim::Task<Result<OneSidedHit>> RemoteGetter::try_get(ucr::Endpoint& ep,
                                                     std::string_view key) {
  reads_metric_->inc();
  if (!ready() || ep.state() != ucr::EpState::ready) {
    fallbacks_metric_->inc();
    co_return Errc::disconnected;
  }

  const std::uint32_t hash = hash_one_at_a_time(key);
  const std::uint32_t bucket = hash & (descriptor_.bucket_count - 1);
  const std::uint64_t want_tag = BucketEntry::make_tag(hash, key.size());
  const std::size_t bucket_bytes =
      static_cast<std::size_t>(descriptor_.ways) * sizeof(BucketEntry);
  const std::string key_owned(key);

  // Fast path: a key we have verified before is re-read at its hinted
  // slot in a single round trip. The record frame alone proves identity
  // and integrity, so the bucket line is only needed to (re)locate it; a
  // hint that fails verification is dropped and repaired below.
  if (auto it = hints_.find(key_owned); it != hints_.end()) {
    const Hint hint = it->second;
    if (hint.record_len <= descriptor_.slot_size &&
        hint.record_len >= record_size(key.size(), 0) &&
        static_cast<std::uint64_t>(hint.arena_offset) + hint.record_len <=
            descriptor_.arena.length) {
      auto record = scratch_.span().subspan(bucket_bytes, hint.record_len);
      if (!co_await read(ep, record, descriptor_.arena, hint.arena_offset)) {
        fallbacks_metric_->inc();
        co_return Errc::disconnected;
      }
      OneSidedHit hit;
      switch (verify_record(record, key, 0, hit)) {
        case Verify::hit:
          co_return hit;
        case Verify::expired:
          hints_.erase(key_owned);
          fallbacks_metric_->inc();
          co_return Errc::not_found;
        case Verify::mismatch:
          hints_.erase(key_owned);  // stale or racing a rewrite; relocate
          break;
      }
    } else {
      hints_.erase(it);
    }
  }

  for (std::uint32_t attempt = 0; attempt <= kMaxTornRetries; ++attempt) {
    if (attempt != 0) torn_metric_->inc();

    // Read 1: the bucket line.
    auto line = scratch_.span().first(bucket_bytes);
    if (!co_await read(ep, line, descriptor_.index,
                       static_cast<std::uint32_t>(bucket * bucket_bytes))) {
      fallbacks_metric_->inc();
      co_return Errc::disconnected;
    }

    BucketEntry entry;
    bool found = false;
    bool torn = false;
    for (std::uint32_t way = 0; way < descriptor_.ways; ++way) {
      BucketEntry e;
      std::memcpy(&e, line.data() + way * sizeof(BucketEntry), sizeof(e));
      if (!e.occupied()) continue;
      if (!e.self_consistent()) {
        // A half-written entry: can't even trust its tag, so we can't rule
        // out that it is our key. Re-read the line.
        torn = true;
        continue;
      }
      if (e.tag != want_tag) continue;
      entry = e;
      found = true;
      break;
    }
    if (!found) {
      if (torn) continue;
      break;  // verifiable miss: not published (absent/displaced/oversized)
    }

    // Entry sanity before trusting it as a read target. An odd version is
    // a retraction in progress; bad geometry means we raced a republish.
    if ((entry.version & 1u) != 0 || entry.record_len > descriptor_.slot_size ||
        entry.record_len < record_size(key.size(), 0) ||
        static_cast<std::uint64_t>(entry.arena_offset) + entry.record_len >
            descriptor_.arena.length) {
      continue;
    }

    // Read 2: the record.
    auto record = scratch_.span().subspan(bucket_bytes, entry.record_len);
    if (!co_await read(ep, record, descriptor_.arena, entry.arena_offset)) {
      fallbacks_metric_->inc();
      co_return Errc::disconnected;
    }

    OneSidedHit hit;
    switch (verify_record(record, key, entry.version, hit)) {
      case Verify::hit:
        remember_hint(key_owned, {entry.arena_offset, entry.record_len});
        co_return hit;
      case Verify::expired:
        remember_hint(key_owned, {entry.arena_offset, entry.record_len});
        goto fallback;  // genuine but dead; only the RPC path may reap it
      case Verify::mismatch:
        continue;  // raced a rewrite between the two reads
    }
  }

fallback:
  fallbacks_metric_->inc();
  co_return Errc::not_found;
}

}  // namespace rmc::onesided
