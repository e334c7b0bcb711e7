#include "onesided/publisher.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "common/hash.hpp"
#include "simnet/fabric.hpp"

namespace rmc::onesided {

namespace {

/// CPU cost of publishing, billed to the server host asynchronously (the
/// copy into the exposed arena is real work the server pays on every SET
/// when the feature is on).
constexpr sim::Time kPublishBaseNs = 150;
constexpr double kPublishNsPerByte = 0.10;

std::uint32_t round_up_pow2(std::uint32_t v) {
  std::uint32_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

Publisher::Publisher(ucr::Runtime& runtime, sim::Host& host, mc::ItemStore& store,
                     PublisherConfig config)
    : runtime_(&runtime), host_(&host), store_(&store), config_(config),
      publishes_metric_(&obs::registry().counter("mc.oneside.publishes")),
      retracts_metric_(&obs::registry().counter("mc.oneside.retracts")) {
  config_.bucket_count = round_up_pow2(std::max(1u, config_.bucket_count));
  config_.ways = std::max(1u, config_.ways);
  config_.slot_size = std::max<std::uint32_t>(
      config_.slot_size, static_cast<std::uint32_t>(record_size(1, 0)));

  const std::size_t slot_count =
      static_cast<std::size_t>(config_.bucket_count) * config_.ways;
  index_ = PageBuffer(slot_count * sizeof(BucketEntry));
  arena_ = PageBuffer(slot_count * config_.slot_size);
  slots_.resize(slot_count);
  victim_rr_.assign(config_.bucket_count, 0);

  descriptor_.index = runtime_->expose_memory(index_.span());
  descriptor_.arena = runtime_->expose_memory(arena_.span());
  descriptor_.bucket_count = config_.bucket_count;
  descriptor_.ways = config_.ways;
  descriptor_.slot_size = config_.slot_size;

  // Bootstrap: one eager AM round trip handing the descriptor out.
  ucr::serve_bootstrap(*runtime_, kMsgBootstrap, kMsgBootstrapResp,
                       [this](ucr::Endpoint&, std::span<const std::byte>,
                              std::span<std::byte> reply) {
                         std::memcpy(reply.data(), &descriptor_, IndexDescriptor::kWireSize);
                         return IndexDescriptor::kWireSize;
                       });

  store_->set_listener(this);
}

Publisher::~Publisher() { store_->set_listener(nullptr); }

std::uint32_t Publisher::bucket_of(std::string_view key) const {
  return hash_one_at_a_time(key) & (config_.bucket_count - 1);
}

BucketEntry* Publisher::entry_at(std::uint32_t slot) {
  return reinterpret_cast<BucketEntry*>(index_.data() + slot * sizeof(BucketEntry));
}

std::byte* Publisher::record_at(std::uint32_t slot) {
  return arena_.data() + static_cast<std::size_t>(slot) * config_.slot_size;
}

std::uint32_t Publisher::pick_slot(std::uint32_t bucket, std::string_view key) {
  const std::uint32_t base = bucket * config_.ways;
  std::uint32_t free_way = config_.ways;
  for (std::uint32_t way = 0; way < config_.ways; ++way) {
    const SlotState& s = slots_[base + way];
    if (s.key == key) return base + way;
    if (s.key.empty() && free_way == config_.ways) free_way = way;
  }
  if (free_way != config_.ways) return base + free_way;
  // Bucket full: evict a way round-robin. The displaced key simply loses
  // its published entry — its RPC path still serves it.
  const std::uint32_t victim = victim_rr_[bucket]++ % config_.ways;
  return base + victim;
}

void Publisher::on_item_linked(const mc::ItemHeader* item) {
  const std::uint32_t bucket = bucket_of(item->key());
  if (record_size(item->key_len, item->value_len) > config_.slot_size) {
    // Oversized values are never published; retract any stale entry for
    // this key so readers fall back instead of seeing the old value.
    ++skipped_oversize_;
    on_item_unlinked(item);
    return;
  }
  const std::uint32_t slot = pick_slot(bucket, item->key());
  if (!slots_[slot].key.empty() && slots_[slot].key != item->key()) retract(slot);
  publish(slot, item);
}

void Publisher::on_item_unlinked(const mc::ItemHeader* item) {
  const std::uint32_t base = bucket_of(item->key()) * config_.ways;
  for (std::uint32_t way = 0; way < config_.ways; ++way) {
    if (slots_[base + way].key == item->key()) {
      retract(base + way);
      return;
    }
  }
}

void Publisher::on_store_flushed() {
  for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
    if (!slots_[slot].key.empty()) retract(slot);
  }
}

void Publisher::publish(std::uint32_t slot, const mc::ItemHeader* item) {
  SlotState& state = slots_[slot];
  // Fresh even epoch strictly above every version a reader may still hold
  // for this slot. (In a threaded implementation the odd intermediate
  // would be written first; the simulator executes this block atomically,
  // so the observable race is a reader spanning two publishes — caught by
  // the frame's seq pair + checksum either way.)
  const std::uint32_t version = (state.version | 1u) + 1u;
  state.version = version;
  state.key.assign(item->key());

  const std::span<std::byte> record{record_at(slot), config_.slot_size};
  const std::span<std::byte> body = ucr::frame_body(record);
  const RecordMeta meta{.key_len = item->key_len,
                        .value_len = item->value_len,
                        .flags = item->flags,
                        .exptime = item->exptime,
                        .cas = item->cas};
  std::memcpy(body.data(), &meta, sizeof(meta));
  std::memcpy(body.data() + sizeof(meta), item->key_data(), item->key_len);
  std::memcpy(body.data() + sizeof(meta) + item->key_len, item->value_data(),
              item->value_len);
  const auto body_len =
      static_cast<std::uint32_t>(sizeof(meta) + item->key_len + item->value_len);
  ucr::seal_frame(record, version, body_len);

  BucketEntry entry;
  entry.tag = BucketEntry::make_tag(hash_one_at_a_time(item->key()), item->key_len);
  entry.version = version;
  entry.arena_offset = slot * config_.slot_size;
  entry.record_len = static_cast<std::uint32_t>(ucr::framed_size(body_len));
  entry.seal();
  std::memcpy(entry_at(slot), &entry, sizeof(entry));

  ++published_;
  publishes_metric_->inc();
  charge(ucr::FrameHeader::kSize + body_len);
}

void Publisher::retract(std::uint32_t slot) {
  SlotState& state = slots_[slot];
  // Odd frame seq: readers holding the old bucket line (or a hint) see a
  // seq mismatch on the record and fall back instead of serving the dead
  // value.
  state.version |= 1u;
  state.key.clear();
  std::memcpy(record_at(slot), &state.version, sizeof(state.version));
  BucketEntry cleared;  // tag 0 = unoccupied; check of a zero entry differs too
  std::memcpy(entry_at(slot), &cleared, sizeof(cleared));

  ++retracted_;
  retracts_metric_->inc();
  charge(sizeof(BucketEntry));
}

void Publisher::charge(std::size_t bytes) {
  pending_cost_ += kPublishBaseNs +
                   static_cast<sim::Time>(static_cast<double>(bytes) * kPublishNsPerByte);
  if (!charge_armed_) {
    charge_armed_ = true;
    runtime_->scheduler().spawn(charge_loop());
  }
}

sim::Task<> Publisher::charge_loop() {
  // Drain the accumulated publish cost on the server CPU. Listener hooks
  // run synchronously inside store mutations (not coroutines), so the
  // cost is billed here, contending with the workers like the real memcpy
  // would.
  while (pending_cost_ != 0) {
    const sim::Time cost = pending_cost_;
    pending_cost_ = 0;
    co_await host_->cpu().consume(cost);
  }
  charge_armed_ = false;
}

}  // namespace rmc::onesided
