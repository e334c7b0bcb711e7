// Server side of the one-sided GET subsystem: the index publisher.
//
// A Publisher owns the two RDMA-exposed regions of layout.hpp (bucket
// array + record arena), listens to the ItemStore's mutation events, and
// keeps the published view consistent under a per-slot epoch scheme:
//
//  * publish  — on link (SET/commit, in-place arith/touch rewrites): seal
//    the item's metadata+key+value into the slot's record frame under a
//    fresh even epoch, then seal the bucket entry with that epoch.
//  * retract  — on unlink (delete/evict/expiry/replace) and on flush_all:
//    mark the record frame's seq odd (readers holding the old bucket line
//    now fail verification) and clear the entry.
//
// Readers never coordinate with the server; every transition is made safe
// purely by the frame seq/checksum discipline the client re-verifies.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "common/page_buffer.hpp"
#include "memcached/store.hpp"
#include "obs/metrics.hpp"
#include "onesided/layout.hpp"
#include "simnet/scheduler.hpp"
#include "ucr/runtime.hpp"

namespace rmc::onesided {

struct PublisherConfig {
  std::uint32_t bucket_count = 2048;  ///< power of two
  std::uint32_t ways = 4;             ///< entries (and arena slots) per bucket
  std::uint32_t slot_size = 4608;     ///< record slot bytes; larger values are not published
};

class Publisher final : public mc::StoreListener {
 public:
  /// Builds the regions, exposes them through `runtime`, serves the
  /// bootstrap call, and installs itself as `store`'s listener.
  /// `host` is the server host whose CPU pays the publish copies.
  Publisher(ucr::Runtime& runtime, sim::Host& host, mc::ItemStore& store,
            PublisherConfig config = {});
  ~Publisher() override;
  Publisher(const Publisher&) = delete;
  Publisher& operator=(const Publisher&) = delete;

  const IndexDescriptor& descriptor() const { return descriptor_; }
  const PublisherConfig& config() const { return config_; }

  // ------------------------------------------------------ StoreListener
  void on_item_linked(const mc::ItemHeader* item) override;
  void on_item_unlinked(const mc::ItemHeader* item) override;
  void on_store_flushed() override;

  // ------------------------------------------------------------- stats
  std::uint64_t published() const { return published_; }
  std::uint64_t retracted() const { return retracted_; }
  std::uint64_t skipped_oversize() const { return skipped_oversize_; }

 private:
  /// One (bucket, way) pair; slot index == entry index == arena slot.
  struct SlotState {
    std::string key;            ///< key currently published ("" = empty)
    std::uint32_t version = 0;  ///< epoch; even = stable, odd = retracted
  };

  std::uint32_t bucket_of(std::string_view key) const;
  BucketEntry* entry_at(std::uint32_t slot);
  std::byte* record_at(std::uint32_t slot);
  /// Way holding `key` in `bucket`, or the way to claim for it (empty
  /// first, else round-robin victim). Returns the global slot index.
  std::uint32_t pick_slot(std::uint32_t bucket, std::string_view key);
  void publish(std::uint32_t slot, const mc::ItemHeader* item);
  void retract(std::uint32_t slot);
  void charge(std::size_t bytes);
  sim::Task<> charge_loop();

  ucr::Runtime* runtime_;
  sim::Host* host_;
  mc::ItemStore* store_;
  PublisherConfig config_;

  // Page-backed: both read as zero, and a record slot or index line holds
  // memory only once something is published into it.
  PageBuffer index_;  ///< the exposed bucket array
  PageBuffer arena_;  ///< the exposed record arena
  std::vector<SlotState> slots_;
  std::vector<std::uint32_t> victim_rr_;  ///< per-bucket round-robin cursor
  IndexDescriptor descriptor_;

  sim::Time pending_cost_ = 0;  ///< accumulated publish CPU, drained by charge_loop
  bool charge_armed_ = false;

  std::uint64_t published_ = 0;
  std::uint64_t retracted_ = 0;
  std::uint64_t skipped_oversize_ = 0;

  obs::Counter* publishes_metric_;
  obs::Counter* retracts_metric_;
};

}  // namespace rmc::onesided
