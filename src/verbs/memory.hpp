// Protection domain and memory regions.
//
// A MemoryRegion pins a span of the application's real memory and assigns
// it an (lkey, rkey) pair. One-sided operations in this layer move real
// bytes between registered regions — RDMA semantics are implemented, not
// approximated; only their *timing* comes from the fabric model.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>

#include "common/error.hpp"
#include "verbs/types.hpp"

namespace rmc::verbs {

class ProtectionDomain;

/// A registered region of application memory.
class MemoryRegion {
 public:
  MemoryRegion(ProtectionDomain& pd, std::span<std::byte> memory, MrKeys keys)
      : pd_(&pd), memory_(memory), keys_(keys) {}

  std::span<std::byte> memory() const { return memory_; }
  std::uint64_t addr() const { return reinterpret_cast<std::uint64_t>(memory_.data()); }
  std::size_t length() const { return memory_.size(); }
  std::uint32_t lkey() const { return keys_.lkey; }
  std::uint32_t rkey() const { return keys_.rkey; }

  /// True if [addr, addr+len) lies inside this region.
  bool contains(std::uint64_t a, std::size_t len) const {
    const std::uint64_t base = addr();
    return a >= base && len <= memory_.size() && a - base <= memory_.size() - len;
  }

 private:
  ProtectionDomain* pd_;
  std::span<std::byte> memory_;
  MrKeys keys_;
};

/// Groups memory regions under one HCA; validates keys for local and
/// remote access. Key values are never reused within a PD.
class ProtectionDomain {
 public:
  ProtectionDomain() = default;
  ProtectionDomain(const ProtectionDomain&) = delete;
  ProtectionDomain& operator=(const ProtectionDomain&) = delete;

  /// Register `memory`; the region stays valid until deregister_mr.
  /// (The time cost of registration is charged by Hca::reg_mr, which calls
  /// this — see hca.hpp.)
  MemoryRegion& register_mr(std::span<std::byte> memory) {
    const MrKeys keys{next_key_, next_key_ + 1};
    next_key_ += 2;
    auto mr = std::make_unique<MemoryRegion>(*this, memory, keys);
    MemoryRegion& ref = *mr;
    by_rkey_.emplace(keys.rkey, mr.get());
    regions_.emplace(keys.lkey, std::move(mr));
    return ref;
  }

  void deregister_mr(MemoryRegion& mr) {
    by_rkey_.erase(mr.rkey());
    regions_.erase(mr.lkey());
  }

  /// Validate a local buffer against an lkey. Returns the MR or an error.
  Result<MemoryRegion*> check_local(std::uint32_t lkey, std::span<const std::byte> buf) const {
    auto it = regions_.find(lkey);
    if (it == regions_.end()) return Errc::invalid_argument;
    if (!it->second->contains(reinterpret_cast<std::uint64_t>(buf.data()), buf.size()))
      return Errc::invalid_argument;
    return it->second.get();
  }

  /// Validate remote access (addr, len) under an rkey.
  Result<MemoryRegion*> check_remote(std::uint32_t rkey, std::uint64_t addr,
                                     std::size_t len) const {
    auto it = by_rkey_.find(rkey);
    if (it == by_rkey_.end()) return Errc::invalid_argument;
    if (!it->second->contains(addr, len)) return Errc::invalid_argument;
    return it->second;
  }

  std::size_t region_count() const { return regions_.size(); }

 private:
  std::unordered_map<std::uint32_t, std::unique_ptr<MemoryRegion>> regions_;  ///< by lkey
  std::unordered_map<std::uint32_t, MemoryRegion*> by_rkey_;
  std::uint32_t next_key_ = 0x1000;
};

}  // namespace rmc::verbs
