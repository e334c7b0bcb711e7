// SlotMap: stable uint64 handles over a reusable slot array.
//
// The verbs and UCR layers key every in-flight operation (pending sends,
// RDMA reads, client requests) by a token that crosses the simulated wire
// and comes back in the matching ack. std::unordered_map churns nodes for
// each of those — one malloc/free per message. A slot map keeps the
// entries in a vector that only grows, recycles slots through a free
// list, and guards against stale handles with a per-slot generation
// folded into the key, so steady-state insert/erase never allocates.
//
// Keys are (index << 32) | generation with generation >= 1, so a valid
// key is never zero and survives as an opaque uint64 on the wire.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace rmc {

template <typename T>
class SlotMap {
 public:
  using Key = std::uint64_t;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// The slot a key names. Slots are dense from 0 and recycled through the
  /// free list, so a caller may keep side storage per slot: it is reused
  /// with the slot and never shared by two live entries.
  static std::uint32_t slot(Key key) { return static_cast<std::uint32_t>(key >> 32); }

  template <typename... Args>
  Key emplace(Args&&... args) {
    std::uint32_t index;
    if (!free_.empty()) {
      index = free_.back();
      free_.pop_back();
    } else {
      index = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    Slot& s = slots_[index];
    ::new (static_cast<void*>(&s.storage)) T(std::forward<Args>(args)...);
    s.occupied = true;
    ++size_;
    return (static_cast<Key>(index) << 32) | s.generation;
  }

  /// nullptr when the key is stale or was never issued. Pointers are
  /// invalidated by any later emplace() (vector growth) — re-lookup after
  /// suspension points, exactly as with an unordered_map under rehash.
  T* get(Key key) {
    const std::uint32_t index = slot(key);
    if (index >= slots_.size()) return nullptr;
    Slot& s = slots_[index];
    if (!s.occupied || s.generation != static_cast<std::uint32_t>(key)) return nullptr;
    return reinterpret_cast<T*>(&s.storage);
  }

  bool erase(Key key) {
    const std::uint32_t index = slot(key);
    if (index >= slots_.size()) return false;
    Slot& s = slots_[index];
    if (!s.occupied || s.generation != static_cast<std::uint32_t>(key)) return false;
    reinterpret_cast<T*>(&s.storage)->~T();
    s.occupied = false;
    ++s.generation;
    if (s.generation == 0) s.generation = 1;  // wrapped: keep keys nonzero
    free_.push_back(index);
    --size_;
    return true;
  }

  /// Visit every live entry as fn(key, value). Erasing the entry being
  /// visited (or any other) from inside fn is allowed; inserting is not.
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (std::uint32_t i = 0; i < slots_.size(); ++i) {
      Slot& s = slots_[i];
      if (!s.occupied) continue;
      fn((static_cast<Key>(i) << 32) | s.generation, *reinterpret_cast<T*>(&s.storage));
    }
  }

  ~SlotMap() {
    for (Slot& s : slots_) {
      if (s.occupied) reinterpret_cast<T*>(&s.storage)->~T();
    }
  }

  SlotMap() = default;
  SlotMap(const SlotMap&) = delete;
  SlotMap& operator=(const SlotMap&) = delete;

 private:
  struct Slot {
    alignas(T) unsigned char storage[sizeof(T)];
    std::uint32_t generation = 1;
    bool occupied = false;

    Slot() = default;
    // Vector growth must relocate a live T properly, not memcpy its bytes.
    Slot(Slot&& o) noexcept : generation(o.generation), occupied(o.occupied) {
      if (occupied) {
        T* from = reinterpret_cast<T*>(&o.storage);
        ::new (static_cast<void*>(&storage)) T(std::move(*from));
        from->~T();
        o.occupied = false;
      }
    }
    Slot& operator=(Slot&&) = delete;
    ~Slot() = default;  // SlotMap's dtor destroys any live T
  };

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::size_t size_ = 0;
};

}  // namespace rmc
