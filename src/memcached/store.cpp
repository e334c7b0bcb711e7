#include "memcached/store.hpp"

#include <cassert>
#include <charconv>
#include <cstring>
#include <new>
#include <string>

#include "obs/metrics.hpp"

namespace rmc::mc {

namespace {
constexpr std::uint32_t kThirtyDays = 30 * 86400;
constexpr int kEvictionSearchDepth = 50;
constexpr std::size_t kHashPower = 16;   ///< initial 2^16 buckets (memcached -o hashpower)
constexpr std::size_t kMaxKeyLen = 250;  ///< memcached's KEY_MAX_LENGTH
}  // namespace

ItemStore::ItemStore(StoreConfig config)
    : config_(config), slabs_(config.slabs), table_(kHashPower) {
  lru_.resize(slabs_.class_count());
}

std::uint32_t ItemStore::absolute_exptime(std::uint32_t exptime) const {
  if (exptime == 0) return 0;
  if (exptime > kThirtyDays) return exptime;  // already absolute (epoch style)
  return now_ + exptime;
}

bool ItemStore::is_expired(const ItemHeader* item) const {
  if (item->stored_seq < flush_seq_) return true;
  return item->exptime != 0 && item->exptime <= now_;
}

ItemHeader* ItemStore::peek(std::string_view key) {
  return table_.find(key, hash_of(key));
}

// ------------------------------------------------------------ LRU lists

void ItemStore::lru_insert(ItemHeader* item) {
  LruList& list = lru_[item->slab_class];
  item->lru_prev = nullptr;
  item->lru_next = list.head;
  if (list.head) list.head->lru_prev = item;
  list.head = item;
  if (!list.tail) list.tail = item;
}

void ItemStore::lru_remove(ItemHeader* item) {
  LruList& list = lru_[item->slab_class];
  if (item->lru_prev) {
    item->lru_prev->lru_next = item->lru_next;
  } else if (list.head == item) {
    list.head = item->lru_next;
  }
  if (item->lru_next) {
    item->lru_next->lru_prev = item->lru_prev;
  } else if (list.tail == item) {
    list.tail = item->lru_prev;
  }
  item->lru_prev = item->lru_next = nullptr;
}

void ItemStore::lru_bump(ItemHeader* item) {
  item->last_access = now_;
  if (lru_[item->slab_class].head == item) return;
  lru_remove(item);
  lru_insert(item);
}

// ------------------------------------------------------- alloc and free

Result<ItemHeader*> ItemStore::allocate_raw(std::string_view key, std::uint32_t value_len) {
  if (key.empty() || key.size() > kMaxKeyLen) return Errc::invalid_argument;
  const std::size_t need = ItemHeader::wire_size(key.size(), value_len);
  auto cls = slabs_.class_for(need);
  if (!cls.ok()) return Errc::too_large;

  auto chunk = slabs_.allocate(*cls);
  while (!chunk.ok()) {
    if (!config_.evict_to_free || !evict_one(*cls)) return Errc::no_resources;
    chunk = slabs_.allocate(*cls);
  }

  auto* item = new (*chunk) ItemHeader();
  item->key_len = static_cast<std::uint16_t>(key.size());
  item->value_len = value_len;
  item->slab_class = *cls;
  item->last_access = now_;
  std::memcpy(item->key_data(), key.data(), key.size());
  return item;
}

void ItemStore::unlink(ItemHeader* item) {
  if (!item->linked) return;
  if (listener_) listener_->on_item_unlinked(item);
  table_.remove(item, hash_of(item->key()));
  item->linked = false;
  lru_remove(item);
  --stats_.curr_items;
  stats_.bytes -= ItemHeader::wire_size(item->key_len, item->value_len);
}

void ItemStore::free_item(ItemHeader* item) {
  assert(!item->linked);
  if (item->refcount > 0) return;  // deferred until release()
  slabs_.free(item->slab_class, reinterpret_cast<std::byte*>(item));
}

bool ItemStore::evict_one(std::uint8_t cls) {
  ItemHeader* victim = lru_[cls].tail;
  for (int depth = 0; victim && depth < kEvictionSearchDepth; ++depth) {
    ItemHeader* prev = victim->lru_prev;
    if (victim->refcount == 0) {
      if (is_expired(victim)) {
        ++stats_.expired_unfetched;
      } else {
        ++stats_.evictions;
        obs::registry().counter("mc.store.evictions").inc();
      }
      unlink(victim);
      free_item(victim);
      return true;
    }
    victim = prev;
  }
  return false;
}

// ------------------------------------------------------------ full ops

Result<ItemHeader*> ItemStore::store(SetMode mode, std::string_view key,
                                     std::span<const std::byte> value, std::uint32_t flags,
                                     std::uint32_t exptime, std::uint64_t cas_unique) {
  ++stats_.cmd_set;
  ItemHeader* existing = peek(key);
  if (existing && is_expired(existing)) {
    unlink(existing);
    free_item(existing);
    existing = nullptr;
  }

  switch (mode) {
    case SetMode::set:
      break;
    case SetMode::add:
      if (existing) return Errc::not_stored;
      break;
    case SetMode::replace:
      if (!existing) return Errc::not_stored;
      break;
    case SetMode::cas:
      if (!existing) {
        ++stats_.cas_misses;
        return Errc::not_found;
      }
      if (existing->cas != cas_unique) {
        ++stats_.cas_badval;
        return Errc::exists;
      }
      ++stats_.cas_hits;
      break;
    case SetMode::append:
    case SetMode::prepend:
      if (!existing) return Errc::not_stored;
      break;
  }

  // Build the new value (append/prepend combine with the existing one).
  std::uint32_t new_len = static_cast<std::uint32_t>(value.size());
  if (mode == SetMode::append || mode == SetMode::prepend) {
    new_len += existing->value_len;
    flags = existing->flags;          // storage verbs keep the old flags
    exptime = existing->exptime;      // and the old expiry (already absolute)
  } else {
    exptime = absolute_exptime(exptime);
  }

  // Pin the existing item: allocation may evict from the same LRU, and
  // append/prepend still read from it below.
  if (existing) ++existing->refcount;
  auto allocated = prepare_item(key, new_len, flags, exptime);
  if (!allocated.ok()) {
    if (existing) release(existing);
    return allocated.error();
  }
  ItemHeader* item = *allocated;
  // prepare_item already normalized exptime; append/prepend must keep the
  // absolute one captured above.
  item->exptime = exptime;

  if (mode == SetMode::append) {
    std::memcpy(item->value_data(), existing->value_data(), existing->value_len);
    std::memcpy(item->value_data() + existing->value_len, value.data(), value.size());
  } else if (mode == SetMode::prepend) {
    std::memcpy(item->value_data(), value.data(), value.size());
    std::memcpy(item->value_data() + value.size(), existing->value_data(),
                existing->value_len);
  } else if (!value.empty()) {
    std::memcpy(item->value_data(), value.data(), value.size());
  }

  if (existing) release(existing);
  link_item(item);
  return item;
}

ItemHeader* ItemStore::get(std::string_view key) {
  ++stats_.cmd_get;
  ItemHeader* item = peek(key);
  if (!item) {
    ++stats_.get_misses;
    return nullptr;
  }
  if (is_expired(item)) {
    ++stats_.expired_unfetched;
    ++stats_.get_misses;
    unlink(item);
    free_item(item);
    return nullptr;
  }
  ++stats_.get_hits;
  lru_bump(item);
  return item;
}

ItemHeader* ItemStore::get_pinned(std::string_view key) {
  ItemHeader* item = get(key);
  if (item) ++item->refcount;
  return item;
}

void ItemStore::release(ItemHeader* item) {
  assert(item->refcount > 0);
  --item->refcount;
  if (item->refcount == 0 && !item->linked) free_item(item);
}

bool ItemStore::del(std::string_view key) {
  ItemHeader* item = peek(key);
  if (!item || is_expired(item)) {
    if (item) {
      unlink(item);
      free_item(item);
    }
    ++stats_.delete_misses;
    return false;
  }
  ++stats_.delete_hits;
  unlink(item);
  free_item(item);
  return true;
}

Result<std::uint64_t> ItemStore::arith(std::string_view key, std::uint64_t delta,
                                       bool decrement) {
  ItemHeader* item = get(key);
  if (!item) {
    ++stats_.incr_misses;
    return Errc::not_found;
  }

  // Parse the current ASCII value.
  const auto* begin = reinterpret_cast<const char*>(item->value_data());
  std::uint64_t current = 0;
  auto [ptr, ec] = std::from_chars(begin, begin + item->value_len, current);
  if (ec != std::errc{} || ptr != begin + item->value_len) {
    ++stats_.incr_misses;
    return Errc::invalid_argument;  // CLIENT_ERROR: not a number
  }

  std::uint64_t result;
  if (decrement) {
    result = current >= delta ? current - delta : 0;  // clamps at zero
  } else {
    result = current + delta;  // wraps on overflow, like memcached
  }
  ++stats_.incr_hits;

  const std::string text = std::to_string(result);
  const std::size_t capacity =
      slabs_.chunk_size(item->slab_class) - sizeof(ItemHeader) - item->key_len;
  if (text.size() <= capacity) {
    stats_.bytes -= ItemHeader::wire_size(item->key_len, item->value_len);
    std::memcpy(item->value_data(), text.data(), text.size());
    item->value_len = static_cast<std::uint32_t>(text.size());
    item->cas = next_cas_++;
    stats_.bytes += ItemHeader::wire_size(item->key_len, item->value_len);
    if (listener_) listener_->on_item_linked(item);  // in-place rewrite
  } else {
    // The textual value no longer fits this chunk: replace the item. The
    // old exptime is already absolute, so set it directly afterwards
    // rather than letting store() renormalize it.
    const std::uint32_t old_exptime = item->exptime;
    auto replaced = store(SetMode::set, key,
                          std::span<const std::byte>(
                              reinterpret_cast<const std::byte*>(text.data()), text.size()),
                          item->flags, 0);
    if (!replaced.ok()) return replaced.error();
    (*replaced)->exptime = old_exptime;
    --stats_.cmd_set;  // internal reallocation, not a client command
  }
  return result;
}

bool ItemStore::touch(std::string_view key, std::uint32_t exptime) {
  ItemHeader* item = get(key);
  if (!item) return false;
  item->exptime = absolute_exptime(exptime);
  if (listener_) listener_->on_item_linked(item);  // republish new expiry
  return true;
}

void ItemStore::flush_all() {
  flush_seq_ = next_seq_;
  if (listener_) listener_->on_store_flushed();
}

// ---------------------------------------------------- two-phase (§V-B)

Result<ItemHeader*> ItemStore::allocate_item(std::string_view key, std::uint32_t value_len,
                                             std::uint32_t flags, std::uint32_t exptime) {
  auto item = prepare_item(key, value_len, flags, exptime);
  if (!item.ok()) ++stats_.cmd_set;  // the command ends here: it never reaches store()
  return item;
}

void ItemStore::commit_item(ItemHeader* item) {
  ++stats_.cmd_set;
  link_item(item);
}

Result<ItemHeader*> ItemStore::prepare_item(std::string_view key, std::uint32_t value_len,
                                            std::uint32_t flags, std::uint32_t exptime) {
  auto allocated = allocate_raw(key, value_len);
  if (!allocated.ok()) return allocated.error();
  ItemHeader* item = *allocated;
  item->flags = flags;
  item->exptime = absolute_exptime(exptime);
  item->refcount = 1;  // allocation pin, dropped by commit/abandon
  return item;
}

void ItemStore::link_item(ItemHeader* item) {
  ItemHeader* existing = peek(item->key());
  if (existing) {
    unlink(existing);
    free_item(existing);
  }
  item->cas = next_cas_++;
  item->stored_seq = next_seq_++;
  table_.insert(item, hash_of(item->key()));
  lru_insert(item);
  if (listener_) listener_->on_item_linked(item);
  ++stats_.total_items;
  ++stats_.curr_items;
  stats_.bytes += ItemHeader::wire_size(item->key_len, item->value_len);
  assert(item->refcount > 0);
  --item->refcount;
}

void ItemStore::abandon_item(ItemHeader* item) {
  assert(!item->linked);
  assert(item->refcount > 0);
  --item->refcount;
  free_item(item);
}

}  // namespace rmc::mc
