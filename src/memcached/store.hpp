// The storage engine: slab allocator + hash table + per-class LRU +
// expiration + CAS, the server side of memcached 1.4.x semantics.
//
// Besides the classic one-shot store(), the engine exposes a two-phase
// allocate/commit pair for the UCR SET path (§V-B): the header handler
// allocates the item (reserving its final slab location), UCR RDMA-reads
// the value straight into it, and commit links it into the hash table.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string_view>

#include "common/error.hpp"
#include "memcached/hashtable.hpp"
#include "memcached/item.hpp"
#include "memcached/slab.hpp"

namespace rmc::mc {

struct StoreConfig {
  SlabConfig slabs{};
  bool evict_to_free = true;  ///< memcached -M disables eviction
};

struct StoreStats {
  std::uint64_t cmd_get = 0;
  std::uint64_t cmd_set = 0;
  std::uint64_t get_hits = 0;
  std::uint64_t get_misses = 0;
  std::uint64_t delete_hits = 0;
  std::uint64_t delete_misses = 0;
  std::uint64_t incr_hits = 0;
  std::uint64_t incr_misses = 0;
  std::uint64_t cas_hits = 0;
  std::uint64_t cas_misses = 0;
  std::uint64_t cas_badval = 0;
  std::uint64_t evictions = 0;
  std::uint64_t expired_unfetched = 0;
  std::uint64_t total_items = 0;
  std::uint64_t curr_items = 0;
  std::uint64_t bytes = 0;
};

/// Storage verbs of the text protocol.
enum class SetMode : std::uint8_t { set, add, replace, append, prepend, cas };

/// What one request asks of the store: built by the client, sent in any
/// protocol's wire form, and decoded back by the server. The key and value
/// travel beside it.
struct StoreOp {
  enum class Verb : std::uint8_t {
    none,  ///< nothing for the store: a frontend-local command
    get,
    store,
    del,
    arith,
    touch,
    flush_all,
  };
  Verb verb = Verb::none;
  SetMode mode = SetMode::set;  ///< store
  bool decrement = false;       ///< arith
  std::uint32_t flags = 0;      ///< store
  /// store and touch: the expiry; flush_all: the delay in seconds; binary
  /// arith: the expiry of the counter a miss seeds.
  std::uint32_t exptime = 0;
  std::uint64_t cas = 0;        ///< store in SetMode::cas
  std::uint64_t delta = 0;      ///< arith
};

/// A request's keys travel packed back to back as [u16 len][len key
/// bytes] entries: a UCR mget key block, a parsed text request's key list
/// and the server's copy of every request's keys share this form.

/// Bytes pack_mget_key will write for `key`.
inline constexpr std::size_t mget_entry_size(std::string_view key) {
  return sizeof(std::uint16_t) + key.size();
}

/// Append one [u16 len][bytes] entry at `out`; returns bytes written.
inline std::size_t pack_mget_key(std::byte* out, std::string_view key) {
  const auto len = static_cast<std::uint16_t>(key.size());
  std::memcpy(out, &len, sizeof(len));
  std::memcpy(out + sizeof(len), key.data(), key.size());
  return sizeof(len) + key.size();
}

/// Forward iterator over a packed key block (no allocation, no copies:
/// the yielded views alias the block).
struct MgetKeyReader {
  const std::byte* cur = nullptr;
  const std::byte* end = nullptr;

  MgetKeyReader(const std::byte* block, std::size_t len)
      : cur(block), end(block + len) {}

  bool next(std::string_view& out) {
    if (end - cur < static_cast<std::ptrdiff_t>(sizeof(std::uint16_t))) return false;
    std::uint16_t len = 0;
    std::memcpy(&len, cur, sizeof(len));
    cur += sizeof(len);
    if (end - cur < static_cast<std::ptrdiff_t>(len)) return false;
    out = std::string_view{reinterpret_cast<const char*>(cur), len};
    cur += len;
    return true;
  }
};

/// One row of a protocol's verb table: the wire command that names a
/// store op's verb, storage mode and arith direction. Each protocol has
/// one table; the client encodes through it and the server decodes
/// through it.
template <typename Command>
struct VerbRow {
  Command command;
  StoreOp::Verb verb;
  SetMode mode = SetMode::set;
  bool decrement = false;
};

/// The server's decode: `fields` with the verb, mode and direction that
/// `command` names (the first row that has it), or verb none.
template <typename Command, std::size_t N>
constexpr StoreOp decode_verb(const VerbRow<Command> (&table)[N], Command command,
                              StoreOp fields) {
  for (const VerbRow<Command>& row : table) {
    if (row.command != command) continue;
    fields.verb = row.verb;
    fields.mode = row.mode;
    fields.decrement = row.decrement;
    return fields;
  }
  fields.verb = StoreOp::Verb::none;
  return fields;
}

/// The client's encode: the command of the first row that names `op`'s
/// verb, mode and direction. Every op a client sends has a row.
template <typename Command, std::size_t N>
constexpr Command encode_verb(const VerbRow<Command> (&table)[N], const StoreOp& op) {
  for (const VerbRow<Command>& row : table) {
    if (row.verb == op.verb && row.mode == op.mode && row.decrement == op.decrement) {
      return row.command;
    }
  }
  return table[0].command;
}

/// Observer of item lifetime transitions, invoked synchronously from the
/// mutation paths. This is the publish/retract hook the one-sided remote
/// index builds on: linked covers both fresh links and in-place rewrites
/// (arith, touch), unlinked covers delete/evict/expiry/replace, flushed
/// covers the lazy flush_all epoch bump (items stay linked but are dead).
class StoreListener {
 public:
  virtual ~StoreListener() = default;
  virtual void on_item_linked(const ItemHeader* item) = 0;
  virtual void on_item_unlinked(const ItemHeader* item) = 0;
  virtual void on_store_flushed() = 0;
};

class ItemStore {
 public:
  explicit ItemStore(StoreConfig config = {});
  ItemStore(const ItemStore&) = delete;
  ItemStore& operator=(const ItemStore&) = delete;

  // ------------------------------------------------------------- clock
  /// The cache clock in seconds; the server advances it from sim time.
  void set_clock(std::uint32_t seconds) { now_ = seconds; }
  std::uint32_t now() const { return now_; }

  // ---------------------------------------------------------- full ops
  /// Execute a storage command; returns the stored item, or the protocol
  /// error (not_stored / exists / not_found / too_large / no_resources).
  Result<ItemHeader*> store(SetMode mode, std::string_view key,
                            std::span<const std::byte> value, std::uint32_t flags,
                            std::uint32_t exptime, std::uint64_t cas_unique = 0);

  /// Lookup; bumps LRU and handles lazy expiry. Returned pointer is valid
  /// until the next store/evict — pin it (get_pinned) across suspension.
  ItemHeader* get(std::string_view key);

  /// Lookup and pin: refcount keeps the chunk alive while a response is in
  /// flight (e.g. a client RDMA-reading the value). Must be release()d.
  ItemHeader* get_pinned(std::string_view key);
  void release(ItemHeader* item);

  bool del(std::string_view key);

  /// incr/decr (ASCII decimal values). decrement clamps at zero.
  Result<std::uint64_t> arith(std::string_view key, std::uint64_t delta, bool decrement);

  bool touch(std::string_view key, std::uint32_t exptime);

  /// Invalidate everything stored so far (the protocol's optional delay is
  /// implemented by the server scheduling this call).
  void flush_all();

  // ------------------------------------- two-phase path (UCR SET, §V-B)
  // cmd_set counts every storage command once: store() counts its own, and
  // on this path a failed allocation or a commit counts.

  /// Allocate an unlinked, pinned item whose value region is uninitialized
  /// (the RDMA destination). flags/exptime recorded now, linked on commit.
  Result<ItemHeader*> allocate_item(std::string_view key, std::uint32_t value_len,
                                    std::uint32_t flags, std::uint32_t exptime);
  /// Link a previously allocated item, replacing any existing entry, and
  /// drop the allocation pin.
  void commit_item(ItemHeader* item);
  /// Free an allocated item that will not be committed.
  void abandon_item(ItemHeader* item);

  // -------------------------------------------------------------- misc
  /// Install (or clear, with nullptr) the mutation observer. At most one;
  /// the default nullptr keeps every mutation path branch-identical to a
  /// listener-free store.
  void set_listener(StoreListener* listener) { listener_ = listener; }

  const StoreStats& stats() const { return stats_; }
  const SlabAllocator& slabs() const { return slabs_; }
  SlabAllocator& slabs() { return slabs_; }
  std::size_t item_count() const { return table_.size(); }

  /// Normalize a protocol exptime: memcached treats values greater than 30
  /// days as absolute epoch seconds, everything else as relative.
  std::uint32_t absolute_exptime(std::uint32_t exptime) const;

 private:
  struct LruList {
    ItemHeader* head = nullptr;
    ItemHeader* tail = nullptr;
  };

  static std::uint32_t hash_of(std::string_view key) { return hash_one_at_a_time(key); }

  bool is_expired(const ItemHeader* item) const;
  Result<ItemHeader*> allocate_raw(std::string_view key, std::uint32_t value_len);
  /// allocate_item and commit_item without the cmd_set count (store()).
  Result<ItemHeader*> prepare_item(std::string_view key, std::uint32_t value_len,
                                   std::uint32_t flags, std::uint32_t exptime);
  void link_item(ItemHeader* item);
  void unlink(ItemHeader* item);
  void free_item(ItemHeader* item);
  void lru_insert(ItemHeader* item);
  void lru_remove(ItemHeader* item);
  void lru_bump(ItemHeader* item);
  bool evict_one(std::uint8_t cls);
  /// Lookup without stats or LRU side effects (internal).
  ItemHeader* peek(std::string_view key);

  StoreConfig config_;
  StoreListener* listener_ = nullptr;
  SlabAllocator slabs_;
  HashTable table_;
  std::vector<LruList> lru_;
  StoreStats stats_;
  std::uint32_t now_ = 1;         ///< cache clock, seconds (starts at 1)
  std::uint64_t flush_seq_ = 0;   ///< items with stored_seq < this are dead
  std::uint64_t next_seq_ = 1;    ///< store-order sequence source
  std::uint64_t next_cas_ = 1;
};

}  // namespace rmc::mc
