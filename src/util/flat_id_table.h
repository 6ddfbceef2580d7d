// Flat containers for 64-bit ids.
//
// The hot paths (tx admission dedup, committed-id filtering, pool
// membership) all key on client-assigned ids of the form
// (client+1)<<40 | seq, which are dense in their low bits. FlatIdMap is a
// linear-probing hash table over one contiguous array; a splitmix64
// finalizer spreads the structured ids, zero-as-empty-sentinel (the zero
// key is tracked out of band) and backward-shift deletion keep probe
// chains short. FlatIdSet is a paged bitmap: an id's page is id >> 9, one
// 64-byte cache line of 512 bits, found through a FlatIdMap from page
// number to page index. Every id source in the tree mints dense runs
// (client sequences, analytics' 1..N, a client id with one high phase bit
// for cross-shard records), so an id costs about one bit and the page
// index stays small enough to stay cached. The trade-off: scattered ids
// would cost up to a whole 64-byte page each.

#ifndef BLOCKBENCH_UTIL_FLAT_ID_TABLE_H_
#define BLOCKBENCH_UTIL_FLAT_ID_TABLE_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

namespace bb::util {

namespace internal {
/// splitmix64 finalizer: full-avalanche mix for structured ids.
inline uint64_t MixId(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}
}  // namespace internal

/// Map from uint64 id to a small trivially-copyable value (pool slot
/// indices, bitmap pages).
template <typename V>
class FlatIdMap {
 public:
  FlatIdMap() { Rehash(kMinCapacity); }

  size_t size() const { return size_ + (has_zero_ ? 1 : 0); }

  void clear() {
    std::fill(keys_.begin(), keys_.end(), 0);
    size_ = 0;
    has_zero_ = false;
  }

  /// Null when absent. The pointer is invalidated by any mutation.
  V* Find(uint64_t id) {
    if (id == 0) return has_zero_ ? &zero_value_ : nullptr;
    size_t i = Home(id);
    while (keys_[i] != 0) {
      if (keys_[i] == id) return &values_[i];
      i = (i + 1) & mask_;
    }
    return nullptr;
  }
  const V* Find(uint64_t id) const {
    return const_cast<FlatIdMap*>(this)->Find(id);
  }

  /// Inserts or overwrites.
  void Put(uint64_t id, V value) {
    if (id == 0) {
      has_zero_ = true;
      zero_value_ = value;
      return;
    }
    if ((size_ + 1) * 10 >= keys_.size() * 7) Rehash(keys_.size() * 2);
    size_t i = Home(id);
    while (keys_[i] != 0) {
      if (keys_[i] == id) {
        values_[i] = value;
        return;
      }
      i = (i + 1) & mask_;
    }
    keys_[i] = id;
    values_[i] = value;
    ++size_;
  }

  /// Returns true when the id was present.
  bool Erase(uint64_t id) {
    if (id == 0) {
      bool had = has_zero_;
      has_zero_ = false;
      return had;
    }
    size_t i = Home(id);
    while (keys_[i] != id) {
      if (keys_[i] == 0) return false;
      i = (i + 1) & mask_;
    }
    BackwardShift(i);
    --size_;
    return true;
  }

 private:
  static constexpr size_t kMinCapacity = 16;

  size_t Home(uint64_t id) const { return internal::MixId(id) & mask_; }

  void BackwardShift(size_t hole) {
    size_t j = hole;
    while (true) {
      j = (j + 1) & mask_;
      if (keys_[j] == 0) break;
      size_t home = Home(keys_[j]);
      if (((j - home) & mask_) >= ((j - hole) & mask_)) {
        keys_[hole] = keys_[j];
        values_[hole] = values_[j];
        hole = j;
      }
    }
    keys_[hole] = 0;
  }

  void Rehash(size_t new_capacity) {
    std::vector<uint64_t> old_keys = std::move(keys_);
    std::vector<V> old_values = std::move(values_);
    keys_.assign(new_capacity, 0);
    values_.assign(new_capacity, V{});
    mask_ = new_capacity - 1;
    size_ = 0;
    for (size_t s = 0; s < old_keys.size(); ++s) {
      uint64_t id = old_keys[s];
      if (id == 0) continue;
      size_t i = Home(id);
      while (keys_[i] != 0) i = (i + 1) & mask_;
      keys_[i] = id;
      values_[i] = old_values[s];
      ++size_;
    }
  }

  std::vector<uint64_t> keys_;
  std::vector<V> values_;
  size_t mask_ = 0;
  size_t size_ = 0;
  bool has_zero_ = false;
  V zero_value_{};
};

/// Set of uint64 ids as a paged bitmap. Interface mirrors the
/// std::unordered_set subset the codebase uses (insert/count/erase/size/
/// clear), so it drops in. Pages are never freed, not even by clear().
class FlatIdSet {
 public:
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void clear() {
    std::fill(pages_.begin(), pages_.end(), Page{});
    size_ = 0;
  }

  size_t count(uint64_t id) const {
    const uint64_t* word = Find(id);
    return word != nullptr && (*word & Bit(id)) != 0 ? 1 : 0;
  }

  /// Returns true when newly inserted.
  bool insert(uint64_t id) {
    uint64_t* word = Find(id);
    if (word == nullptr) word = NewPage(id);
    if ((*word & Bit(id)) != 0) return false;
    *word |= Bit(id);
    ++size_;
    return true;
  }

  /// Returns the number of elements removed (0 or 1).
  size_t erase(uint64_t id) {
    uint64_t* word = Find(id);
    if (word == nullptr || (*word & Bit(id)) == 0) return 0;
    *word &= ~Bit(id);
    --size_;
    return 1;
  }

 private:
  static constexpr int kPageBits = 9;  // 512 ids per page
  struct alignas(64) Page {
    uint64_t words[8] = {};
  };

  static uint64_t Bit(uint64_t id) { return uint64_t(1) << (id & 63); }

  /// The word holding the id's bit; null when its page was never made.
  uint64_t* Find(uint64_t id) {
    uint32_t* page = index_.Find(id >> kPageBits);
    return page == nullptr ? nullptr : &pages_[*page].words[(id >> 6) & 7];
  }
  const uint64_t* Find(uint64_t id) const {
    return const_cast<FlatIdSet*>(this)->Find(id);
  }

  uint64_t* NewPage(uint64_t id) {
    index_.Put(id >> kPageBits, uint32_t(pages_.size()));
    pages_.emplace_back();
    return &pages_.back().words[(id >> 6) & 7];
  }

  FlatIdMap<uint32_t> index_;  // page number -> index into pages_
  std::vector<Page> pages_;
  size_t size_ = 0;
};

/// Bounded membership window over recently seen ids: two generations of
/// FlatIdSet, rotated when the current generation fills. Remembers between
/// `window` and 2×`window` of the most recent distinct ids with O(1)
/// amortized inserts — the fix for the unbounded seen-set a long-running
/// admission path would otherwise accumulate.
class SeenIdWindow {
 public:
  /// Effectively-unbounded default for simulation-scale runs; tests set a
  /// tiny window to exercise the recycling boundary.
  static constexpr size_t kDefaultWindow = size_t(1) << 20;

  explicit SeenIdWindow(size_t window = kDefaultWindow) : window_(window) {}

  bool Contains(uint64_t id) const {
    return cur_.count(id) > 0 || prev_.count(id) > 0;
  }

  /// Marks the id seen; returns true when it was not in the window.
  bool Insert(uint64_t id) {
    if (prev_.count(id) > 0) return false;
    if (cur_.size() < window_) return cur_.insert(id);
    if (cur_.count(id) > 0) return false;
    prev_ = std::move(cur_);
    cur_ = FlatIdSet();
    return cur_.insert(id);
  }

  size_t window() const { return window_; }
  void set_window(size_t w) { window_ = w; }
  /// Ids currently remembered (spans both generations).
  size_t size() const { return cur_.size() + prev_.size(); }

 private:
  size_t window_;
  FlatIdSet cur_;
  FlatIdSet prev_;
};

}  // namespace bb::util

#endif  // BLOCKBENCH_UTIL_FLAT_ID_TABLE_H_
