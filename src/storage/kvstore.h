// KvStore: the storage-engine abstraction under every platform model.
//
// Ethereum persists state in LevelDB, Hyperledger in RocksDB, and Parity
// keeps state in memory; the three concrete stores here (DiskKv, MemKv)
// stand in for those engines and expose the size accounting the IOHeavy
// experiment (Fig 12) needs.

#ifndef BLOCKBENCH_STORAGE_KVSTORE_H_
#define BLOCKBENCH_STORAGE_KVSTORE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>

// Header-only hot path (mem::Gauge): bb_storage stays link-independent
// of bb_obs; the gauge is inert until a MemTracker is attached.
#include "obs/memtrack.h"
#include "util/slice.h"
#include "util/status.h"

namespace bb::storage {

/// Transparent key hash for the stores' key maps: `find(key.view())`
/// looks a Slice up without building a std::string from it. Hashes the
/// same bytes to the same value as std::hash<std::string>.
struct KeyHash {
  using is_transparent = void;
  size_t operator()(std::string_view key) const {
    return std::hash<std::string_view>{}(key);
  }
};

/// String-keyed map that accepts std::string_view lookups.
template <typename V>
using KeyMap = std::unordered_map<std::string, V, KeyHash, std::equal_to<>>;

class KvStore {
 public:
  virtual ~KvStore() = default;

  virtual Status Put(Slice key, Slice value) = 0;
  virtual Status Get(Slice key, std::string* value) const = 0;
  virtual Status Delete(Slice key) = 0;
  virtual bool Contains(Slice key) const {
    std::string v;
    return Get(key, &v).ok();
  }

  /// Iterates all live entries in unspecified order; stops early if fn
  /// returns false.
  virtual void Scan(
      const std::function<bool(Slice key, Slice value)>& fn) const = 0;

  virtual size_t num_entries() const = 0;
  /// Bytes of storage consumed (resident memory for MemKv, file bytes
  /// including garbage for DiskKv).
  virtual uint64_t size_bytes() const = 0;
  /// Bytes of live key+value data.
  virtual uint64_t live_bytes() const = 0;

  /// Mem observability: when bound, every mutation re-syncs the
  /// storage.state gauge from size_bytes(). Disabled cost is one branch
  /// per mutation.
  void set_mem_gauge(obs::mem::Gauge gauge) {
    mem_gauge_ = gauge;
    SyncMemGauge();
  }

 protected:
  /// Concrete stores call this at the end of every mutating operation.
  void SyncMemGauge() {
    if (mem_gauge_) mem_gauge_.Set(size_bytes());
  }

 private:
  obs::mem::Gauge mem_gauge_;
};

}  // namespace bb::storage

#endif  // BLOCKBENCH_STORAGE_KVSTORE_H_
