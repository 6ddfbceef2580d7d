// MemKv: a purely in-memory KvStore with an optional capacity limit.
//
// Models Parity's keep-all-state-in-memory design: fast until the dataset
// outgrows memory, at which point writes fail with OutOfMemory — exactly
// the 'X' cells in the paper's IOHeavy results (Fig 12).

#ifndef BLOCKBENCH_STORAGE_MEMKV_H_
#define BLOCKBENCH_STORAGE_MEMKV_H_

#include <string>

#include "storage/kvstore.h"

namespace bb::storage {

/// MemKv's resident size: live key+value bytes plus the bookkeeping of an
/// unordered_map node and two std::string headers per entry, so the
/// capacity limit reflects resident memory, not just payload bytes.
inline uint64_t MemKvBytes(uint64_t live_bytes, size_t entries) {
  return live_bytes + entries * 96;
}

class MemKv : public KvStore {
 public:
  /// capacity_bytes = 0 means unlimited.
  explicit MemKv(uint64_t capacity_bytes = 0) : capacity_(capacity_bytes) {}

  Status Put(Slice key, Slice value) override;
  Status Get(Slice key, std::string* value) const override;
  Status Delete(Slice key) override;
  void Scan(
      const std::function<bool(Slice key, Slice value)>& fn) const override;

  size_t num_entries() const override { return map_.size(); }
  uint64_t size_bytes() const override {
    return MemKvBytes(live_bytes_, map_.size());
  }
  uint64_t live_bytes() const override { return live_bytes_; }

 private:
  uint64_t capacity_;
  uint64_t live_bytes_ = 0;
  KeyMap<std::string> map_;
};

}  // namespace bb::storage

#endif  // BLOCKBENCH_STORAGE_MEMKV_H_
