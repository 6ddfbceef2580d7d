#include "storage/memkv.h"

namespace bb::storage {

Status MemKv::Put(Slice key, Slice value) {
  auto it = map_.find(key.view());
  uint64_t new_live = live_bytes_;
  if (it != map_.end()) {
    new_live = new_live - it->second.size() + value.size();
  } else {
    new_live += key.size() + value.size();
  }
  if (capacity_ > 0) {
    size_t entries = map_.size() + (it == map_.end() ? 1 : 0);
    if (MemKvBytes(new_live, entries) > capacity_) {
      return Status::OutOfMemory("MemKv capacity exceeded");
    }
  }
  if (it != map_.end()) {
    it->second.assign(value.data(), value.size());
  } else {
    map_.emplace(key.ToString(), value.ToString());
  }
  live_bytes_ = new_live;
  SyncMemGauge();
  return Status::Ok();
}

Status MemKv::Get(Slice key, std::string* value) const {
  auto it = map_.find(key.view());
  if (it == map_.end()) return Status::NotFound();
  *value = it->second;
  return Status::Ok();
}

Status MemKv::Delete(Slice key) {
  auto it = map_.find(key.view());
  if (it == map_.end()) return Status::NotFound();
  live_bytes_ -= it->first.size() + it->second.size();
  map_.erase(it);
  SyncMemGauge();
  return Status::Ok();
}

void MemKv::Scan(
    const std::function<bool(Slice key, Slice value)>& fn) const {
  for (const auto& [k, v] : map_) {
    if (!fn(k, v)) return;
  }
}

}  // namespace bb::storage
