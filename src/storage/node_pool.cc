#include "storage/node_pool.h"

#include <bit>
#include <cassert>

#include "storage/memkv.h"

namespace bb::storage {

// --- NodePool ----------------------------------------------------------------

NodePool::Id NodePool::Intern(Slice key, Slice value) {
  auto it = index_.find(key.view());
  if (it != index_.end()) {
    assert(value.view() == entries_[it->second].value);
    return it->second;
  }
  Id id = Id(entries_.size());
  const Entry& e =
      entries_.emplace_back(Entry{key.ToString(), value.ToString()});
  index_.emplace(e.key, id);
  return id;
}

bool NodePool::Find(Slice key, Id* id) const {
  auto it = index_.find(key.view());
  if (it == index_.end()) return false;
  *id = it->second;
  return true;
}

// --- PoolKv ------------------------------------------------------------------

void PoolKv::Own(NodePool::Id id) {
  size_t word = id / 64;
  if (word >= owned_.size()) owned_.resize(word + 1 + owned_.size() / 2);
  owned_[word] |= uint64_t(1) << (id % 64);
}

Status PoolKv::Put(Slice key, Slice value) {
  NodePool::Id id = pool_->Intern(key, value);
  if (!Owns(id)) {
    // A node already owned is rewritten with its own bytes, which
    // changes nothing, so only a new one is charged and checked.
    uint64_t live = live_bytes_ + key.size() + value.size();
    if (capacity_ > 0 && MemKvBytes(live, num_entries_ + 1) > capacity_) {
      return Status::OutOfMemory("MemKv capacity exceeded");
    }
    Own(id);
    live_bytes_ = live;
    ++num_entries_;
  }
  if (put_log_ != nullptr) put_log_->push_back(id);
  SyncMemGauge();
  return Status::Ok();
}

Status PoolKv::Get(Slice key, std::string* value) const {
  NodePool::Id id;
  if (!pool_->Find(key, &id) || !Owns(id)) return Status::NotFound();
  Slice v = pool_->value(id);
  value->assign(v.data(), v.size());
  return Status::Ok();
}

Status PoolKv::Delete(Slice key) {
  NodePool::Id id;
  if (!pool_->Find(key, &id) || !Owns(id)) return Status::NotFound();
  Disown(id);
  live_bytes_ -= pool_->entry_bytes(id);
  --num_entries_;
  SyncMemGauge();
  return Status::Ok();
}

void PoolKv::Scan(
    const std::function<bool(Slice key, Slice value)>& fn) const {
  for (size_t w = 0; w < owned_.size(); ++w) {
    for (uint64_t bits = owned_[w]; bits != 0; bits &= bits - 1) {
      NodePool::Id id = NodePool::Id(w * 64 + size_t(std::countr_zero(bits)));
      if (!fn(pool_->key(id), pool_->value(id))) return;
    }
  }
}

uint64_t PoolKv::size_bytes() const {
  return MemKvBytes(live_bytes_, num_entries_);
}

bool PoolKv::Replay(std::span<const NodePool::Id> puts) {
  // Take ownership first, so a node the log writes twice counts once.
  taken_.clear();
  uint64_t live = live_bytes_;
  for (NodePool::Id id : puts) {
    if (Owns(id)) continue;
    Own(id);
    taken_.push_back(id);
    live += pool_->entry_bytes(id);
  }
  if (capacity_ > 0 &&
      MemKvBytes(live, num_entries_ + taken_.size()) > capacity_) {
    for (NodePool::Id id : taken_) Disown(id);
    return false;
  }
  // Charge node by node, in log order, so the mem gauge takes the same
  // steps as it does for Put. Rewrites of owned nodes leave it unchanged.
  for (NodePool::Id id : taken_) {
    live_bytes_ += pool_->entry_bytes(id);
    ++num_entries_;
    SyncMemGauge();
  }
  return true;
}

}  // namespace bb::storage
