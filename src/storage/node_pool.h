// NodePool: one platform's store of content-addressed trie nodes, and
// PoolKv, one replica's KvStore view of it.
//
// In the paper's model every node keeps its own Patricia-Merkle state
// (§3.1.2). Trie nodes are addressed by the hash of their bytes, so
// replicas whose tries share versions hold byte-identical nodes. The pool
// holds each node once and gives it a dense id. Each replica's view keeps
// one bit per pool node it owns and its own accounting, which is MemKv's
// exactly: given the same Puts and Deletes, a view reports the same
// size_bytes, live_bytes and entry count, refuses the same write at the
// same capacity and steps the mem gauge the same way as a private MemKv.
//
// A view can also take Puts another view of the pool made, as a list of
// pool ids (Replay), without touching node bytes: that is how a replica
// at one pre-state root adopts another's trie commit (chain::TrieStateDb).
//
// The pool only grows. A key must address its value: it is never Put
// again with other bytes. Pool ids depend on the order replicas write in
// and never reach an output. A pool belongs to one Platform, and neither
// it nor its views are safe for concurrent use.

#ifndef BLOCKBENCH_STORAGE_NODE_POOL_H_
#define BLOCKBENCH_STORAGE_NODE_POOL_H_

#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "storage/kvstore.h"

namespace bb::storage {

class NodePool {
 public:
  using Id = uint32_t;

  /// The id of `key`, interning `value` under it when the key is new.
  Id Intern(Slice key, Slice value);
  /// Sets *id to key's id; false when the pool never held the key.
  bool Find(Slice key, Id* id) const;

  Slice key(Id id) const { return entries_[id].key; }
  Slice value(Id id) const { return entries_[id].value; }
  /// Key plus value bytes: what MemKv charges as live data for the node.
  uint64_t entry_bytes(Id id) const {
    return entries_[id].key.size() + entries_[id].value.size();
  }
  size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    std::string key;
    std::string value;
  };
  /// A deque never moves its elements, so index_ can view their keys.
  std::deque<Entry> entries_;
  std::unordered_map<std::string_view, Id, KeyHash> index_;
};

class PoolKv : public KvStore {
 public:
  /// `pool` is shared with the other replicas' views; not owned.
  /// capacity_bytes = 0 means unlimited, as for MemKv.
  explicit PoolKv(NodePool* pool, uint64_t capacity_bytes = 0)
      : pool_(pool), capacity_(capacity_bytes) {}

  /// Interns the node, then takes it and charges its bytes unless this
  /// view already owns it.
  Status Put(Slice key, Slice value) override;
  /// NotFound for nodes this view does not own, even if the pool has them.
  Status Get(Slice key, std::string* value) const override;
  Status Delete(Slice key) override;
  void Scan(
      const std::function<bool(Slice key, Slice value)>& fn) const override;

  size_t num_entries() const override { return num_entries_; }
  uint64_t size_bytes() const override;
  uint64_t live_bytes() const override { return live_bytes_; }

  /// While set, every accepted Put appends its node's id to *log.
  void set_put_log(std::vector<NodePool::Id>* log) { put_log_ = log; }
  /// Makes the Puts `puts` names, in order, as another view logged them.
  /// When they would take this view past its capacity it makes none and
  /// returns false. Puts only grow a store, so they fit at every step if
  /// and only if they fit at the end.
  bool Replay(std::span<const NodePool::Id> puts);

  bool Owns(NodePool::Id id) const {
    size_t word = id / 64;
    return word < owned_.size() && (owned_[word] >> (id % 64) & 1) != 0;
  }

 private:
  void Own(NodePool::Id id);
  void Disown(NodePool::Id id) {
    owned_[id / 64] &= ~(uint64_t(1) << (id % 64));
  }

  NodePool* pool_;
  uint64_t capacity_;
  uint64_t live_bytes_ = 0;
  size_t num_entries_ = 0;
  /// One bit per pool id.
  std::vector<uint64_t> owned_;
  std::vector<NodePool::Id>* put_log_ = nullptr;
  /// Replay's newly owned ids, kept to reuse the allocation.
  std::vector<NodePool::Id> taken_;
};

}  // namespace bb::storage

#endif  // BLOCKBENCH_STORAGE_NODE_POOL_H_
