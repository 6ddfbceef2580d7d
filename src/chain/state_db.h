// StateDb: the world-state abstraction a platform node executes against.
//
// Two concrete data models, matching Section 3.1.2 of the paper:
//   * TrieStateDb   — Patricia-Merkle trie over a KvStore; every Commit()
//                     yields a new root while old versions stay readable
//                     (Ethereum / Parity).
//   * BucketStateDb — flat keys in the KvStore plus a Bucket-Merkle root;
//                     mutable in place, no historical reads (Hyperledger).
//
// Keys are namespaced per contract; currency balances live in a reserved
// namespace and are manipulated through the StateHost adapter.

#ifndef BLOCKBENCH_CHAIN_STATE_DB_H_
#define BLOCKBENCH_CHAIN_STATE_DB_H_

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "storage/bucket_tree.h"
#include "storage/kvstore.h"
#include "storage/node_pool.h"
#include "storage/patricia_trie.h"
#include "util/sha256.h"
#include "vm/host.h"

namespace bb::chain {

class StateDb {
 public:
  /// One buffered write; `present == false` deletes the key.
  struct Write {
    bool present;
    std::string value;
  };
  /// Writes buffered since the last Commit/Abort, keyed by FullKey and
  /// applied in key order.
  using WriteSet = std::map<std::string, Write>;
  /// What one successful commit did, logged for replicas that share
  /// the model's work: enough for a replica at the same pre-state root,
  /// committing the same writes, to adopt the commit without running its
  /// tree. TrieStateDb logs it over a node pool (storage/node_pool.h),
  /// BucketStateDb always.
  struct CommitLog {
    bool recorded = false;
    /// Trie: pool ids of the nodes the commit Put, in order.
    std::vector<storage::NodePool::Id> puts;
    /// Bucket tree: each write's digest delta, in write order.
    std::vector<storage::BucketMerkleTree::Delta> deltas;
    Hash256 root;
    uint64_t node_reads = 0;
    uint64_t bytes_written = 0;
  };

  virtual ~StateDb() = default;

  /// The WriteSet key of `key` in namespace `ns`.
  static std::string FullKey(const std::string& ns, const std::string& key) {
    std::string out;
    out.reserve(ns.size() + 1 + key.size());
    out.append(ns);
    out.push_back('\0');
    out.append(key);
    return out;
  }

  /// Reads from the current (uncommitted writes visible) state.
  Status Get(const std::string& ns, const std::string& key,
             std::string* value) const;
  /// Buffers a write; becomes durable at Commit().
  Status Put(const std::string& ns, const std::string& key,
             const std::string& value);
  Status Delete(const std::string& ns, const std::string& key);

  /// Applies buffered writes; returns the new state root. On failure the
  /// buffer is kept until Abort().
  Result<Hash256> Commit();
  /// Applies `writes` instead of the (empty) buffer. When `record` is
  /// given and the commit succeeds, logs it there if this model can.
  Result<Hash256> Commit(const WriteSet& writes, CommitLog* record = nullptr);
  /// Commits `writes`, which another replica committed from this one's
  /// current root and logged as `log`. Replays the log when there is
  /// one; a write this store refuses fails the commit there, leaving the
  /// state Commit would have.
  Result<Hash256> Replay(const WriteSet& writes, const CommitLog& log);
  /// Drops buffered writes (failed block application).
  void Abort() { pending_.clear(); }
  /// Hands the buffered writes to the caller and empties the buffer.
  WriteSet TakePending() { return std::exchange(pending_, {}); }
  bool has_pending() const { return !pending_.empty(); }

  virtual Hash256 current_root() const = 0;
  /// Rewinds the current version to `root` (reorg). Unavailable on state
  /// models without versioning (BucketStateDb).
  virtual Status ResetTo(const Hash256& root) = 0;
  /// Reads ns/key in the historical version identified by `root`.
  /// Unavailable on BucketStateDb — the gap that forces Hyperledger's
  /// Analytics Q2 through a custom chaincode (VersionKVStore).
  virtual Status GetAt(const Hash256& root, const std::string& ns,
                       const std::string& key, std::string* value) const = 0;

  /// True when historical versions are queryable.
  virtual bool supports_versioned_reads() const = 0;

  /// Bytes consumed by the backing store (disk-usage series in Fig 12c).
  virtual uint64_t storage_bytes() const = 0;

  /// Tree nodes read from the store so far (0 on models whose reads
  /// touch no nodes). Taking another replica's execution of a block
  /// replays its reads through AddNodeReads.
  virtual uint64_t node_reads() const { return 0; }
  virtual void AddNodeReads(uint64_t n) { (void)n; }

  /// Exports data-model metrics into `reg` under `labels`; concrete
  /// models add their own (trie node traffic, cache hit rates).
  virtual void ExportMetrics(obs::MetricsRegistry* reg,
                             const obs::Labels& labels) const {
    reg->SetGauge("state.storage_bytes", labels, double(storage_bytes()));
  }

 protected:
  /// Reads `full_key` from the committed state.
  virtual Status ReadCommitted(const std::string& full_key,
                               std::string* value) const = 0;
  /// Applies `writes` to the committed state; returns the new root.
  virtual Result<Hash256> Apply(const WriteSet& writes) = 0;
  /// Apply that also fills *log on success; models that cannot share
  /// their commits leave it unrecorded.
  virtual Result<Hash256> ApplyAndLog(const WriteSet& writes, CommitLog*) {
    return Apply(writes);
  }
  /// Commits `writes` by adopting their recorded log, where this model
  /// can; by default it applies them.
  virtual Result<Hash256> ReplayLog(const WriteSet& writes,
                                    const CommitLog&) {
    return Apply(writes);
  }

 private:
  WriteSet pending_;
};

class TrieStateDb : public StateDb {
 public:
  /// `store` backs the trie nodes; not owned. `cache_entries` bounds the
  /// decoded-node cache in front of it (see MerklePatriciaTrie).
  explicit TrieStateDb(storage::KvStore* store, size_t cache_entries = 0);
  /// A trie whose nodes live in a pool shared with other replicas: its
  /// commits are logged and replayed (CommitLog).
  explicit TrieStateDb(storage::PoolKv* store);

  Hash256 current_root() const override { return root_; }
  Status ResetTo(const Hash256& root) override;
  Status GetAt(const Hash256& root, const std::string& ns,
               const std::string& key, std::string* value) const override;
  bool supports_versioned_reads() const override { return true; }
  uint64_t storage_bytes() const override { return store_->size_bytes(); }
  uint64_t node_reads() const override { return trie_.stats().node_reads; }
  void AddNodeReads(uint64_t n) override { trie_.CountNodeReads(n); }
  void ExportMetrics(obs::MetricsRegistry* reg,
                     const obs::Labels& labels) const override {
    StateDb::ExportMetrics(reg, labels);
    const storage::TrieStats& s = trie_stats();
    reg->AddCounter("state.trie_node_reads", labels, s.node_reads);
    reg->AddCounter("state.trie_node_writes", labels, s.node_writes);
    reg->AddCounter("state.trie_bytes_written", labels, s.bytes_written);
  }

  const storage::TrieStats& trie_stats() const { return trie_.stats(); }

 protected:
  Status ReadCommitted(const std::string& full_key,
                       std::string* value) const override {
    return trie_.Get(root_, full_key, value);
  }
  Result<Hash256> Apply(const WriteSet& writes) override;
  Result<Hash256> ApplyAndLog(const WriteSet& writes,
                              CommitLog* log) override;
  Result<Hash256> ReplayLog(const WriteSet& writes,
                            const CommitLog& log) override;

 private:
  storage::KvStore* store_;
  /// The same store when it is a pool view; null otherwise.
  storage::PoolKv* pool_ = nullptr;
  mutable storage::MerklePatriciaTrie trie_;
  Hash256 root_ = storage::MerklePatriciaTrie::EmptyRoot();
};

class BucketStateDb : public StateDb {
 public:
  explicit BucketStateDb(storage::KvStore* store, size_t num_buckets = 1024);

  Hash256 current_root() const override { return root_; }
  Status ResetTo(const Hash256&) override {
    return Status::Unavailable("bucket state has no versions");
  }
  Status GetAt(const Hash256&, const std::string&, const std::string&,
               std::string*) const override {
    return Status::Unavailable("bucket state has no historical reads");
  }
  bool supports_versioned_reads() const override { return false; }
  uint64_t storage_bytes() const override { return store_->size_bytes(); }
  /// Writes the bucket tree has applied.
  uint64_t updates() const { return tree_.updates(); }

 protected:
  Status ReadCommitted(const std::string& full_key,
                       std::string* value) const override {
    return tree_.Get(full_key, value);
  }
  Result<Hash256> Apply(const WriteSet& writes) override;
  Result<Hash256> ApplyAndLog(const WriteSet& writes,
                              CommitLog* log) override;
  Result<Hash256> ReplayLog(const WriteSet& writes,
                            const CommitLog& log) override;

 private:
  storage::KvStore* store_;
  storage::BucketMerkleTree tree_;
  Hash256 root_;
};

/// Adapts (StateDb, contract namespace) to the VM's HostInterface.
/// Transfers move integer balances inside the reserved "__bal" namespace;
/// balances may go negative — the framework does not model funding.
class StateHost : public vm::HostInterface {
 public:
  StateHost(StateDb* db, std::string contract)
      : db_(db), contract_(std::move(contract)) {}

  Status GetState(const std::string& key, std::string* value) override {
    return db_->Get(contract_, key, value);
  }
  Status PutState(const std::string& key, const std::string& value) override {
    return db_->Put(contract_, key, value);
  }
  Status DeleteState(const std::string& key) override {
    return db_->Delete(contract_, key);
  }
  Status Transfer(const std::string& to, int64_t amount) override;

  /// Balance helpers shared by platforms and workloads.
  static int64_t BalanceOf(const StateDb& db, const std::string& account);
  static Status Credit(StateDb* db, const std::string& account,
                       int64_t amount);

 private:
  StateDb* db_;
  std::string contract_;
};

}  // namespace bb::chain

#endif  // BLOCKBENCH_CHAIN_STATE_DB_H_
