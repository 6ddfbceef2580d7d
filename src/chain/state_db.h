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

#include "obs/metrics.h"
#include "storage/bucket_tree.h"
#include "storage/kvstore.h"
#include "storage/patricia_trie.h"
#include "util/sha256.h"
#include "vm/host.h"

namespace bb::chain {

class StateDb {
 public:
  virtual ~StateDb() = default;

  /// Reads from the current (uncommitted writes visible) state.
  virtual Status Get(const std::string& ns, const std::string& key,
                     std::string* value) const = 0;
  /// Buffers a write; becomes durable at Commit().
  virtual Status Put(const std::string& ns, const std::string& key,
                     const std::string& value) = 0;
  virtual Status Delete(const std::string& ns, const std::string& key) = 0;

  /// Applies buffered writes; returns the new state root.
  virtual Result<Hash256> Commit() = 0;
  /// Drops buffered writes (failed block application).
  virtual void Abort() = 0;

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

  /// Exports data-model metrics into `reg` under `labels`; concrete
  /// models add their own (trie node traffic, cache hit rates).
  virtual void ExportMetrics(obs::MetricsRegistry* reg,
                             const obs::Labels& labels) const {
    reg->SetGauge("state.storage_bytes", labels, double(storage_bytes()));
  }

 protected:
  static std::string FullKey(const std::string& ns, const std::string& key) {
    std::string out;
    out.reserve(ns.size() + 1 + key.size());
    out.append(ns);
    out.push_back('\0');
    out.append(key);
    return out;
  }
};

class TrieStateDb : public StateDb {
 public:
  /// `store` backs the trie nodes; not owned. `cache_entries` bounds the
  /// decoded-node cache in front of it (see MerklePatriciaTrie).
  explicit TrieStateDb(storage::KvStore* store, size_t cache_entries = 0);

  Status Get(const std::string& ns, const std::string& key,
             std::string* value) const override;
  Status Put(const std::string& ns, const std::string& key,
             const std::string& value) override;
  Status Delete(const std::string& ns, const std::string& key) override;
  Result<Hash256> Commit() override;
  void Abort() override { pending_.clear(); }
  Hash256 current_root() const override { return root_; }
  Status ResetTo(const Hash256& root) override;
  Status GetAt(const Hash256& root, const std::string& ns,
               const std::string& key, std::string* value) const override;
  bool supports_versioned_reads() const override { return true; }
  uint64_t storage_bytes() const override { return store_->size_bytes(); }
  void ExportMetrics(obs::MetricsRegistry* reg,
                     const obs::Labels& labels) const override {
    StateDb::ExportMetrics(reg, labels);
    const storage::TrieStats& s = trie_stats();
    reg->AddCounter("state.trie_node_reads", labels, s.node_reads);
    reg->AddCounter("state.trie_node_writes", labels, s.node_writes);
    reg->AddCounter("state.trie_bytes_written", labels, s.bytes_written);
  }

  const storage::TrieStats& trie_stats() const { return trie_.stats(); }

 private:
  struct PendingWrite {
    bool present;
    std::string value;
  };

  storage::KvStore* store_;
  mutable storage::MerklePatriciaTrie trie_;
  Hash256 root_ = storage::MerklePatriciaTrie::EmptyRoot();
  std::map<std::string, PendingWrite> pending_;
};

class BucketStateDb : public StateDb {
 public:
  explicit BucketStateDb(storage::KvStore* store, size_t num_buckets = 1024);

  Status Get(const std::string& ns, const std::string& key,
             std::string* value) const override;
  Status Put(const std::string& ns, const std::string& key,
             const std::string& value) override;
  Status Delete(const std::string& ns, const std::string& key) override;
  Result<Hash256> Commit() override;
  void Abort() override { pending_.clear(); }
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

 private:
  struct PendingWrite {
    bool present;
    std::string value;
  };

  storage::KvStore* store_;
  mutable storage::BucketMerkleTree tree_;
  Hash256 root_;
  std::map<std::string, PendingWrite> pending_;
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
