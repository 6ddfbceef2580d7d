// BucketMerkleTree: Hyperledger Fabric v0.6's state hashing scheme.
//
// State keys are hashed into a fixed number of buckets; a Merkle tree is
// built over the bucket digests and its root goes into the block header.
// Entries themselves live flat in the backing KvStore (Fabric "outsources
// its data management entirely to the storage engine"), so unlike the
// Patricia trie there is no per-write node amplification and no historical
// versioning — which is exactly the data-model trade-off the paper probes
// with IOHeavy and the Analytics Q2 workload.
//
// Bucket digests are maintained incrementally: each entry contributes
// SHA-256(key || value), combined by addition mod 2^256, so updates are
// O(1) instead of rehashing the whole bucket.
//
// A write's effect on the digests is one Delta: its bucket and the
// entry digest it added (new minus old, mod 2^256), with the size of the
// value it replaced. A tree that logged its writes' deltas lets another
// tree over the same contents replay them: the same store ops (or none,
// when the two share a storage::GroupStore), each delta added, the
// logged root adopted, with no reads of old values, no entry hashing and
// no root rebuild.

#ifndef BLOCKBENCH_STORAGE_BUCKET_TREE_H_
#define BLOCKBENCH_STORAGE_BUCKET_TREE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "storage/kvstore.h"
#include "util/sha256.h"

namespace bb::storage {

class BucketMerkleTree {
 public:
  /// What one write added to the bucket digests, and what it found:
  /// whether the key was present and its old value's size.
  struct Delta {
    uint32_t bucket;
    Hash256 digest;
    uint32_t old_size = 0;
    bool present = false;
  };

  /// `store` holds the actual key/value state; not owned.
  explicit BucketMerkleTree(KvStore* store, size_t num_buckets = 1024);

  Status Put(Slice key, Slice value);
  Status Get(Slice key, std::string* value) const;
  Status Delete(Slice key);

  /// While set, every Put and Delete appends the Delta it applied to
  /// *log; a Delete of an absent key appends a zero one. Null stops.
  void set_delta_log(std::vector<Delta>* log) { delta_log_ = log; }
  /// Put and Delete as logged by a tree over the same contents: the
  /// store op, then `delta` added to its bucket. A refused op changes
  /// nothing; a Delete of an absent key returns NotFound.
  Status ReplayPut(Slice key, Slice value, const Delta& delta);
  Status ReplayDelete(Slice key, const Delta& delta);
  /// Adds the delta of a write another tree logged, which this tree's
  /// store took without a store op (storage::GroupKv::Take).
  void AddDelta(const Delta& delta) { Applied(delta); }

  /// Root over all bucket digests. Rebuilds the (small) Merkle tree over
  /// buckets if any digest changed since the last call.
  Hash256 RootHash();
  /// Takes `root`, which a tree with the same digests built, as the
  /// root without rebuilding it (checked when assertions are on).
  void AdoptRoot(const Hash256& root);

  size_t num_buckets() const { return buckets_.size(); }
  uint64_t updates() const { return updates_; }

 private:
  size_t BucketOf(Slice key) const;
  static void DigestAdd(Hash256* acc, const Hash256& h);
  static void DigestSub(Hash256* acc, const Hash256& h);
  /// Adds an accepted write's delta to its bucket and logs it.
  void Applied(const Delta& delta);

  KvStore* store_;
  std::vector<Hash256> buckets_;
  bool dirty_ = true;
  Hash256 root_;
  uint64_t updates_ = 0;
  std::vector<Delta>* delta_log_ = nullptr;
  /// The old value of the entry being written, kept to reuse the
  /// allocation.
  std::string old_;
};

}  // namespace bb::storage

#endif  // BLOCKBENCH_STORAGE_BUCKET_TREE_H_
