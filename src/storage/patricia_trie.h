// MerklePatriciaTrie: a hex-nibble Patricia-Merkle trie, the authenticated
// state structure of the Ethereum and Parity platform models.
//
// Nodes are content-addressed (key = SHA-256 of the encoded node) and
// persisted in a backing KvStore, so every Put/Delete produces a new root
// hash while old versions stay readable — which is both how Ethereum
// supports state queries "at a specific block" (Analytics workload) and
// why the trie has the write/space amplification the IOHeavy experiment
// measures.
//
// A bounded FIFO cache of decoded nodes can sit in front of the store. The
// IOHeavy experiment (fig12) gives Ethereum's trie over DiskKv one, to
// model Ethereum's in-memory cache of part of its on-disk state; there it
// roughly doubles the read rate and slows writes by a fifth to a third.
// Platforms build their tries without one. No virtual-time cost reads the
// cache, and it keeps a second, larger copy of each hot node (a decoded
// Node carries 16 child hashes even as a leaf): over MemKv it duplicates
// nodes the store already holds, and over DiskKv it made whole platform
// runs no faster while holding ~400 MB more (docs/BENCHMARKING.md). The
// cache never changes which nodes are written, so roots and write counts
// are the same at any capacity.

#ifndef BLOCKBENCH_STORAGE_PATRICIA_TRIE_H_
#define BLOCKBENCH_STORAGE_PATRICIA_TRIE_H_

#include <list>
#include <vector>
#include <string>
#include <unordered_map>

#include "storage/kvstore.h"
#include "util/sha256.h"

namespace bb::storage {

/// Decoded-node cache capacity of the IOHeavy experiment's Ethereum trie
/// over DiskKv.
inline constexpr size_t kDiskTrieCacheEntries = size_t(1) << 16;

struct TrieStats {
  uint64_t node_writes = 0;
  uint64_t node_reads = 0;
  uint64_t bytes_written = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
};

class MerklePatriciaTrie {
 public:
  /// `nodes` stores encoded trie nodes; not owned. `cache_entries` bounds
  /// the decoded-node cache; with 0 there is none, and node reads count
  /// neither cache hits nor misses.
  explicit MerklePatriciaTrie(KvStore* nodes, size_t cache_entries = 0)
      : nodes_(nodes), cache_capacity_(cache_entries) {}

  /// Root hash of the empty trie.
  static Hash256 EmptyRoot() { return Hash256::Zero(); }

  /// Inserts/updates key under `root`; returns the new root.
  Result<Hash256> Put(const Hash256& root, Slice key, Slice value);
  /// Looks up key in the version identified by `root`.
  Status Get(const Hash256& root, Slice key, std::string* value) const;
  /// Removes key; returns the new root (possibly EmptyRoot()).
  /// NotFound if the key was absent.
  Result<Hash256> Delete(const Hash256& root, Slice key);

  /// Merkle inclusion proof: the encoded nodes along the path from the
  /// root to `key` in version `root`. A light client holding only the
  /// root hash can verify key/value with VerifyProof. NotFound when the
  /// key is absent (this trie does not emit non-membership proofs).
  Result<std::vector<std::string>> Prove(const Hash256& root,
                                         Slice key) const;
  /// Verifies that `key` maps to `value` under `root_hash` given the
  /// proof nodes. Pure function of its inputs: needs no store access.
  static bool VerifyProof(const Hash256& root_hash, Slice key, Slice value,
                          const std::vector<std::string>& proof);

  const TrieStats& stats() const { return stats_; }

 private:
  struct Node {
    enum Kind : uint8_t { kLeaf = 1, kExtension = 2, kBranch = 3 };
    Kind kind = kLeaf;
    std::string path;  // nibbles (one per byte, values 0..15); leaf/extension
    std::string value; // leaf value, or branch value when has_value
    bool has_value = false;
    Hash256 child;             // extension child
    Hash256 children[16] = {}; // branch children; zero hash = absent
  };

  static std::string ToNibbles(Slice key);
  static std::string Encode(const Node& n);
  static Status Decode(Slice data, Node* n);

  Hash256 Store(const Node& n);
  Status Load(const Hash256& h, Node* n) const;

  Result<Hash256> Insert(const Hash256& node_hash, Slice nibbles, Slice value);
  /// Deletion helper: *deleted set true on success; returns new subtree
  /// hash (zero = empty subtree).
  Result<Hash256> Remove(const Hash256& node_hash, Slice nibbles,
                         bool* deleted);
  /// Re-normalizes a branch that may have lost entries, collapsing
  /// single-child branches into leaf/extension nodes.
  Result<Hash256> NormalizeBranch(Node branch);
  /// Prefixes `nibble_prefix` onto the node identified by `h` (merging
  /// into its path when possible) and stores the result.
  Result<Hash256> PrependPath(const std::string& nibble_prefix,
                              const Hash256& h);

  void CachePut(const Hash256& h, const Node& n) const;
  bool CacheGet(const Hash256& h, Node* n) const;

  KvStore* nodes_;
  size_t cache_capacity_;
  /// Sticky node-store failure during the current Put/Delete.
  Status store_error_;
  mutable TrieStats stats_;
  // FIFO-evicted decoded-node cache.
  mutable std::unordered_map<Hash256, Node, Hash256Hasher> cache_;
  mutable std::list<Hash256> cache_order_;
};

}  // namespace bb::storage

#endif  // BLOCKBENCH_STORAGE_PATRICIA_TRIE_H_
