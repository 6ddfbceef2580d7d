// ChainStore: a node's view of the block tree.
//
// Keeps every block received (including fork branches), selects the head
// by cumulative chain weight (heaviest chain — Ethereum's simplification
// of GHOST; equals longest chain when all weights are 1), maintains the
// canonical chain index, and buffers blocks whose parent has not arrived
// yet. Fork statistics feed the security experiment (Fig 10).
//
// Blocks are stored behind shared_ptr<const Block> so gossip, sync replies
// and RPC serving hand out refcounted pointers instead of copying tx
// payloads (the zero-copy message path; see DESIGN.md "Hot path").

#ifndef BLOCKBENCH_CHAIN_CHAIN_STORE_H_
#define BLOCKBENCH_CHAIN_CHAIN_STORE_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "chain/block.h"

namespace bb::chain {

class ChainStore {
 public:
  /// Seals `genesis` at height 0.
  explicit ChainStore(Block genesis);

  struct AddResult {
    /// False when the parent is unknown (block parked in the orphan buffer).
    bool attached = false;
    /// True when this insertion changed the canonical head (possibly a
    /// reorganization).
    bool head_changed = false;
    /// True when the block was already known (no-op).
    bool duplicate = false;
  };

  AddResult AddBlock(BlockPtr block);
  /// Convenience for by-value callers (tests): seals, then adds.
  AddResult AddBlock(Block block) { return AddBlock(Seal(std::move(block))); }

  bool Contains(const Hash256& hash) const { return entries_.count(hash) > 0; }
  /// Null when unknown.
  const Block* GetBlock(const Hash256& hash) const;
  /// Shared handle for forwarding without a copy; null when unknown.
  BlockPtr GetBlockPtr(const Hash256& hash) const;

  const Hash256& head() const { return head_; }
  /// O(1): UpdateCanonical extends canonical_ to the head whenever the
  /// head moves.
  uint64_t head_height() const { return canonical_.size() - 1; }
  uint64_t HeightOf(const Hash256& hash) const;
  uint64_t CumulativeWeightOf(const Hash256& hash) const;

  /// Canonical block at `height` (<= head_height()); null if out of range.
  const Block* CanonicalAt(uint64_t height) const;
  BlockPtr CanonicalAtPtr(uint64_t height) const;
  /// Canonical blocks with height in (from, to]; to is clamped to head.
  std::vector<const Block*> CanonicalRange(uint64_t from_exclusive,
                                           uint64_t to_inclusive) const;
  /// Same range as shared handles (sync replies gossip these directly).
  std::vector<BlockPtr> CanonicalRangePtr(uint64_t from_exclusive,
                                          uint64_t to_inclusive) const;
  bool IsCanonical(const Hash256& hash) const;

  /// All attached blocks excluding genesis (fork branches included).
  size_t total_blocks() const { return entries_.size() - 1; }
  /// Canonical blocks excluding genesis.
  size_t main_chain_blocks() const { return canonical_.size() - 1; }
  /// Blocks off the canonical chain = total - main. The paper's Δ.
  size_t orphaned_blocks() const {
    return total_blocks() - main_chain_blocks();
  }
  size_t pending_orphans() const { return orphan_buffer_count_; }
  /// Wire bytes of everything the store holds: attached blocks (genesis
  /// and fork branches included) plus the orphan buffer. Blocks are
  /// never evicted, so this only shrinks when a buffered orphan turns
  /// out invalid (mem observability: the chain.blocks subsystem).
  uint64_t stored_bytes() const { return stored_bytes_; }
  const Hash256& genesis() const { return genesis_; }
  /// Visits every attached block, genesis included, in storage order
  /// (unspecified — callers needing determinism must sort by hash).
  template <typename Fn>
  void ForEachBlock(Fn&& fn) const {
    for (const auto& [hash, entry] : entries_) fn(hash, *entry.block);
  }
  /// Blocks rejected for claiming an inconsistent height.
  uint64_t invalid_blocks() const { return invalid_blocks_; }
  /// Number of head reorganizations observed (head moved to a block whose
  /// parent was not the previous head).
  uint64_t reorgs() const { return reorgs_; }

 private:
  struct Entry {
    BlockPtr block;
    uint64_t cumulative_weight;
  };

  void Attach(BlockPtr block);
  void UpdateCanonical();

  std::unordered_map<Hash256, Entry, Hash256Hasher> entries_;
  // parent hash -> blocks waiting for it.
  std::unordered_map<Hash256, std::vector<BlockPtr>, Hash256Hasher> orphans_;
  size_t orphan_buffer_count_ = 0;
  std::vector<Hash256> canonical_;  // index = height
  Hash256 head_;
  Hash256 genesis_;
  uint64_t reorgs_ = 0;
  uint64_t invalid_blocks_ = 0;
  uint64_t stored_bytes_ = 0;
};

}  // namespace bb::chain

#endif  // BLOCKBENCH_CHAIN_CHAIN_STORE_H_
