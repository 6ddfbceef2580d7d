// Block and BlockHeader, mirroring Figure 1 of the paper: header carries
// the parent pointer, the transaction Merkle root, and the state root.

#ifndef BLOCKBENCH_CHAIN_BLOCK_H_
#define BLOCKBENCH_CHAIN_BLOCK_H_

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "chain/transaction.h"
#include "util/sha256.h"

namespace bb::chain {

struct BlockHeader {
  Hash256 parent;
  uint64_t height = 0;
  Hash256 tx_root;
  Hash256 state_root;
  /// Node id of the proposer/miner.
  uint32_t proposer = 0;
  /// Virtual time when the block was sealed.
  double timestamp = 0;
  /// PoW nonce / PoA step / PBFT sequence number, per consensus.
  uint64_t nonce = 0;
  /// Chain-work carried by this block (PoW difficulty; 1 for PoA/PBFT).
  uint64_t weight = 1;

  std::string Serialize() const;
  Hash256 HashOf() const;

  bool operator==(const BlockHeader&) const = default;
};

struct Block;
/// Shared immutable block handle, the unit of the zero-copy message path.
using BlockPtr = std::shared_ptr<const Block>;

/// A block is assembled mutably (header fields, txs, SealTxRoot), then
/// handed to Seal(), which computes its hash and wire size exactly once
/// and freezes it behind a BlockPtr. Move-only: blocks travel as
/// BlockPtr, so a copy is never needed.
struct Block {
  BlockHeader header;
  /// Sealed transactions, shared with the pools that admitted them.
  std::vector<TxPtr> txs;

  Block() = default;
  Block(Block&&) = default;
  Block& operator=(Block&&) = default;

  /// Header hash computed by Seal().
  Hash256 HashOf() const {
    assert(size_ != 0 && "block not sealed");
    return hash_;
  }
  /// Wire size of the whole block, computed by Seal().
  size_t SizeBytes() const {
    assert(size_ != 0 && "block not sealed");
    return size_;
  }

  /// Installs the Merkle root over the txs' hashes into the header.
  void SealTxRoot();

 private:
  friend BlockPtr Seal(Block block);
  Hash256 hash_;
  size_t size_ = 0;
};

/// The one place a block's hash and size are computed: stamp every
/// header field first, then seal.
BlockPtr Seal(Block block);

}  // namespace bb::chain

#endif  // BLOCKBENCH_CHAIN_BLOCK_H_
