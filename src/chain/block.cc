#include "chain/block.h"

#include "storage/merkle_tree.h"
#include "util/codec.h"
#include "obs/profiler.h"

namespace bb::chain {

namespace {
constexpr size_t kHeaderWireBytes = 200;  // hashes + metadata + seal
}

std::string BlockHeader::Serialize() const {
  std::string out;
  out.append(reinterpret_cast<const char*>(parent.bytes.data()), 32);
  PutFixed64(&out, height);
  out.append(reinterpret_cast<const char*>(tx_root.bytes.data()), 32);
  out.append(reinterpret_cast<const char*>(state_root.bytes.data()), 32);
  PutFixed32(&out, proposer);
  PutFixed64(&out, uint64_t(timestamp * 1e6));
  PutFixed64(&out, nonce);
  PutFixed64(&out, weight);
  return out;
}

Hash256 BlockHeader::HashOf() const { return Sha256::Digest(Serialize()); }

void Block::SealTxRoot() {
  BB_PROF_SCOPE("hash.seal_tx_root");
  std::vector<Hash256> leaves;
  leaves.reserve(txs.size());
  for (const auto& tx : txs) leaves.push_back(tx->HashOf());
  header.tx_root = storage::MerkleTree(std::move(leaves)).root();
}

BlockPtr Seal(Block block) {
  BB_PROF_SCOPE("hash.block_hash");
  block.hash_ = block.header.HashOf();
  block.size_ = kHeaderWireBytes;
  for (const auto& tx : block.txs) block.size_ += tx->SizeBytes();
  return std::make_shared<const Block>(std::move(block));
}

}  // namespace bb::chain
