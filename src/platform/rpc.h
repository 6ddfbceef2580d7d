// Message schemas of the client<->server interface: transaction submission
// and the JSON-RPC-like query API ("current systems support a minimum set
// of queries including getting blocks and transactions based on their
// IDs"; Ethereum/Parity add account state at specific blocks).

#ifndef BLOCKBENCH_PLATFORM_RPC_H_
#define BLOCKBENCH_PLATFORM_RPC_H_

#include <memory>
#include <vector>

#include "chain/block.h"
#include "chain/transaction.h"
#include "vm/value.h"

namespace bb::platform {

using BlockPtr = std::shared_ptr<const chain::Block>;

/// MsgKind::kClientTx. Client -> server transaction submission. The
/// server's pool and its gossip share the client's object.
struct ClientTx {
  chain::TxPtr tx;
};

/// MsgKind::kClientTxReject. Server pool is full; client should back off.
struct ClientTxReject {
  uint64_t tx_id;
};

/// MsgKind::kGossipTx. Server -> server relay of an admitted
/// transaction; all peers of the broadcast share the one payload, and
/// each peer's pool shares the transaction it carries.
struct GossipTx {
  chain::TxPtr tx;
};

/// Cross-shard 2PC wire protocol (platform/sharding.h) ---------------------

/// Pseudo-contract name of 2PC prepare/abort records. The records are
/// ordinary transactions sealed into participant chains; executing them
/// is a no-op (no such contract is deployed, value = 0), but the auditor
/// replays them to check cross-shard atomicity.
inline constexpr char kXsContract[] = "__xshard";

/// Record-id encoding: the prepare/abort records for transaction `id`
/// reuse the id with one distinguishing high bit (client tx ids occupy
/// the low 48 bits, so bits 62/63 are free).
inline constexpr uint64_t kXsPrepareBit = uint64_t(1) << 62;
inline constexpr uint64_t kXsAbortBit = uint64_t(1) << 63;
inline uint64_t XsBaseId(uint64_t record_id) {
  return record_id & ~(kXsPrepareBit | kXsAbortBit);
}

/// MsgKind::kXsClientTx. Client -> coordinator: a transaction whose keys
/// straddle `shards` (at least two of them).
struct XsClientTx {
  chain::TxPtr tx;
  std::vector<uint32_t> shards;
};

/// MsgKind::kXsSealed. Participant server -> coordinator: a "__xshard"
/// record (or cross-shard commit) was canonically executed on its chain.
struct XsSealed {
  uint64_t record_id;
};

/// MsgKind::kRpcGetBlocks. getLatestBlock(h): confirmed blocks above h.
struct RpcGetBlocks {
  uint64_t req_id;
  uint64_t from_height;
};
/// MsgKind::kRpcBlocks.
struct RpcBlocks {
  uint64_t req_id;
  uint64_t confirmed_height;
  std::vector<BlockPtr> blocks;
};

/// MsgKind::kRpcGetBlock. Single block by height (canonical, confirmed).
struct RpcGetBlock {
  uint64_t req_id;
  uint64_t height;
};
/// MsgKind::kRpcBlock. block is null when unavailable.
struct RpcBlock {
  uint64_t req_id;
  BlockPtr block;
};

/// MsgKind::kRpcGetBalance. Account balance at a historical block
/// (Ethereum/Parity only — needs versioned state).
struct RpcGetBalance {
  uint64_t req_id;
  std::string account;
  uint64_t height;
};
/// MsgKind::kRpcBalance.
struct RpcBalance {
  uint64_t req_id;
  bool ok;
  int64_t balance;
};

/// MsgKind::kRpcQuery. Read-only contract invocation on current state
/// (Hyperledger chaincode query path).
struct RpcQuery {
  uint64_t req_id;
  std::string contract;
  std::string function;
  vm::Args args;
};
/// MsgKind::kRpcResult.
struct RpcResult {
  uint64_t req_id;
  bool ok;
  vm::Value value;
};

}  // namespace bb::platform

#endif  // BLOCKBENCH_PLATFORM_RPC_H_
