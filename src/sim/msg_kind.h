// The one list of message kinds sent over the simulated network.
//
// Every entry gives the enumerator, the wire name (the string metrics
// labels, the Fig 16 per-type breakdown and flight-recorder dumps print)
// and whether the kind belongs to the bounded consensus inbox class
// (Fabric v0.6's PBFT channel, see Node::SetInboxClassLimit). A new
// message is one new line here; no other file spells a message name.

#ifndef BLOCKBENCH_SIM_MSG_KIND_H_
#define BLOCKBENCH_SIM_MSG_KIND_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

// X(enumerator, wire name, in the PBFT inbox class)
#define BB_MSG_KINDS(X)                                  \
  /* consensus/pbft */                                   \
  X(kPbftPrePrepare, "pbft_preprepare", true)            \
  X(kPbftPrepare, "pbft_prepare", true)                  \
  X(kPbftCommit, "pbft_commit", true)                    \
  X(kPbftViewChange, "pbft_viewchange", true)            \
  X(kPbftNewView, "pbft_newview", true)                  \
  X(kPbftStatus, "pbft_status", true)                    \
  X(kPbftFetchReq, "pbft_fetchreq", true)                \
  X(kPbftBlocks, "pbft_blocks", true)                    \
  /* consensus/raft */                                   \
  X(kRaftRequestVote, "raft_requestvote", false)         \
  X(kRaftVote, "raft_vote", false)                       \
  X(kRaftAppend, "raft_append", false)                   \
  X(kRaftAppendReply, "raft_appendreply", false)         \
  /* consensus/tendermint */                             \
  X(kTmProposal, "tm_proposal", false)                   \
  X(kTmPrevote, "tm_prevote", false)                     \
  X(kTmPrecommit, "tm_precommit", false)                 \
  /* consensus/pow, consensus/poa */                     \
  X(kPowBlock, "pow_block", false)                       \
  X(kPoaBlock, "poa_block", false)                       \
  /* consensus/engine: chain sync for gossip engines */  \
  X(kSyncFetchReq, "sync_fetchreq", false)               \
  X(kSyncBlocks, "sync_blocks", false)                   \
  /* platform: submission and relay (platform/rpc.h) */  \
  X(kClientTx, "client_tx", false)                       \
  X(kClientTxReject, "client_tx_reject", false)          \
  X(kGossipTx, "gossip_tx", false)                       \
  /* platform: client query API (platform/rpc.h) */      \
  X(kRpcGetBlocks, "rpc_getblocks", false)               \
  X(kRpcBlocks, "rpc_blocks", false)                     \
  X(kRpcGetBlock, "rpc_getblock", false)                 \
  X(kRpcBlock, "rpc_block", false)                       \
  X(kRpcGetBalance, "rpc_getbalance", false)             \
  X(kRpcBalance, "rpc_balance", false)                   \
  X(kRpcQuery, "rpc_query", false)                       \
  X(kRpcResult, "rpc_result", false)                     \
  /* platform/sharding: cross-shard 2PC */               \
  X(kXsClientTx, "xs_client_tx", false)                  \
  X(kXsSealed, "xs_sealed", false)                       \
  /* baseline/hstore: H-Store 2PC */                     \
  X(kHsTxn, "hs_txn", false)                             \
  X(kHsPrepare, "hs_prepare", false)                     \
  X(kHsPrepared, "hs_prepared", false)                   \
  X(kHsVoteAbort, "hs_vote_abort", false)                \
  X(kHsCommit, "hs_commit", false)                       \
  X(kHsAbort, "hs_abort", false)                         \
  X(kHsAck, "hs_ack", false)                             \
  X(kHsDone, "hs_done", false)                           \
  X(kHsAborted, "hs_aborted", false)

namespace bb::sim {

enum class MsgKind : uint8_t {
#define BB_MSG_KIND_ENUM(kind, name, inbox_class) kind,
  BB_MSG_KINDS(BB_MSG_KIND_ENUM)
#undef BB_MSG_KIND_ENUM
};

#define BB_MSG_KIND_COUNT(kind, name, inbox_class) +1
inline constexpr size_t kNumMsgKinds = 0 BB_MSG_KINDS(BB_MSG_KIND_COUNT);
#undef BB_MSG_KIND_COUNT

namespace msg_kind_internal {
struct Info {
  const char* name;
  bool inbox_class;
};
inline constexpr Info kInfo[kNumMsgKinds] = {
#define BB_MSG_KIND_INFO(kind, name, inbox_class) {name, inbox_class},
    BB_MSG_KINDS(BB_MSG_KIND_INFO)
#undef BB_MSG_KIND_INFO
};
}  // namespace msg_kind_internal

/// Wire name, e.g. "pbft_prepare".
constexpr const char* MsgKindName(MsgKind kind) {
  return msg_kind_internal::kInfo[size_t(kind)].name;
}

/// True for the kinds the bounded consensus inbox class holds: exactly
/// the pbft_* kinds.
constexpr bool InInboxClass(MsgKind kind) {
  return msg_kind_internal::kInfo[size_t(kind)].inbox_class;
}

/// Every kind, ordered by wire name: the order per-type counters are
/// reported in.
inline constexpr std::array<MsgKind, kNumMsgKinds> kMsgKindsByName = [] {
  std::array<MsgKind, kNumMsgKinds> kinds{};
  for (size_t i = 0; i < kNumMsgKinds; ++i) kinds[i] = MsgKind(i);
  std::sort(kinds.begin(), kinds.end(), [](MsgKind a, MsgKind b) {
    return std::string_view(MsgKindName(a)) < std::string_view(MsgKindName(b));
  });
  return kinds;
}();

}  // namespace bb::sim

#endif  // BLOCKBENCH_SIM_MSG_KIND_H_
