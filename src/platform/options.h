// Platform configuration: a declarative layer-stack description plus one
// options struct per layer, with factory functions producing the
// calibrated Ethereum / Parity / Hyperledger / ErisDB / Corda models the
// benchmarks run against. The factories are registered by name in the
// PlatformRegistry (platform/registry.h).

#ifndef BLOCKBENCH_PLATFORM_OPTIONS_H_
#define BLOCKBENCH_PLATFORM_OPTIONS_H_

#include <string>

#include "consensus/pbft.h"
#include "consensus/raft.h"
#include "consensus/tendermint.h"
#include "consensus/poa.h"
#include "consensus/pow.h"
#include "sim/network.h"
#include "util/status.h"
#include "vm/interpreter.h"

namespace bb::platform {

// The paper's layer taxonomy (§3): each axis below is one independently
// swappable layer, assembled into a LayerStack (platform/layers.h).

/// Consensus layer: which agreement protocol orders blocks.
enum class ConsensusKind { kPow, kPoa, kPbft, kTendermint, kRaft };
/// Execution layer: how deployed contracts run. kNoop accepts any deploy
/// and executes nothing — the consensus/data ablation baseline.
enum class ExecEngineKind { kEvm, kNative, kNoop };
/// Data layer, authenticated-structure axis: Patricia-Merkle trie
/// (Ethereum/Parity; versioned reads) vs bucket-Merkle tree (Hyperledger;
/// mutable in place).
enum class StateTreeKind { kPatriciaTrie, kBucketTree };
/// Data layer, backing-store axis: in-memory KV (capacity-bounded via
/// state_mem_capacity) vs the append-log disk store (needs data_dir).
enum class StorageBackendKind { kMemKv, kDiskKv };

const char* ToString(ConsensusKind kind);
const char* ToString(ExecEngineKind kind);
const char* ToString(StateTreeKind kind);
const char* ToString(StorageBackendKind kind);

/// Declarative stack description: which concrete layer fills each slot.
/// The five canonical platforms are just named StackSpec values plus
/// calibration; mix-and-match specs (e.g. PBFT over the Ethereum data
/// model) are equally valid — see registry.h.
struct StackSpec {
  ConsensusKind consensus = ConsensusKind::kPow;
  StateTreeKind state_tree = StateTreeKind::kPatriciaTrie;
  StorageBackendKind storage = StorageBackendKind::kMemKv;
  ExecEngineKind exec_engine = ExecEngineKind::kEvm;

  bool operator==(const StackSpec& o) const {
    return consensus == o.consensus && state_tree == o.state_tree &&
           storage == o.storage && exec_engine == o.exec_engine;
  }
};

/// "pbft+bucket/memkv+native"-style rendering of a stack.
std::string ToString(const StackSpec& spec);

/// Maps execution receipts to virtual CPU seconds, so contract cost shows
/// up in throughput/latency the way it did on the paper's testbed.
struct ExecCostModel {
  /// Per-transaction fixed cost (signature recovery, dispatch).
  double tx_fixed_cpu = 1e-4;
  /// EVM: virtual seconds per unit of gas.
  double seconds_per_gas = 2e-8;
  /// Native: per storage operation.
  double native_op_cpu = 2e-5;
  /// Block assembly overhead per transaction (pool pop, envelope checks).
  double assemble_tx_cpu = 2e-5;
};

struct PlatformOptions {
  std::string name = "ethereum";
  /// Which concrete layer fills each slot of the stack.
  StackSpec stack;

  consensus::PowConfig pow;
  consensus::PoaConfig poa;
  consensus::PbftConfig pbft;
  consensus::TendermintConfig tendermint;
  consensus::RaftConfig raft;

  sim::NetworkConfig net;
  /// Bounded consensus message channel (Hyperledger model): max queued
  /// messages of the PBFT inbox class (sim::InInboxClass) per node;
  /// overflow is dropped. 0 = unbounded.
  size_t consensus_channel_capacity = 0;

  /// Block assembly -------------------------------------------------------
  /// Max transactions per block (derived from gasLimit for Ethereum,
  /// batchSize for Hyperledger, the signing budget for Parity).
  size_t block_tx_limit = 700;
  /// Max block payload bytes (0 = unlimited).
  size_t block_byte_limit = 0;
  /// Gas-based block packing (EVM platforms only; 0 = off): the proposer
  /// executes candidates speculatively while assembling the block and
  /// stops at the gas limit, exactly as geth miners do.
  uint64_t block_gas_limit = 0;
  /// Blocks below the tip needed before a block counts as confirmed
  /// (ceil(confirmationLength / block interval); 0 for PBFT finality).
  size_t confirmation_depth = 2;

  /// Transaction admission -------------------------------------------------
  /// Server-side pending-pool capacity; submissions beyond it are
  /// rejected back to the client. 0 = unbounded.
  size_t tx_pool_capacity = 0;
  /// Server-side admission rate limit in tx/s (token bucket); 0 = off.
  /// Models Parity's observed ~80 tx/s network-wide client cap.
  double admission_rate_limit = 0;
  /// Batch assembly order: true = newest-first (Parity's gas-price
  /// ordered pool in effect), which keeps commit latency low while the
  /// backlog of accepted transactions grows.
  bool pool_lifo = false;
  /// CPU cost of admitting one client transaction.
  double admission_cpu = 5e-5;
  /// Whether accepted transactions are gossiped to all peers.
  bool gossip_txs = true;
  /// CPU to ingest one gossiped transaction.
  double gossip_ingest_cpu = 2e-5;

  /// Parity only: per-transaction server-side signing cost paid while the
  /// authority seals a block. The sealing budget (a fraction of the step)
  /// bounds block size; this is the paper's Parity bottleneck.
  double seal_sign_cpu = 0;
  /// Fraction of the PoA step usable for signing/sealing.
  double seal_budget_fraction = 0.5;

  /// Execution -------------------------------------------------------------
  vm::VmOptions vm;
  ExecCostModel cost;

  /// State ------------------------------------------------------------------
  /// Memory capacity for the in-memory state backend (Parity); 0 = unlimited.
  uint64_t state_mem_capacity = 0;
  /// Trie node cache entries (Ethereum caches part of the state).
  size_t trie_cache_entries = 1 << 16;
  /// Directory for the disk-backed state backend (StorageBackendKind::kDiskKv);
  /// must be non-empty when that backend is selected.
  std::string data_dir;

  /// RPC --------------------------------------------------------------------
  double rpc_request_cpu = 2e-4;

  /// Sharding ---------------------------------------------------------------
  /// Number of independent consensus groups the platform is partitioned
  /// into. 1 (the default) is the classic unsharded platform; S > 1
  /// builds a ShardedPlatform (platform/sharding.h): S full LayerStacks
  /// over a hash-partitioned state space with 2PC cross-shard commit.
  /// Spelled "@shards=S" in stack specs ("pbft+trie+evm@shards=4").
  size_t num_shards = 1;
  /// Virtual seconds the coordinator waits for every participant shard to
  /// seal a prepare record before aborting the cross-shard transaction.
  double xs_prepare_timeout = 30.0;
  /// Coordinator CPU per cross-shard protocol step (record fan-out,
  /// vote bookkeeping).
  double xs_coordinator_cpu = 1e-4;

  /// Rejects inconsistent layer combinations (gas-based packing on a
  /// non-EVM execution layer, a sealing budget without PoA, a disk
  /// backend without a data_dir, ...) with a message naming the conflict.
  /// Called by the Platform constructor — invalid stacks fail loudly at
  /// assembly instead of silently falling back.
  Status Validate() const;
};

/// geth v1.4.18-like model: PoW, EVM with heavyweight dispatch and boxed
/// words, LevelDB-backed Patricia trie with a partial cache.
PlatformOptions EthereumOptions();
/// Parity v1.6-like model: PoA (stepDuration=1), optimized EVM, all state
/// in memory, server-side signing bottleneck.
PlatformOptions ParityOptions();
/// Fabric v0.6-like model: PBFT (batch 500), native chaincode in Docker,
/// RocksDB-backed bucket tree, bounded consensus message channel.
PlatformOptions HyperledgerOptions();
/// ErisDB-like model: Tendermint (PoS + BFT), EVM contracts, trie state —
/// the backend the paper lists as "under development" for BLOCKBENCH.
PlatformOptions ErisDbOptions();
/// Corda-like model (Table 2): Raft — crash-fault-tolerant only — with
/// JVM-class native execution. The §2 contrast: cheap consensus that
/// trusts every well-formed message.
PlatformOptions CordaOptions();

}  // namespace bb::platform

#endif  // BLOCKBENCH_PLATFORM_OPTIONS_H_
