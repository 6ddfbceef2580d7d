// PlatformNode: one server of a platform model — glue between the
// simulated network and an assembled LayerStack. The node owns the tx
// pool and the client-facing submission/RPC interface, and forwards
// sim::Node / consensus::ConsensusHost callbacks into its stack's
// consensus, data and execution layers.

#ifndef BLOCKBENCH_PLATFORM_NODE_H_
#define BLOCKBENCH_PLATFORM_NODE_H_

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "chain/txpool.h"
#include "consensus/engine.h"
#include "platform/exec_memo.h"
#include "platform/layers.h"
#include "platform/options.h"
#include "platform/rpc.h"
#include "sim/node.h"
#include "util/flat_id_table.h"

namespace bb::platform {

class PlatformNode : public sim::Node, public consensus::ConsensusHost {
 public:
  /// A state over memkv lives in the stores the platform's replicas
  /// share (private ones when null; see DataLayer::Make).
  PlatformNode(sim::NodeId id, sim::Network* network, PlatformOptions options,
               uint64_t seed, SharedStores shared = {});
  ~PlatformNode() override;

  // --- Setup (before Start) ------------------------------------------------
  // Every server of a platform must host the same contracts: replicas
  // take each other's block executions from the platform's ExecMemo.
  // Platform::DeployContract / DeployChaincode are the only callers and
  // deploy to every server.

  /// Deploys an assembled EVM contract under `name`.
  Status DeployContract(const std::string& name, const vm::Program& program);
  /// Instantiates registered chaincode under `name` (Hyperledger model).
  Status DeployChaincode(const std::string& name,
                         const std::string& registered_as);
  /// Commits the platform's preloaded state into the genesis version.
  /// The first server to commit it logs its commit in *log; the others
  /// replay that log (StateDb::Replay).
  Status FinalizeGenesis(const chain::StateDb::WriteSet& genesis,
                         chain::StateDb::CommitLog* log);
  /// Applies a block of transactions bypassing consensus (fast preload of
  /// historical chain data for the Analytics workload). All nodes must be
  /// given identical batches in identical order.
  Status DirectCommit(const std::vector<chain::TxPtr>& txs);

  // --- sim::Node -------------------------------------------------------------
  void Start() override;
  double HandleMessage(const sim::Message& msg) override;
  void OnCrash() override;
  void OnRestart() override;

  // --- consensus::ConsensusHost ----------------------------------------------
  sim::NodeId node_id() const override { return id(); }
  size_t num_nodes() const override { return num_peers_; }
  sim::Simulation* host_sim() override { return sim(); }
  double HostNow() const override { return Now(); }
  void HostBroadcast(sim::MsgKind kind, sim::Payload payload,
                     uint64_t size_bytes) override;
  bool HostSend(sim::NodeId to, sim::MsgKind kind, sim::Payload payload,
                uint64_t size_bytes) override;
  std::optional<chain::Block> BuildBlock(const Hash256& parent,
                                         uint64_t parent_height,
                                         bool allow_empty,
                                         double* build_cpu) override;
  bool CommitBlock(chain::BlockPtr block, double* cpu) override;
  sim::NodeId peer_base() const override { return peer_base_; }
  const chain::ChainStore& chain_store() const override {
    return stack_->data().chain();
  }
  size_t pending_txs() const override { return pool_.pending(); }
  void RequeueTxs(const std::vector<chain::TxPtr>& txs) override;
  void ChargeBackground(double cpu_seconds) override {
    ChargeBackgroundCpu(cpu_seconds);
  }

  // --- Introspection -----------------------------------------------------------
  const PlatformOptions& options() const { return options_; }
  LayerStack& stack() { return *stack_; }
  const chain::ChainStore& chain() const { return stack_->data().chain(); }
  chain::StateDb& state() { return stack_->data().state(); }
  consensus::Engine& engine() { return stack_->consensus().engine(); }
  /// Height below which blocks count as confirmed for clients.
  uint64_t ConfirmedHeight() const;
  uint64_t txs_executed() const { return txs_executed_; }
  uint64_t txs_failed() const { return txs_failed_; }
  uint64_t blocks_produced() const { return blocks_produced_; }
  size_t pool_peak() const { return pool_peak_; }
  const Histogram& gas_per_block() const { return gas_per_block_; }

  /// Snapshots this node's counters (pool, chain, meter, engine, state)
  /// into `reg`, labelled {node=<id>}.
  void ExportMetrics(obs::MetricsRegistry* reg) const;
  /// Peers whose id is the server set (set by Platform during setup).
  void set_num_peers(size_t n) { num_peers_ = n; }
  /// Sets this node's consensus group to ids [base, base + n): Platform
  /// assigns each node its group, all servers when unsharded and its
  /// shard's servers when sharded.
  void set_peer_group(sim::NodeId base, size_t n) {
    peer_base_ = base;
    num_peers_ = n;
  }
  /// Shares block executions with the other replicas through `memo`
  /// (set by Platform during setup; null executes every block).
  void set_exec_memo(ExecMemo* memo) { exec_memo_ = memo; }
  /// Blocks this node took from the memo / executed and recorded there.
  uint64_t exec_memo_hits() const { return exec_memo_hits_; }
  uint64_t exec_memo_misses() const { return exec_memo_misses_; }
  /// Blocks whose state commit the store refused (Parity's memory cap):
  /// the chain advanced past them without their writes.
  uint64_t state_commit_failures() const { return state_commit_failures_; }
  /// Enables cross-shard 2PC participation: whenever a "__xshard"
  /// prepare/abort record is canonically executed, notify `coordinator`
  /// with an XsSealed message so it can drive the protocol forward.
  void set_xs_notify(sim::NodeId coordinator) { xs_notify_ = coordinator; }

  /// Executes a read-only contract call against current state (shared by
  /// the RPC path and local analytics). Discards any writes.
  Result<vm::Value> QueryContract(const std::string& contract,
                                  const std::string& function,
                                  const vm::Args& args, double* cpu);

 private:
  double DispatchMessage(const sim::Message& msg);
  double HandleClientTx(const sim::Message& msg);
  double HandleGossipTx(const sim::Message& msg);
  double HandleRpc(const sim::Message& msg);

  /// Re-reads the O(1) byte counters of every layer into the attached
  /// MemTracker (no-op when none is attached — one branch).
  void SyncMemGauges();

  /// Executes one transaction against current state; returns CPU cost.
  /// *gas_out (optional) receives the gas consumed (EVM engine only).
  double ExecuteTx(const chain::Transaction& tx, uint64_t* gas_out = nullptr);
  /// Runs `block`'s transactions through the execution layer; returns
  /// the block's gas. Fills `record` (optional) with its outputs.
  uint64_t ExecuteBlock(const chain::Block& block, double* cpu,
                        ExecMemo::Entry* record);
  /// Brings state execution in line with the canonical chain (handles
  /// reorgs on versioned state).
  void ExecuteCanonical(double* cpu);

  PlatformOptions options_;
  size_t num_peers_ = 1;
  sim::NodeId peer_base_ = 0;
  /// Coordinator to notify when __xshard records seal (-1 = disabled).
  std::optional<sim::NodeId> xs_notify_;

  chain::TxPool pool_;
  std::unique_ptr<LayerStack> stack_;

  /// Sync-style memory gauges, bound in the constructor when the
  /// simulation has a MemTracker attached; disabled (null) otherwise.
  obs::mem::Gauge mem_pool_;
  obs::mem::Gauge mem_consensus_;
  obs::mem::Gauge mem_chain_;
  obs::mem::Gauge mem_vm_;
  obs::mem::Gauge mem_obs_;

  /// Height of the block currently being executed (for TxContext).
  uint64_t executing_height_ = 0;
  /// Execution bookkeeping along the canonical chain.
  uint64_t exec_height_ = 0;
  Hash256 exec_block_hash_;
  std::unordered_map<Hash256, Hash256, Hash256Hasher> block_state_roots_;
  /// Ids of canonically executed transactions; only a rollback clears
  /// one. A paged bitmap, so a run's dense client ids cost a bit each
  /// (64 B per 512-id page); no mem gauge counts it.
  util::FlatIdSet committed_ids_;
  ExecMemo* exec_memo_ = nullptr;
  uint64_t exec_memo_hits_ = 0;
  uint64_t exec_memo_misses_ = 0;
  uint64_t state_commit_failures_ = 0;

  /// Admission token bucket (admission_rate_limit).
  double admission_tokens_ = 0;
  double admission_refill_time_ = 0;

  uint64_t txs_executed_ = 0;
  uint64_t txs_failed_ = 0;
  uint64_t blocks_produced_ = 0;
  /// High-water mark of the tx pool (sampled at admission).
  size_t pool_peak_ = 0;
  /// Gas consumed per canonically executed block (EVM execution only).
  Histogram gas_per_block_;
};

}  // namespace bb::platform

#endif  // BLOCKBENCH_PLATFORM_NODE_H_
