// Platform: a cluster of PlatformNode servers sharing one simulated
// network — "a private testnet". Construct, deploy contracts, preload
// state, Start(), then attach clients (the Driver) to the same network.

#ifndef BLOCKBENCH_PLATFORM_PLATFORM_H_
#define BLOCKBENCH_PLATFORM_PLATFORM_H_

#include <memory>
#include <string>
#include <vector>

#include "platform/node.h"

namespace bb::platform {

class Platform {
 public:
  /// Servers get node ids 0..num_servers-1 on a fresh Network owned by
  /// the platform; clients registered later get subsequent ids.
  Platform(sim::Simulation* sim, PlatformOptions options, size_t num_servers,
           uint64_t seed = 42);
  virtual ~Platform();

  sim::Simulation* psim() { return sim_; }
  sim::Network& network() { return *network_; }
  size_t num_servers() const { return nodes_.size(); }
  PlatformNode& node(size_t i) { return *nodes_.at(i); }
  const PlatformOptions& options() const { return options_; }

  // --- Sharding topology ------------------------------------------------------
  // The unsharded base platform is the S == 1 degenerate case of the
  // hooks below; ShardedPlatform (platform/sharding.h) overrides them.

  /// Number of independent consensus groups.
  virtual size_t num_shards() const { return 1; }
  /// Servers per consensus group (== num_servers() when unsharded).
  virtual size_t servers_per_shard() const { return nodes_.size(); }
  /// Which shard a state key hashes to (always 0 when unsharded).
  virtual uint32_t ShardOfKey(const std::string& key) const {
    (void)key;
    return 0;
  }
  /// First node id usable by clients; the Driver assigns client i the id
  /// first_client_id() + i. Sharded platforms reserve an extra id for
  /// the 2PC coordinator between the servers and the clients.
  virtual sim::NodeId first_client_id() const {
    return sim::NodeId(nodes_.size());
  }
  /// Server a client should submit single-shard transactions to, spread
  /// round-robin over the cluster by client index.
  virtual sim::NodeId SubmitServerFor(size_t client_index) const {
    return sim::NodeId(client_index % nodes_.size());
  }
  /// Submission server inside a specific shard (for single-shard
  /// transactions whose keys all hash to `shard`).
  virtual sim::NodeId ServerInShard(uint32_t shard,
                                    size_t client_index) const {
    (void)shard;
    return SubmitServerFor(client_index);
  }
  /// Node id of the cross-shard 2PC coordinator; only meaningful when
  /// num_shards() > 1.
  virtual sim::NodeId coordinator_id() const {
    return sim::NodeId(nodes_.size());
  }

  /// Assembles `casm` once and deploys to every server.
  Status DeployContract(const std::string& name, const std::string& casm);
  /// Deploys registered chaincode to every server.
  Status DeployChaincode(const std::string& name,
                         const std::string& registered_as);
  /// Deploys with the engine matching this platform: EVM platforms get
  /// the assembled contract, the native platform gets the chaincode.
  Status DeployWorkloadContract(const std::string& name,
                                const std::string& casm,
                                const std::string& chaincode_name);

  /// Buffers one genesis write for every server.
  Status PreloadState(const std::string& contract, const std::string& key,
                      const std::string& value);
  /// Commits the buffered genesis writes on every server: the first
  /// commits them and the others replay its commit where they can.
  Status FinalizeGenesis();
  /// Commits one block of transactions on every node, bypassing
  /// consensus (historical-chain preloading). Every node's block shares
  /// the transactions.
  Status PreloadBlock(const std::vector<chain::TxPtr>& txs);

  /// Starts consensus on every server.
  void Start();

  // --- Aggregate statistics ---------------------------------------------------
  uint64_t TotalBlocksProduced() const;
  /// Main-branch blocks as seen by server 0 (summed over one lead server
  /// per shard when sharded).
  virtual uint64_t CanonicalBlocks() const;
  uint64_t TotalTxsExecuted() const;
  /// Snapshots every server's counters into `reg` (labelled per node).
  void ExportMetrics(obs::MetricsRegistry* reg) const;
  /// The block executions the servers share (see platform/exec_memo.h).
  const ExecMemo& exec_memo() const { return exec_memo_; }
  /// The trie nodes the servers share (see storage/node_pool.h).
  const storage::NodePool& node_pool() const { return node_pool_; }

 protected:
  sim::Simulation* sim_;
  PlatformOptions options_;
  std::unique_ptr<sim::Network> network_;
  ExecMemo exec_memo_;
  /// The trie nodes of every server whose state is a trie over memkv
  /// (see storage/node_pool.h). Declared before nodes_, which view it.
  storage::NodePool node_pool_;
  /// PreloadState's writes, until FinalizeGenesis commits them.
  chain::StateDb::WriteSet genesis_;
  std::vector<std::unique_ptr<PlatformNode>> nodes_;
};

/// Builds the platform matching `options`: a plain Platform when
/// options.num_shards <= 1, a ShardedPlatform (with num_servers servers
/// PER SHARD plus one coordinator node) otherwise.
std::unique_ptr<Platform> MakePlatform(sim::Simulation* sim,
                                       PlatformOptions options,
                                       size_t num_servers, uint64_t seed = 42);

}  // namespace bb::platform

#endif  // BLOCKBENCH_PLATFORM_PLATFORM_H_
