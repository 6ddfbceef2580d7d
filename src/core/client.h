// DriverClient: one benchmark client — a simulated process that generates
// workload transactions at a configured rate, submits them to its server,
// and discovers commits by polling getLatestBlock(h), maintaining the
// outstanding-transaction queue described in Section 3.2.

#ifndef BLOCKBENCH_CORE_CLIENT_H_
#define BLOCKBENCH_CORE_CLIENT_H_

#include <deque>
#include <unordered_map>
#include <unordered_set>

#include "core/connector.h"
#include "core/stats.h"
#include "platform/rpc.h"
#include "sim/node.h"

namespace bb::core {

struct ClientConfig {
  /// Open-loop generation rate in tx/s (0 disables open-loop generation).
  double request_rate = 8;
  /// Max submitted-but-unconfirmed transactions. 0 = unbounded.
  /// With request_rate == 0 this makes the client fully closed-loop
  /// ("blocking transactions", the paper's latency mode).
  size_t max_outstanding = 0;
  /// getLatestBlock poll period.
  double poll_interval = 0.5;
  /// Back-off before resubmitting a rejected transaction.
  double retry_interval = 0.25;
  /// Stop generating at this virtual time (polling continues).
  double load_end = 300;
};

class DriverClient : public sim::Node, public BlockchainConnector {
 public:
  /// `platform` (may be null in connector-level tests) supplies the
  /// sharding topology: key-partition routing sends single-shard
  /// transactions to the owning shard and multi-shard ones to the 2PC
  /// coordinator. Commit discovery always polls `server` (the home
  /// shard), which the workload guarantees participates.
  DriverClient(sim::NodeId id, sim::Network* network, uint32_t client_index,
               sim::NodeId server, WorkloadConnector* workload,
               StatsCollector* stats, ClientConfig config, uint64_t seed,
               platform::Platform* platform = nullptr);

  void Start() override;
  double HandleMessage(const sim::Message& msg) override;

  // BlockchainConnector --------------------------------------------------
  void SubmitTransaction(const chain::Transaction& tx) override;
  void RequestLatestBlocks(uint64_t from_height, BlocksCallback cb) override;
  void set_on_reject(RejectCallback cb) override { on_reject_ = std::move(cb); }

  uint32_t client_index() const { return client_index_; }
  size_t outstanding() const { return outstanding_.size(); }
  size_t backlog() const { return backlog_.size(); }
  uint64_t generated() const { return next_seq_; }

 private:
  void GenerateTick();
  void PollTick();
  void RetryTick();
  void GenerateOne();
  void TrySubmit(chain::Transaction tx);
  void OnBlocks(const platform::RpcBlocks& m);

  uint32_t client_index_;
  sim::NodeId server_;
  platform::Platform* platform_ = nullptr;
  WorkloadConnector* workload_;
  StatsCollector* stats_;
  ClientConfig config_;
  Rng rng_;

  uint64_t next_seq_ = 0;
  uint64_t next_req_id_ = 1;
  uint64_t last_height_ = 0;
  // Submitted, unconfirmed, keyed by tx id. The paper's "queue". The
  // handle is the one the servers share; a server rejection copies it
  // back into the backlog.
  std::unordered_map<uint64_t, chain::TxPtr> outstanding_;
  // Generated or rejected, waiting for submission capacity. Not yet
  // shared: TrySubmit stamps submit_time, then wraps.
  std::deque<chain::Transaction> backlog_;
  std::unordered_set<uint64_t> committed_;
  /// Outstanding ids routed through the cross-shard coordinator.
  std::unordered_set<uint64_t> cross_ids_;
  std::unordered_map<uint64_t, BlocksCallback> block_callbacks_;
  RejectCallback on_reject_;
};

}  // namespace bb::core

#endif  // BLOCKBENCH_CORE_CLIENT_H_
