// The two integration points of the BLOCKBENCH framework (Fig 4):
//
//   * WorkloadConnector  (the paper's IWorkloadConnector): wraps a
//     workload's operations into blockchain transactions via
//     getNextTransaction(), plus contract deployment/preloading.
//   * BlockchainConnector (the paper's IBlockchainConnector): operations
//     to deploy an application, invoke it by sending a transaction, and
//     query blockchain state, including the getLatestBlock(h) poll the
//     asynchronous Driver is built on.
//
// The in-simulator backend (DriverClient over a platform::Platform) is
// the bundled implementation of BlockchainConnector; a real deployment
// would implement the same interface over JSON-RPC/gRPC.

#ifndef BLOCKBENCH_CORE_CONNECTOR_H_
#define BLOCKBENCH_CORE_CONNECTOR_H_

#include <functional>
#include <string>
#include <vector>

#include "chain/block.h"
#include "chain/transaction.h"
#include "platform/platform.h"
#include "util/random.h"

namespace bb::core {

class WorkloadConnector {
 public:
  virtual ~WorkloadConnector() = default;

  /// Deploys the workload's smart contract(s) and preloads state on the
  /// platform. Called once, before the run starts.
  virtual Status Setup(platform::Platform* platform) = 0;

  /// Returns the next transaction for `client_id`. The framework fills
  /// in id and submit_time. Must be deterministic given the Rng.
  virtual chain::Transaction NextTransaction(uint32_t client_id,
                                             Rng& rng) = 0;

  /// State keys `tx` reads or writes, for key-partition routing on
  /// sharded platforms. The default (empty) routes every transaction to
  /// the client's home server, which is always correct unsharded.
  virtual std::vector<std::string> TouchedKeys(
      const chain::Transaction& tx) const {
    (void)tx;
    return {};
  }

  virtual std::string name() const = 0;
};

/// Asynchronous blockchain access. Submissions return immediately; commit
/// discovery happens by polling GetLatestBlocks and inspecting block
/// contents, exactly as the paper's Driver does.
class BlockchainConnector {
 public:
  virtual ~BlockchainConnector() = default;

  struct LatestBlocks {
    uint64_t confirmed_height;
    std::vector<platform::BlockPtr> blocks;
  };
  using BlocksCallback = std::function<void(const LatestBlocks&)>;
  using RejectCallback = std::function<void(uint64_t tx_id)>;

  /// Fire-and-forget submission of a sealed transaction
  /// (Transaction::Seal); rejections surface via the callback registered
  /// with set_on_reject.
  virtual void SubmitTransaction(const chain::Transaction& tx) = 0;
  /// getLatestBlock(h): requests confirmed blocks with height > h.
  virtual void RequestLatestBlocks(uint64_t from_height,
                                   BlocksCallback cb) = 0;
  virtual void set_on_reject(RejectCallback cb) = 0;
};

}  // namespace bb::core

#endif  // BLOCKBENCH_CORE_CONNECTOR_H_
