// Consensus engine abstraction.
//
// A PlatformNode owns one Engine and forwards network messages to it; the
// engine drives block production/agreement through the ConsensusHost
// callbacks. Concrete engines: ProofOfWork (Ethereum model),
// ProofOfAuthority (Parity model), Pbft (Hyperledger model).

#ifndef BLOCKBENCH_CONSENSUS_ENGINE_H_
#define BLOCKBENCH_CONSENSUS_ENGINE_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "chain/block.h"
#include "chain/chain_store.h"
#include "obs/memtrack.h"
#include "obs/metrics.h"
#include "sim/network.h"

namespace bb::consensus {

/// Payload for block-carrying messages (shared so broadcast is cheap).
using BlockPtr = std::shared_ptr<const chain::Block>;

/// The node-side services a consensus engine needs.
class ConsensusHost {
 public:
  virtual ~ConsensusHost() = default;

  virtual sim::NodeId node_id() const = 0;
  virtual size_t num_nodes() const = 0;
  /// First node id of this engine's consensus group. The group spans ids
  /// [peer_base, peer_base + num_nodes); unsharded platforms keep the
  /// default 0. Engines must derive leader/proposer rotation and peer
  /// loops from this base rather than assuming ids start at 0.
  virtual sim::NodeId peer_base() const { return 0; }
  virtual sim::Simulation* host_sim() = 0;
  virtual double HostNow() const = 0;

  /// Sends to every other node of the group; all recipients share the
  /// one payload.
  virtual void HostBroadcast(sim::MsgKind kind, sim::Payload payload,
                             uint64_t size_bytes) = 0;
  virtual bool HostSend(sim::NodeId to, sim::MsgKind kind,
                        sim::Payload payload, uint64_t size_bytes) = 0;

  /// Assembles a candidate block extending `parent` (which may itself be
  /// a not-yet-executed proposal — PBFT pipelines batches) at height
  /// parent_height + 1, from the local tx pool. Returns nullopt when the
  /// pool is empty and !allow_empty. *build_cpu receives the CPU seconds
  /// spent assembling/executing. The header arrives stamped with parent,
  /// height, proposer, timestamp and tx root; the engine sets only its
  /// nonce (and weight, if not 1), then calls chain::Seal.
  virtual std::optional<chain::Block> BuildBlock(const Hash256& parent,
                                                 uint64_t parent_height,
                                                 bool allow_empty,
                                                 double* build_cpu) = 0;

  /// Validates, executes and appends a block. Returns false when the
  /// block did not attach (its parent is unknown — the node is behind).
  /// *cpu receives the CPU seconds consumed. Takes a shared handle: the
  /// store keeps the same Block instance the network delivered, so a
  /// commit is a pointer hand-off, not a copy.
  virtual bool CommitBlock(chain::BlockPtr block, double* cpu) = 0;

  virtual const chain::ChainStore& chain_store() const = 0;
  virtual size_t pending_txs() const = 0;

  /// Returns abandoned transactions (e.g. from a proposal discarded by a
  /// view change) to the pool. The pool shares the block's handles.
  virtual void RequeueTxs(const std::vector<chain::TxPtr>& txs) = 0;

  /// Records CPU that runs off the message-handling path (mining).
  virtual void ChargeBackground(double cpu_seconds) = 0;
};

class Engine {
 public:
  virtual ~Engine() = default;

  virtual void Start(ConsensusHost* host) = 0;
  /// Handles a consensus message. Returns false when the kind is not
  /// one of this engine's. *cpu accumulates processing cost.
  virtual bool HandleMessage(const sim::Message& msg, double* cpu) = 0;
  /// Called by the node when new transactions entered the pool.
  virtual void OnNewTransactions() {}
  virtual void OnCrash() {}
  virtual void OnRestart() {}

  /// Protocol name for logs ("pow", "poa", "pbft").
  virtual const char* name() const = 0;

  /// Exports engine-specific counters/gauges (view changes, blocks
  /// mined, election count, ...) into `reg` under `labels`; called
  /// post-run by Platform::ExportMetrics. Default: nothing to export.
  virtual void ExportMetrics(obs::MetricsRegistry* reg,
                             const obs::Labels& labels) const {
    (void)reg;
    (void)labels;
  }

  /// One live probe for the obs::Sampler: `fn` is polled at every
  /// sampling tick while the run is in flight (names are static
  /// strings, e.g. "pbft.view").
  struct LiveGauge {
    const char* name;
    std::function<double()> fn;
  };
  /// Engine state worth watching live (current view/term/round, blocks
  /// sealed so far, ...). The returned closures must stay valid for the
  /// engine's lifetime. Default: nothing to watch.
  virtual std::vector<LiveGauge> LiveGauges() { return {}; }

  /// Logical bytes of live protocol bookkeeping — in-flight instances,
  /// vote sets, pending log entries, unexecuted proposal payloads —
  /// feeding the mem-observability consensus.bookkeeping subsystem.
  /// Container entries are costed with the obs::mem sizing constants so
  /// the model is deterministic and identical across platforms (what
  /// the N-scaling gates compare). Default: stateless protocol.
  virtual uint64_t BookkeepingBytes() const { return 0; }

 protected:
  /// Shared chain-sync fallback for gossip-based engines: when a
  /// received block does not attach (missing ancestors — e.g. after a
  /// healed partition), ask the sender for the canonical blocks above
  /// our head. Rate-limited to one outstanding request.
  void RequestSync(ConsensusHost* host, sim::NodeId from);
  /// Handles kSyncFetchReq / kSyncBlocks; returns true if consumed.
  bool HandleSync(ConsensusHost* host, const sim::Message& msg, double* cpu);

  struct SyncFetchReq {
    uint64_t from_height;
  };
  struct SyncBlocks {
    std::vector<BlockPtr> blocks;
  };

 private:
  double last_sync_request_ = -1e9;
  /// How far below our head sync requests start. Doubles on each request
  /// until fetched blocks attach (the fork point may be arbitrarily deep),
  /// then resets.
  uint64_t sync_window_ = 8;
};

}  // namespace bb::consensus

#endif  // BLOCKBENCH_CONSENSUS_ENGINE_H_
