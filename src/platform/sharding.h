// ShardedPlatform: S independent consensus groups — each a full
// LayerStack cluster — over a hash-partitioned state space, glued
// together by a coordinator-driven two-phase-commit protocol for
// transactions whose keys straddle shards.
//
// Topology on one shared sim::Network:
//   ids [s*n, (s+1)*n)  servers of shard s (peer group == shard)
//   id  S*n             the ShardCoordinator
//   ids S*n+1 ...       driver clients
//
// Cross-shard protocol (records are ordinary transactions so the
// auditor can replay the protocol from the chains alone):
//   1. client -> coordinator: kXsClientTx {tx, participant shards}
//   2. coordinator -> each participant shard: a prepare record
//      (id = tx.id | kXsPrepareBit, contract = "__xshard") submitted
//      through the shard's normal kClientTx admission path
//   3. each server canonically executing a "__xshard" record notifies
//      the coordinator (kXsSealed)
//   4. all participants sealed their prepare -> the coordinator submits
//      the original transaction (the commit record) to every
//      participant shard; a prepare timeout instead seals abort records
//      (id = tx.id | kXsAbortBit) and rejects the client
// The client discovers commit by polling its home shard, exactly like a
// single-shard transaction.

#ifndef BLOCKBENCH_PLATFORM_SHARDING_H_
#define BLOCKBENCH_PLATFORM_SHARDING_H_

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "platform/platform.h"

namespace bb::platform {

class ShardedPlatform;

/// The 2PC coordinator: a dedicated node (think "ordering service
/// front-end") that owns the prepare/commit state machine for every
/// in-flight cross-shard transaction.
class ShardCoordinator : public sim::Node {
 public:
  ShardCoordinator(sim::NodeId id, sim::Network* network,
                   ShardedPlatform* platform);

  double HandleMessage(const sim::Message& msg) override;

  /// Test hook: when set, a decided-commit transaction is committed on
  /// its first participant shard but aborted on the rest — a broken
  /// coordinator the cross_shard_atomicity invariant must catch.
  void set_break_atomicity(bool broken) { break_atomicity_ = broken; }

  uint64_t started() const { return started_; }
  uint64_t committed() const { return committed_; }
  uint64_t aborted() const { return aborted_; }
  size_t pending() const { return started_ - committed_ - aborted_; }

 private:
  // Keeps its own copy of the client's transaction (by value: sizeof(Entry)
  // is part of the bookkeeping bytes it reports).
  struct Entry {
    chain::Transaction tx;
    std::vector<uint32_t> shards;
    sim::NodeId client = 0;
    std::set<uint32_t> prepared;
    bool decided = false;
  };

  double HandleClientTx(const sim::Message& msg);
  double HandleSealed(const sim::Message& msg);
  double HandleReject(const sim::Message& msg);
  void OnPrepareTimeout(uint64_t base_id);
  void Decide(uint64_t base_id, bool commit);
  /// The "__xshard" prepare/abort record for `e` ("prepare"/"abort"),
  /// sealed and shared by every shard it is submitted to.
  chain::TxPtr MakeRecord(const Entry& e, const char* phase,
                          uint64_t id_bit) const;
  /// Submits a record through `shard`'s normal admission path.
  void SubmitToShard(uint32_t shard, const chain::TxPtr& record);

  /// Logical bytes of the in-flight 2PC table (the coordinator's
  /// consensus.bookkeeping contribution).
  void SyncMemGauge();

  ShardedPlatform* platform_;
  obs::mem::Gauge mem_entries_;
  /// Ordered map: deterministic iteration under the (time, seq) contract.
  std::map<uint64_t, Entry> entries_;
  bool break_atomicity_ = false;
  uint64_t started_ = 0;
  uint64_t committed_ = 0;
  uint64_t aborted_ = 0;
};

class ShardedPlatform : public Platform {
 public:
  /// Builds options.num_shards shard clusters of `servers_per_shard`
  /// nodes each, plus the coordinator, on one shared network.
  ShardedPlatform(sim::Simulation* sim, PlatformOptions options,
                  size_t servers_per_shard, uint64_t seed = 42);
  ~ShardedPlatform() override;

  size_t num_shards() const override { return shards_; }
  uint32_t ShardOfKey(const std::string& key) const override {
    return HashKey(key) % uint32_t(shards_);
  }
  sim::NodeId coordinator_id() const override {
    return sim::NodeId(num_servers());
  }
  sim::NodeId first_client_id() const override {
    return sim::NodeId(num_servers() + 1);
  }
  /// Client i's home shard is i % S; its submission server rotates
  /// within that shard so load spreads evenly at any client count.
  sim::NodeId SubmitServerFor(size_t client_index) const override {
    return ServerInShard(uint32_t(client_index % shards_), client_index);
  }
  sim::NodeId ServerInShard(uint32_t shard,
                            size_t client_index) const override {
    return sim::NodeId(size_t(shard) * servers_per_shard() +
                       (client_index / shards_) % servers_per_shard());
  }
  uint64_t CanonicalBlocks() const override;

  ShardCoordinator& coordinator() { return *coordinator_; }
  const ShardCoordinator& coordinator() const { return *coordinator_; }

  /// FNV-1a (stdlib-independent so golden digests hold across
  /// toolchains) — the one hash every key-to-shard decision uses.
  static uint32_t HashKey(const std::string& key) {
    uint32_t h = 2166136261u;
    for (unsigned char c : key) {
      h ^= c;
      h *= 16777619u;
    }
    return h;
  }

 private:
  size_t shards_;
  std::unique_ptr<ShardCoordinator> coordinator_;
};

}  // namespace bb::platform

#endif  // BLOCKBENCH_PLATFORM_SHARDING_H_
