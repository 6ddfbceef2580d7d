// Pbft: Practical Byzantine Fault Tolerance (Castro & Liskov '99), as
// deployed in Hyperledger Fabric v0.6 — the Hyperledger platform model's
// consensus engine.
//
// Full three-phase protocol: the view-v leader batches transactions into a
// block and PRE-PREPAREs it; replicas broadcast PREPARE, then COMMIT; a
// block executes once 2f+1 commits are collected, giving immediate
// finality (no forks, ever). Liveness machinery is faithful where the
// paper depends on it:
//   - per-view progress timer with exponential backoff -> VIEW-CHANGE
//   - 2f+1 view-change quorum -> NEW-VIEW from the incoming leader
//   - periodic status gossip + block fetch for lagging replicas (Fabric's
//     state-transfer sync; this is what makes post-partition recovery
//     take the extra tens of seconds in Fig 10)
// Because every phase is O(N^2) real messages through the bounded-inbox
// network, overload at large N drops consensus traffic, views diverge,
// and the protocol livelocks — reproducing Fabric's collapse beyond 16
// nodes (Fig 7) without any special-casing.

#ifndef BLOCKBENCH_CONSENSUS_PBFT_H_
#define BLOCKBENCH_CONSENSUS_PBFT_H_

#include <cassert>
#include <deque>
#include <map>
#include <set>
#include <vector>

#include "consensus/engine.h"

namespace bb::consensus {

struct PbftConfig {
  /// Transactions per batch (Fabric default in the paper: 500).
  size_t batch_size = 500;
  /// Leader re-checks its pool for a new batch at this period.
  double batch_poll_interval = 0.05;
  /// A batch is proposed when batch_size transactions are pending OR
  /// this much time has passed since the last proposal (Fabric's batch
  /// timeout) with a non-empty pool.
  double batch_timeout = 0.5;
  /// Base progress timeout before a replica starts a view change.
  double view_timeout = 3.0;
  /// Timeout doubles per consecutive failed view, capped here.
  double max_view_timeout = 30.0;
  /// Period of status gossip (height/view), driving lagging-node sync.
  double status_interval = 1.0;
  /// CPU cost of handling one consensus message (signature checks etc).
  double per_message_cpu = 0.0002;
  /// CPU cost of validating one transaction in a pre-prepare.
  double tx_validate_cpu = 0.0001;
  /// Max blocks proposed but not yet executed (pipeline depth — Fabric
  /// v0.6 keeps a window of in-flight batches below the high watermark).
  size_t pipeline = 4;
};

class Pbft : public Engine {
 public:
  explicit Pbft(PbftConfig config) : config_(config) {}

  void Start(ConsensusHost* host) override;
  bool HandleMessage(const sim::Message& msg, double* cpu) override;
  void OnNewTransactions() override;
  void OnCrash() override;
  void OnRestart() override;
  const char* name() const override { return "pbft"; }
  void ExportMetrics(obs::MetricsRegistry* reg,
                     const obs::Labels& labels) const override;
  std::vector<LiveGauge> LiveGauges() override {
    return {{"pbft.view", [this] { return double(view_); }},
            {"pbft.view_changes",
             [this] { return double(view_changes_started_); }},
            {"pbft.inflight", [this] { return double(instances_.size()); }}};
  }

  uint64_t view() const { return view_; }
  uint64_t view_changes_started() const { return view_changes_started_; }
  uint64_t blocks_proposed() const { return blocks_proposed_; }
  bool IsLeader() const;

  /// Logical bytes of one in-flight instance record, as Fabric v0.6's
  /// vote log holds it: block reference, digest, view, two vote-set
  /// headers, phase flags and phase timestamps. Fixed, like the
  /// obs::mem constants; the votes are charged per entry on top.
  static constexpr uint64_t kInstanceBytes = 176;

  /// Vote sets are O(N) per in-flight instance and instances arrive at
  /// O(N) rate under quorum broadcast — this is the O(N^2) per-node
  /// growth the memory-scaling gates expect PBFT to show. Unexecuted
  /// proposal payloads ride along (the pipeline holds them until 2f+1
  /// commits land).
  uint64_t BookkeepingBytes() const override {
    uint64_t b = 0;
    for (const auto& [seq, inst] : instances_) {
      b += obs::mem::kMapEntryBytes + kInstanceBytes;
      b += (inst.prepares.size() + inst.commits.size()) *
           obs::mem::kSetEntryBytes;
      if (inst.block != nullptr && !inst.executed) b += inst.block->SizeBytes();
    }
    for (const auto& [view, votes] : view_change_votes_) {
      b += obs::mem::kMapEntryBytes + votes.size() * obs::mem::kSetEntryBytes;
    }
    // The retained certificate log (executed sequences up to the stable
    // checkpoint): per node O(checkpoint window * N) — the footprint
    // term that makes the cluster-wide PBFT curve O(N^2) in the
    // fig_memscale baseline.
    b += cert_log_.size() *
         (obs::mem::kMapEntryBytes + sizeof(RetainedCert));
    b += cert_vote_total_ * obs::mem::kSetEntryBytes;
    return b;
  }

  /// Checkpoint interval K (Fabric v0.6 default): executed certificates
  /// are garbage-collected only when the stable low watermark advances,
  /// so up to ~2K of them are live at any time.
  static constexpr uint64_t kCheckpointInterval = 128;

  /// Max Byzantine faults tolerated: f = floor((N-1)/3).
  size_t MaxFaults() const { return (host_->num_nodes() - 1) / 3; }
  /// Fabric v0.6 collects N - f certificates (equal to 2f+1 only when
  /// N = 3f+1) — this is why killing 4 of 12 servers halts the network
  /// even though 8 responsive replicas remain (Fig 9).
  size_t Quorum() const { return host_->num_nodes() - MaxFaults(); }

  // Message payloads (public for tests).
  struct PrePrepareMsg {
    uint64_t view;
    uint64_t seq;  // == block height
    BlockPtr block;
  };
  struct PhaseMsg {  // PREPARE and COMMIT
    uint64_t view;
    uint64_t seq;
    Hash256 digest;
  };
  struct ViewChangeMsg {
    uint64_t new_view;
    uint64_t last_exec;
  };
  struct NewViewMsg {
    uint64_t new_view;
  };
  struct StatusMsg {
    uint64_t height;
    uint64_t view;
  };
  struct FetchReqMsg {
    uint64_t from_height;
  };
  struct BlocksMsg {
    std::vector<BlockPtr> blocks;
    uint64_t view;
  };

 private:
  /// The replicas that voted in one phase: one bit per replica, indexed
  /// from the group's first node id, with its own count. Groups of up to
  /// 64 replicas need no allocation.
  class VoteSet {
   public:
    void Insert(size_t replica) {
      uint64_t& word = replica < 64 ? low_ : HighWord(replica / 64 - 1);
      const uint64_t bit = uint64_t{1} << (replica % 64);
      count_ += (word & bit) == 0;
      word |= bit;
    }
    size_t size() const { return count_; }

   private:
    uint64_t& HighWord(size_t i) {
      if (i >= high_.size()) high_.resize(i + 1);
      return high_[i];
    }
    uint64_t low_ = 0;
    std::vector<uint64_t> high_;
    size_t count_ = 0;
  };

  struct Instance {
    BlockPtr block;         // set once pre-prepare arrives
    Hash256 digest;
    uint64_t view = 0;
    VoteSet prepares;
    VoteSet commits;
    bool sent_prepare = false;
    bool sent_commit = false;
    bool executed = false;
    /// Tracing: when this node saw the pre-prepare / reached the
    /// prepared state (-1 until then).
    double t_preprepare = -1;
    double t_prepared = -1;
  };

  sim::NodeId LeaderOf(uint64_t view) const {
    return sim::NodeId(host_->peer_base() + view % host_->num_nodes());
  }
  uint64_t ExecHeight() const { return host_->chain_store().head_height(); }
  /// A replica's bit in the vote sets.
  size_t VoteIndex(sim::NodeId id) const {
    assert(id >= host_->peer_base() &&
           id < host_->peer_base() + host_->num_nodes());
    return id - host_->peer_base();
  }

  void TryPropose();
  /// Proposes a single batch; false when the pool yields nothing.
  bool ProposeOne();
  void BatchPoll();
  void StatusTick();
  void ProgressCheck();
  double CurrentTimeout() const;

  void OnPrePrepare(sim::NodeId from, const PrePrepareMsg& m, double* cpu);
  void OnPrepare(sim::NodeId from, const PhaseMsg& m);
  void OnCommit(sim::NodeId from, const PhaseMsg& m);
  void OnViewChange(sim::NodeId from, const ViewChangeMsg& m);
  void OnNewView(sim::NodeId from, const NewViewMsg& m);
  void OnStatus(sim::NodeId from, const StatusMsg& m);
  void OnFetchReq(sim::NodeId from, const FetchReqMsg& m);
  void OnBlocks(const BlocksMsg& m, double* cpu);

  void MaybeSendCommit(uint64_t seq);
  void MaybeExecute(double* cpu);
  void StartViewChange(uint64_t target_view);
  void EnterView(uint64_t view);
  void DiscardInflight();

  PbftConfig config_;
  ConsensusHost* host_ = nullptr;
  bool active_ = false;

  uint64_t view_ = 0;
  /// Highest view this node has voted a view-change for.
  uint64_t view_change_target_ = 0;
  bool in_view_change_ = false;
  std::map<uint64_t, std::set<sim::NodeId>> view_change_votes_;

  /// In-flight consensus instances keyed by seq (block height).
  std::map<uint64_t, Instance> instances_;

  /// Executed certificates (prepare/commit vote logs) retained until
  /// the stable checkpoint passes them, as Fabric v0.6's pbftCore keeps
  /// its message log for the whole watermark window. Accounting only —
  /// the protocol never reads it, so behaviour and golden digests are
  /// unchanged by its presence.
  struct RetainedCert {
    uint64_t seq;
    uint64_t votes;  // prepare + commit set entries at execution time
  };
  std::deque<RetainedCert> cert_log_;
  uint64_t cert_vote_total_ = 0;

  uint64_t last_progress_exec_ = 0;
  double last_progress_time_ = 0;
  uint64_t consecutive_view_changes_ = 0;

  /// Tip of the leader's proposal pipeline (may be unexecuted).
  double last_proposal_time_ = 0;
  uint64_t last_proposed_seq_ = 0;
  Hash256 last_proposed_hash_;

  bool fetch_outstanding_ = false;
  uint64_t view_changes_started_ = 0;
  uint64_t blocks_proposed_ = 0;
  /// Tracing: start of the in-progress view change (-1 when none).
  double view_change_start_ = -1;
};

}  // namespace bb::consensus

#endif  // BLOCKBENCH_CONSENSUS_PBFT_H_
