// Raft: crash-fault-tolerant log replication (Ongaro & Ousterhout '14) —
// the consensus Corda runs per the paper's Table 2, and the concrete
// instance of Section 2's contrast: "current transactional, distributed
// databases employ classic concurrency control... because of the simple
// failure model, i.e. crash failure".
//
// Faithful core: randomized election timeouts, terms, RequestVote with
// log-up-to-date checks, leader heartbeats, AppendEntries carrying one
// block per slot with (prev_height, prev_hash) consistency checks, and
// majority-ack commit. Byzantine behaviour is NOT tolerated — a
// corrupted/forged message is trusted if well-formed, which is exactly
// the property the Byzantine engines pay O(N^2) traffic to avoid. The
// `bbench figure consensus_compare` and fault-mode benches show both sides.

#ifndef BLOCKBENCH_CONSENSUS_RAFT_H_
#define BLOCKBENCH_CONSENSUS_RAFT_H_

#include <map>
#include <set>
#include <vector>

#include "consensus/engine.h"
#include "util/random.h"

namespace bb::consensus {

struct RaftConfig {
  /// Election timeout drawn uniformly from [min, max) per attempt.
  double election_timeout_min = 1.5;
  double election_timeout_max = 3.0;
  /// Leader heartbeat (empty AppendEntries) period.
  double heartbeat_interval = 0.5;
  /// Transactions per log entry (block).
  size_t batch_size = 500;
  /// Propose when a full batch waits or this much time passed.
  double batch_timeout = 0.5;
  double poll_interval = 0.05;
  double per_message_cpu = 0.0001;
  double tx_validate_cpu = 0.00005;
};

class Raft : public Engine {
 public:
  explicit Raft(RaftConfig config, uint64_t seed)
      : config_(config), rng_(seed) {}

  void Start(ConsensusHost* host) override;
  bool HandleMessage(const sim::Message& msg, double* cpu) override;
  void OnNewTransactions() override;
  void OnCrash() override;
  void OnRestart() override;
  const char* name() const override { return "raft"; }
  void ExportMetrics(obs::MetricsRegistry* reg,
                     const obs::Labels& labels) const override;
  std::vector<LiveGauge> LiveGauges() override {
    return {{"raft.term", [this] { return double(term_); }},
            {"raft.role", [this] { return double(role_); }},
            {"raft.elections",
             [this] { return double(elections_started_); }}};
  }

  enum class Role { kFollower, kCandidate, kLeader };
  Role role() const { return role_; }
  uint64_t term() const { return term_; }
  uint64_t elections_started() const { return elections_started_; }

  size_t Majority() const { return host_->num_nodes() / 2 + 1; }

  /// O(N) leader-side maps plus the uncommitted log tail (majority-ack
  /// replication keeps it short) — Raft is a linear-memory protocol,
  /// the contrast the scaling gate checks against the quorum-broadcast
  /// engines. The span timestamps below are observation state and stay
  /// out of the count, so an attached tracer changes no mem dump.
  uint64_t BookkeepingBytes() const override {
    uint64_t b =
        (voted_for_.size() + match_height_.size()) * obs::mem::kMapEntryBytes +
        votes_.size() * obs::mem::kSetEntryBytes;
    for (const auto& [height, block] : pending_log_) {
      b += obs::mem::kMapEntryBytes;
      if (block != nullptr) b += block->SizeBytes();
    }
    return b;
  }

  // Message payloads (public for tests).
  struct RequestVoteMsg {
    uint64_t term;
    uint64_t last_log_height;
  };
  struct VoteGrantedMsg {
    uint64_t term;
  };
  struct AppendEntriesMsg {
    uint64_t term;
    uint64_t prev_height;
    Hash256 prev_hash;
    BlockPtr block;  // null = heartbeat
    uint64_t leader_commit;
  };
  struct AppendReplyMsg {
    uint64_t term;
    bool success;
    uint64_t match_height;
  };

 private:
  uint64_t LogHeight() const { return host_->chain_store().head_height(); }

  void Poll();
  void ElectionCheck();
  void StartElection();
  void BecomeLeader();
  void HeartbeatLoop(uint64_t tenure_term);
  void BecomeFollower(uint64_t term);
  void MaybePropose();
  void SendHeartbeats();
  void ReplicateTo(sim::NodeId peer);
  void AdvanceCommit(double* cpu);
  void ResetElectionTimer();

  void OnRequestVote(sim::NodeId from, const RequestVoteMsg& m);
  void OnVoteGranted(sim::NodeId from, const VoteGrantedMsg& m);
  void OnAppendEntries(sim::NodeId from, const AppendEntriesMsg& m,
                       double* cpu);
  void OnAppendReply(sim::NodeId from, const AppendReplyMsg& m, double* cpu);

  RaftConfig config_;
  Rng rng_;
  ConsensusHost* host_ = nullptr;
  bool active_ = false;

  Role role_ = Role::kFollower;
  uint64_t term_ = 0;
  std::map<uint64_t, sim::NodeId> voted_for_;  // term -> candidate
  std::set<sim::NodeId> votes_;

  /// Leader bookkeeping: the uncommitted tail of the log (height ->
  /// block) and per-peer replication progress.
  std::map<uint64_t, BlockPtr> pending_log_;
  std::map<sim::NodeId, uint64_t> match_height_;
  uint64_t committed_height_ = 0;

  double last_heard_from_leader_ = 0;
  double election_deadline_ = 0;
  double last_proposal_time_ = -1e9;
  uint64_t elections_started_ = 0;

  /// Span starts: first election attempt of the current leaderless
  /// period (-1 when none in flight) and leader-side proposal times by
  /// height, erased at commit.
  double election_start_ = -1;
  std::map<uint64_t, double> propose_time_;
};

}  // namespace bb::consensus

#endif  // BLOCKBENCH_CONSENSUS_RAFT_H_
