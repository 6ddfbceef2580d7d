#include "consensus/raft.h"

#include <algorithm>

#include "obs/event.h"
#include "obs/profiler.h"

namespace bb::consensus {

using sim::MsgKind;

namespace {
constexpr uint64_t kControlBytes = 80;
}

void Raft::Start(ConsensusHost* host) {
  host_ = host;
  active_ = true;
  committed_height_ = LogHeight();
  ResetElectionTimer();
  Poll();
  ElectionCheck();
}

void Raft::OnCrash() { active_ = false; }

void Raft::OnRestart() {
  if (host_ == nullptr) return;
  active_ = true;
  role_ = Role::kFollower;
  pending_log_.clear();
  votes_.clear();
  committed_height_ = LogHeight();
  ResetElectionTimer();
  Poll();
  ElectionCheck();
}

void Raft::OnNewTransactions() {
  if (active_ && role_ == Role::kLeader) MaybePropose();
}

void Raft::ResetElectionTimer() {
  double timeout =
      config_.election_timeout_min +
      rng_.NextDouble() *
          (config_.election_timeout_max - config_.election_timeout_min);
  election_deadline_ = host_->HostNow() + timeout;
}

void Raft::Poll() {
  if (!active_) return;
  if (role_ == Role::kLeader) MaybePropose();
  host_->host_sim()->After(config_.poll_interval, [this] { Poll(); });
}

void Raft::ElectionCheck() {
  if (!active_) return;
  if (role_ != Role::kLeader && host_->HostNow() >= election_deadline_) {
    if (auto* hook = host_->host_sim()->hook()) {
      hook->Emit({.kind = obs::EventKind::kTimer,
                  .node = uint32_t(host_->node_id()), .t = host_->HostNow(),
                  .id = term_ + 1, .name = "raft.election_timeout"});
    }
    StartElection();
  }
  host_->host_sim()->After(0.1, [this] { ElectionCheck(); });
}

void Raft::StartElection() {
  ++term_;
  ++elections_started_;
  if (election_start_ < 0) election_start_ = host_->HostNow();
  role_ = Role::kCandidate;
  votes_.clear();
  votes_.insert(host_->node_id());
  voted_for_[term_] = host_->node_id();
  ResetElectionTimer();
  uint64_t last = std::max(LogHeight(),
                           pending_log_.empty() ? 0 : pending_log_.rbegin()->first);
  host_->HostBroadcast(MsgKind::kRaftRequestVote, RequestVoteMsg{term_, last},
                       kControlBytes);
  if (votes_.size() >= Majority()) BecomeLeader();  // single-node cluster
}

void Raft::BecomeLeader() {
  if (auto* hook = host_->host_sim()->hook()) {
    hook->Emit({.kind = obs::EventKind::kPhase,
                .node = uint32_t(host_->node_id()), .t = host_->HostNow(),
                .id = term_, .name = "raft.election", .start = election_start_,
                .end = host_->HostNow(), .arg = "term",
                .value = double(term_)});
  }
  election_start_ = -1;
  role_ = Role::kLeader;
  match_height_.clear();
  // Re-replicate our surviving pending tail; peers report their actual
  // match heights through AppendReply.
  SendHeartbeats();
  MaybePropose();
  HeartbeatLoop(term_);
}

void Raft::HeartbeatLoop(uint64_t tenure_term) {
  if (!active_ || role_ != Role::kLeader || term_ != tenure_term) return;
  host_->host_sim()->After(config_.heartbeat_interval, [this, tenure_term] {
    if (!active_ || role_ != Role::kLeader || term_ != tenure_term) return;
    SendHeartbeats();
    HeartbeatLoop(tenure_term);
  });
}

void Raft::BecomeFollower(uint64_t term) {
  term_ = term;
  if (role_ == Role::kLeader) {
    // Unreplicated tail dies with the tenure; recycle its transactions.
    for (auto& [h, b] : pending_log_) {
      if (h > committed_height_ && b != nullptr &&
          b->header.proposer == host_->node_id()) {
        host_->RequeueTxs(b->txs);
      }
    }
    pending_log_.clear();
  }
  role_ = Role::kFollower;
  votes_.clear();
  election_start_ = -1;  // another node won; no election span from us
  propose_time_.clear();
  ResetElectionTimer();
}

void Raft::MaybePropose() {
  if (role_ != Role::kLeader) return;
  size_t pending = host_->pending_txs();
  if (pending == 0) return;
  if (pending < config_.batch_size &&
      host_->HostNow() - last_proposal_time_ < config_.batch_timeout) {
    return;
  }
  // One in-flight uncommitted entry at a time keeps replication simple.
  uint64_t tail = pending_log_.empty() ? committed_height_
                                       : pending_log_.rbegin()->first;
  if (tail > committed_height_ + 3) return;  // replication window

  Hash256 parent = tail == LogHeight()
                       ? host_->chain_store().head()
                       : pending_log_.at(tail)->HashOf();
  double build_cpu = 0;
  auto block = host_->BuildBlock(parent, tail, /*allow_empty=*/false,
                                 &build_cpu);
  if (!block.has_value()) return;
  host_->ChargeBackground(build_cpu);
  block->header.nonce = term_;
  auto ptr = chain::Seal(std::move(*block));
  pending_log_[tail + 1] = ptr;
  propose_time_[tail + 1] = host_->HostNow();
  last_proposal_time_ = host_->HostNow();
  sim::NodeId base = host_->peer_base();
  for (sim::NodeId peer = base; peer < base + host_->num_nodes(); ++peer) {
    if (peer != host_->node_id()) ReplicateTo(peer);
  }
}

void Raft::ReplicateTo(sim::NodeId peer) {
  uint64_t match = 0;
  auto it = match_height_.find(peer);
  if (it != match_height_.end()) match = it->second;
  uint64_t next = match + 1;
  uint64_t tail = pending_log_.empty() ? committed_height_
                                       : pending_log_.rbegin()->first;
  if (next > tail) return;  // up to date

  BlockPtr block;
  auto pend = pending_log_.find(next);
  if (pend != pending_log_.end()) {
    block = pend->second;
  } else {
    block = host_->chain_store().CanonicalAtPtr(next);
    if (block == nullptr) return;
  }
  Hash256 prev_hash;
  if (next - 1 > 0) {
    auto prev_pend = pending_log_.find(next - 1);
    if (prev_pend != pending_log_.end()) {
      prev_hash = prev_pend->second->HashOf();
    } else {
      const chain::Block* pb = host_->chain_store().CanonicalAt(next - 1);
      if (pb != nullptr) prev_hash = pb->HashOf();
    }
  } else {
    prev_hash = host_->chain_store().CanonicalAt(0)->HashOf();
  }
  host_->HostSend(peer, MsgKind::kRaftAppend,
                  AppendEntriesMsg{term_, next - 1, prev_hash, block,
                                   committed_height_},
                  kControlBytes + block->SizeBytes());
}

void Raft::SendHeartbeats() {
  host_->HostBroadcast(
      MsgKind::kRaftAppend,
      AppendEntriesMsg{term_, 0, Hash256::Zero(), nullptr, committed_height_},
      kControlBytes);
  // Also push replication forward for laggards.
  sim::NodeId base = host_->peer_base();
  for (sim::NodeId peer = base; peer < base + host_->num_nodes(); ++peer) {
    if (peer != host_->node_id()) ReplicateTo(peer);
  }
}

bool Raft::HandleMessage(const sim::Message& msg, double* cpu) {
  BB_PROF_SCOPE("consensus.raft.handle");
  if (HandleSync(host_, msg, cpu)) {
    committed_height_ = std::max(committed_height_, LogHeight());
    return true;
  }
  const auto accept = [&] {
    *cpu += config_.per_message_cpu;
    return active_ && !msg.corrupted;  // crash model: drop garbage
  };
  switch (msg.kind) {
    case MsgKind::kRaftRequestVote:
      if (accept()) OnRequestVote(msg.from, msg.payload.As<RequestVoteMsg>());
      return true;
    case MsgKind::kRaftVote:
      if (accept()) OnVoteGranted(msg.from, msg.payload.As<VoteGrantedMsg>());
      return true;
    case MsgKind::kRaftAppend:
      if (accept()) {
        OnAppendEntries(msg.from, msg.payload.As<AppendEntriesMsg>(), cpu);
      }
      return true;
    case MsgKind::kRaftAppendReply:
      if (accept()) {
        OnAppendReply(msg.from, msg.payload.As<AppendReplyMsg>(), cpu);
      }
      return true;
    default:
      return false;
  }
}

void Raft::OnRequestVote(sim::NodeId from, const RequestVoteMsg& m) {
  if (m.term > term_) BecomeFollower(m.term);
  if (m.term < term_) return;
  uint64_t our_last = std::max(
      LogHeight(), pending_log_.empty() ? 0 : pending_log_.rbegin()->first);
  auto voted = voted_for_.find(m.term);
  bool can_vote = voted == voted_for_.end() || voted->second == from;
  if (can_vote && m.last_log_height >= our_last) {
    voted_for_[m.term] = from;
    ResetElectionTimer();
    host_->HostSend(from, MsgKind::kRaftVote, VoteGrantedMsg{m.term},
                    kControlBytes);
  }
}

void Raft::OnVoteGranted(sim::NodeId from, const VoteGrantedMsg& m) {
  if (role_ != Role::kCandidate || m.term != term_) return;
  votes_.insert(from);
  if (votes_.size() >= Majority()) BecomeLeader();
}

void Raft::OnAppendEntries(sim::NodeId from, const AppendEntriesMsg& m,
                           double* cpu) {
  if (m.term < term_) {
    host_->HostSend(from, MsgKind::kRaftAppendReply,
                    AppendReplyMsg{term_, false, committed_height_},
                    kControlBytes);
    return;
  }
  if (m.term > term_ || role_ != Role::kFollower) BecomeFollower(m.term);
  term_ = m.term;
  ResetElectionTimer();

  if (m.block != nullptr) {
    *cpu += config_.tx_validate_cpu * double(m.block->txs.size());
    uint64_t h = m.prev_height + 1;
    // Consistency check against our log at prev_height.
    bool prev_ok;
    if (m.prev_height <= LogHeight()) {
      const chain::Block* pb = host_->chain_store().CanonicalAt(m.prev_height);
      prev_ok = pb != nullptr && pb->HashOf() == m.prev_hash;
    } else {
      auto it = pending_log_.find(m.prev_height);
      prev_ok = it != pending_log_.end() && it->second->HashOf() == m.prev_hash;
    }
    if (!prev_ok || h <= committed_height_) {
      host_->HostSend(from, MsgKind::kRaftAppendReply,
                      AppendReplyMsg{term_, false, committed_height_},
                      kControlBytes);
      return;
    }
    // Overwrite any conflicting pending tail from an older tenure.
    const Hash256 incoming_hash = m.block->HashOf();
    for (auto it = pending_log_.lower_bound(h); it != pending_log_.end();) {
      if (it->second->HashOf() != incoming_hash) {
        it = pending_log_.erase(it);
      } else {
        ++it;
      }
    }
    pending_log_[h] = m.block;
  }

  // Apply everything the leader has committed.
  uint64_t target = std::min(
      m.leader_commit,
      pending_log_.empty() ? committed_height_ : pending_log_.rbegin()->first);
  while (committed_height_ < target) {
    auto it = pending_log_.find(committed_height_ + 1);
    if (it == pending_log_.end()) break;
    double commit_cpu = 0;
    host_->CommitBlock(it->second, &commit_cpu);
    *cpu += commit_cpu;
    pending_log_.erase(it);
    ++committed_height_;
  }
  committed_height_ = std::max(committed_height_, LogHeight());

  uint64_t match = std::max(
      LogHeight(), pending_log_.empty() ? 0 : pending_log_.rbegin()->first);
  host_->HostSend(from, MsgKind::kRaftAppendReply,
                  AppendReplyMsg{term_, true, match}, kControlBytes);
}

void Raft::OnAppendReply(sim::NodeId from, const AppendReplyMsg& m,
                         double* cpu) {
  if (m.term > term_) {
    BecomeFollower(m.term);
    return;
  }
  if (role_ != Role::kLeader || m.term != term_) return;
  if (m.success) {
    match_height_[from] = std::max(match_height_[from], m.match_height);
    AdvanceCommit(cpu);
    ReplicateTo(from);
  } else {
    // Laggard: restart replication from its committed height.
    match_height_[from] = m.match_height;
    ReplicateTo(from);
  }
}

void Raft::AdvanceCommit(double* cpu) {
  uint64_t tail = pending_log_.empty() ? committed_height_
                                       : pending_log_.rbegin()->first;
  while (committed_height_ < tail) {
    uint64_t h = committed_height_ + 1;
    size_t acks = 1;  // self
    for (const auto& [peer, match] : match_height_) {
      if (match >= h) ++acks;
    }
    if (acks < Majority()) break;
    auto it = pending_log_.find(h);
    if (it == pending_log_.end()) break;
    double commit_cpu = 0;
    host_->CommitBlock(it->second, &commit_cpu);
    *cpu += commit_cpu;
    double proposed_at = -1;  // a follower never proposed it
    if (auto pt = propose_time_.find(h); pt != propose_time_.end()) {
      proposed_at = pt->second;
      propose_time_.erase(pt);
    }
    if (auto* hook = host_->host_sim()->hook()) {
      hook->Emit({.kind = obs::EventKind::kPhase,
                  .node = uint32_t(host_->node_id()), .t = host_->HostNow(),
                  .id = h, .aux = term_, .name = "raft.replicate",
                  .start = proposed_at, .end = host_->HostNow(),
                  .arg = "height", .value = double(h)});
    }
    pending_log_.erase(it);
    ++committed_height_;
  }
  if (role_ == Role::kLeader) MaybePropose();
}

void Raft::ExportMetrics(obs::MetricsRegistry* reg,
                         const obs::Labels& labels) const {
  reg->AddCounter("consensus.elections", labels, elections_started_);
  reg->SetGauge("consensus.term", labels, double(term_));
}

}  // namespace bb::consensus
