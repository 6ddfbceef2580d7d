#include "consensus/pbft.h"

#include <algorithm>

#include "obs/event.h"
#include "obs/profiler.h"

namespace bb::consensus {

using sim::MsgKind;

namespace {
constexpr uint64_t kPhaseMsgBytes = 120;    // view, seq, digest, signature
constexpr uint64_t kControlMsgBytes = 100;  // view-change / new-view / status
}  // namespace

bool Pbft::IsLeader() const { return LeaderOf(view_) == host_->node_id(); }

void Pbft::Start(ConsensusHost* host) {
  host_ = host;
  active_ = true;
  last_progress_exec_ = ExecHeight();
  last_progress_time_ = host_->HostNow();
  BatchPoll();
  StatusTick();
  ProgressCheck();
}

void Pbft::OnCrash() { active_ = false; }

void Pbft::OnRestart() {
  if (host_ == nullptr) return;
  active_ = true;
  in_view_change_ = false;
  instances_.clear();
  view_change_votes_.clear();
  last_progress_exec_ = ExecHeight();
  last_progress_time_ = host_->HostNow();
  BatchPoll();
  StatusTick();
  ProgressCheck();
}

void Pbft::OnNewTransactions() {
  if (active_) TryPropose();
}

void Pbft::BatchPoll() {
  if (!active_) return;
  TryPropose();
  host_->host_sim()->After(config_.batch_poll_interval, [this] { BatchPoll(); });
}

void Pbft::StatusTick() {
  if (!active_) return;
  host_->HostBroadcast(MsgKind::kPbftStatus, StatusMsg{ExecHeight(), view_},
                       kControlMsgBytes);
  host_->host_sim()->After(config_.status_interval, [this] { StatusTick(); });
}

double Pbft::CurrentTimeout() const {
  double t = config_.view_timeout;
  for (uint64_t i = 0; i < consecutive_view_changes_ && t < config_.max_view_timeout;
       ++i) {
    t *= 2;
  }
  return std::min(t, config_.max_view_timeout);
}

void Pbft::ProgressCheck() {
  if (!active_) return;
  uint64_t exec = ExecHeight();
  double now = host_->HostNow();
  if (exec > last_progress_exec_) {
    last_progress_exec_ = exec;
    last_progress_time_ = now;
    consecutive_view_changes_ = 0;
  } else {
    // Stalled. A view change is warranted only if there is work the
    // protocol should be making progress on.
    bool has_work = host_->pending_txs() > 0 || !instances_.empty();
    if (has_work && now - last_progress_time_ >= CurrentTimeout()) {
      if (auto* hook = host_->host_sim()->hook()) {
        hook->Emit({.kind = obs::EventKind::kTimer,
                    .node = uint32_t(host_->node_id()), .t = now, .id = view_,
                    .name = "pbft.progress_timeout"});
      }
      StartViewChange(std::max(view_ + 1, view_change_target_ + 1));
      last_progress_time_ = now;  // restart the clock for the next escalation
    }
  }
  host_->host_sim()->After(0.25, [this] { ProgressCheck(); });
}

void Pbft::TryPropose() {
  if (!active_ || in_view_change_ || !IsLeader()) return;
  while (true) {
    // Pipeline bound counts proposals not yet executed.
    size_t in_flight = 0;
    for (auto& [seq, inst] : instances_) {
      if (!inst.executed && seq > ExecHeight()) ++in_flight;
    }
    if (in_flight >= config_.pipeline) return;
    size_t pending = host_->pending_txs();
    if (pending == 0) return;
    // Batch discipline: wait for a full batch or the batch timeout.
    if (pending < config_.batch_size &&
        host_->HostNow() - last_proposal_time_ < config_.batch_timeout) {
      return;
    }
    if (!ProposeOne()) return;
  }
}

bool Pbft::ProposeOne() {
  // Chain onto the pipeline tip (which may not have executed yet), or
  // the canonical head when the pipeline is empty/stale.
  Hash256 parent = host_->chain_store().head();
  uint64_t parent_height = ExecHeight();
  if (last_proposed_seq_ > parent_height &&
      instances_.count(last_proposed_seq_) > 0) {
    parent = last_proposed_hash_;
    parent_height = last_proposed_seq_;
  }

  double build_cpu = 0;
  auto block = host_->BuildBlock(parent, parent_height,
                                 /*allow_empty=*/false, &build_cpu);
  if (!block.has_value()) return false;
  host_->ChargeBackground(build_cpu);

  uint64_t seq = block->header.height;
  block->header.nonce = seq;
  auto ptr = chain::Seal(std::move(*block));
  ++blocks_proposed_;

  Instance& inst = instances_[seq];
  inst.block = ptr;
  inst.digest = ptr->HashOf();
  inst.view = view_;
  inst.prepares.Insert(VoteIndex(host_->node_id()));
  inst.sent_prepare = true;
  inst.t_preprepare = host_->HostNow();
  last_proposed_seq_ = seq;
  last_proposed_hash_ = inst.digest;
  last_proposal_time_ = host_->HostNow();

  if (auto* hook = host_->host_sim()->hook()) {
    hook->Emit({.kind = obs::EventKind::kPhase,
                .node = uint32_t(host_->node_id()), .t = host_->HostNow(),
                .id = seq, .aux = view_, .name = "pbft.propose",
                .start = obs::kInstant, .arg = "seq", .value = double(seq)});
  }
  host_->HostBroadcast(MsgKind::kPbftPrePrepare,
                       PrePrepareMsg{view_, seq, ptr}, ptr->SizeBytes());
  return true;
}

bool Pbft::HandleMessage(const sim::Message& msg, double* cpu) {
  BB_PROF_SCOPE("consensus.pbft.handle");
  // Every PBFT message costs its signature check; a crashed-and-idle
  // replica or a corrupted message (fails MAC verification) stops there.
  const auto accept = [&] {
    *cpu += config_.per_message_cpu;
    return active_ && !msg.corrupted;
  };
  switch (msg.kind) {
    case MsgKind::kPbftPrePrepare:
      if (accept()) {
        OnPrePrepare(msg.from, msg.payload.As<PrePrepareMsg>(), cpu);
      }
      return true;
    case MsgKind::kPbftPrepare:
      if (accept()) {
        OnPrepare(msg.from, msg.payload.As<PhaseMsg>());
        MaybeExecute(cpu);
      }
      return true;
    case MsgKind::kPbftCommit:
      if (accept()) {
        OnCommit(msg.from, msg.payload.As<PhaseMsg>());
        MaybeExecute(cpu);
      }
      return true;
    case MsgKind::kPbftViewChange:
      if (accept()) OnViewChange(msg.from, msg.payload.As<ViewChangeMsg>());
      return true;
    case MsgKind::kPbftNewView:
      if (accept()) OnNewView(msg.from, msg.payload.As<NewViewMsg>());
      return true;
    case MsgKind::kPbftStatus:
      if (accept()) OnStatus(msg.from, msg.payload.As<StatusMsg>());
      return true;
    case MsgKind::kPbftFetchReq:
      if (accept()) OnFetchReq(msg.from, msg.payload.As<FetchReqMsg>());
      return true;
    case MsgKind::kPbftBlocks:
      if (accept()) OnBlocks(msg.payload.As<BlocksMsg>(), cpu);
      return true;
    default:
      return false;
  }
}

void Pbft::OnPrePrepare(sim::NodeId from, const PrePrepareMsg& m,
                        double* cpu) {
  if (in_view_change_ || m.view != view_ || LeaderOf(m.view) != from) return;
  if (m.seq <= ExecHeight()) return;  // already executed
  *cpu += config_.tx_validate_cpu * double(m.block->txs.size());

  const Hash256 digest = m.block->HashOf();
  Instance& inst = instances_[m.seq];
  if (inst.block != nullptr && inst.digest != digest) {
    return;  // conflicting pre-prepare in same view: ignore (leader fault)
  }
  inst.block = m.block;
  inst.digest = digest;
  inst.view = m.view;
  if (inst.t_preprepare < 0) inst.t_preprepare = host_->HostNow();
  // The pre-prepare doubles as the leader's prepare.
  inst.prepares.Insert(VoteIndex(from));
  if (!inst.sent_prepare) {
    inst.sent_prepare = true;
    inst.prepares.Insert(VoteIndex(host_->node_id()));
    host_->HostBroadcast(MsgKind::kPbftPrepare,
                         PhaseMsg{view_, m.seq, inst.digest}, kPhaseMsgBytes);
  }
  MaybeSendCommit(m.seq);
}

void Pbft::OnPrepare(sim::NodeId from, const PhaseMsg& m) {
  if (in_view_change_ || m.view != view_) return;
  if (m.seq <= ExecHeight()) return;
  Instance& inst = instances_[m.seq];
  if (inst.block != nullptr && inst.digest != m.digest) return;
  inst.view = m.view;
  inst.prepares.Insert(VoteIndex(from));
  MaybeSendCommit(m.seq);
}

void Pbft::MaybeSendCommit(uint64_t seq) {
  auto it = instances_.find(seq);
  if (it == instances_.end()) return;
  Instance& inst = it->second;
  // "prepared" requires the pre-prepare (block) plus a 2f+1 prepare quorum.
  if (inst.sent_commit || inst.block == nullptr ||
      inst.prepares.size() < Quorum()) {
    return;
  }
  inst.sent_commit = true;
  inst.commits.Insert(VoteIndex(host_->node_id()));
  inst.t_prepared = host_->HostNow();
  if (auto* hook = host_->host_sim()->hook()) {
    hook->Emit({.kind = obs::EventKind::kPhase,
                .node = uint32_t(host_->node_id()), .t = host_->HostNow(),
                .id = seq, .aux = view_, .name = "pbft.prepare",
                .start = inst.t_preprepare, .end = inst.t_prepared,
                .arg = "seq", .value = double(seq)});
  }
  host_->HostBroadcast(MsgKind::kPbftCommit, PhaseMsg{view_, seq, inst.digest},
                       kPhaseMsgBytes);
}

void Pbft::OnCommit(sim::NodeId from, const PhaseMsg& m) {
  if (in_view_change_ || m.view != view_) return;
  if (m.seq <= ExecHeight()) return;
  Instance& inst = instances_[m.seq];
  if (inst.block != nullptr && inst.digest != m.digest) return;
  inst.view = m.view;
  inst.commits.Insert(VoteIndex(from));
}

void Pbft::MaybeExecute(double* cpu) {
  // Execute committed instances strictly in sequence order.
  while (true) {
    uint64_t next = ExecHeight() + 1;
    auto it = instances_.find(next);
    if (it == instances_.end()) return;
    Instance& inst = it->second;
    if (inst.block == nullptr || inst.commits.size() < Quorum()) return;
    double commit_cpu = 0;
    bool ok = host_->CommitBlock(inst.block, &commit_cpu);
    *cpu += commit_cpu;
    auto* hook = host_->host_sim()->hook();
    if (hook != nullptr && ok) {
      hook->Emit({.kind = obs::EventKind::kPhase,
                  .node = uint32_t(host_->node_id()), .t = host_->HostNow(),
                  .id = next, .aux = view_, .name = "pbft.commit",
                  .start = inst.t_prepared, .end = host_->HostNow(),
                  .arg = "seq", .value = double(next)});
    }
    // Retain the executed certificate until the stable checkpoint (low
    // watermark) passes it; GC the log tail whenever the watermark
    // advances by another kCheckpointInterval.
    cert_log_.push_back(
        {next, uint64_t(inst.prepares.size() + inst.commits.size())});
    cert_vote_total_ += cert_log_.back().votes;
    if (next >= 2 * kCheckpointInterval) {
      uint64_t stable = (next / kCheckpointInterval - 1) * kCheckpointInterval;
      while (!cert_log_.empty() && cert_log_.front().seq <= stable) {
        cert_vote_total_ -= cert_log_.front().votes;
        cert_log_.pop_front();
      }
    }
    instances_.erase(it);
    if (!ok) return;
    last_progress_exec_ = ExecHeight();
    last_progress_time_ = host_->HostNow();
    consecutive_view_changes_ = 0;
    if (IsLeader()) TryPropose();
  }
}

void Pbft::StartViewChange(uint64_t target_view) {
  if (target_view <= view_change_target_ && in_view_change_) return;
  in_view_change_ = true;
  view_change_target_ = target_view;
  ++view_changes_started_;
  ++consecutive_view_changes_;
  if (view_change_start_ < 0) view_change_start_ = host_->HostNow();
  DiscardInflight();
  ViewChangeMsg m{target_view, ExecHeight()};
  view_change_votes_[target_view].insert(host_->node_id());
  host_->HostBroadcast(MsgKind::kPbftViewChange, m, kControlMsgBytes);
  // A solo quorum (N <= 1 is degenerate) or pre-existing votes may
  // already satisfy the target.
  OnViewChange(host_->node_id(), m);
}

void Pbft::OnViewChange(sim::NodeId from, const ViewChangeMsg& m) {
  if (m.new_view <= view_) return;
  auto& votes = view_change_votes_[m.new_view];
  votes.insert(from);
  // Join the view change once f+1 peers demand it (PBFT's catch-up rule),
  // to keep honest nodes from being left behind.
  if (!in_view_change_ && votes.size() >= MaxFaults() + 1 &&
      m.new_view > view_change_target_) {
    StartViewChange(m.new_view);
    return;
  }
  if (votes.size() >= Quorum()) {
    if (LeaderOf(m.new_view) == host_->node_id()) {
      host_->HostBroadcast(MsgKind::kPbftNewView, NewViewMsg{m.new_view},
                           kControlMsgBytes);
      EnterView(m.new_view);
      TryPropose();
    }
  }
}

void Pbft::OnNewView(sim::NodeId from, const NewViewMsg& m) {
  if (m.new_view <= view_) return;
  if (LeaderOf(m.new_view) != from) return;
  EnterView(m.new_view);
}

void Pbft::EnterView(uint64_t view) {
  if (auto* hook = host_->host_sim()->hook()) {
    hook->Emit({.kind = obs::EventKind::kPhase,
                .node = uint32_t(host_->node_id()), .t = host_->HostNow(),
                .id = view, .name = "pbft.view_change",
                .start = view_change_start_, .end = host_->HostNow(),
                .arg = "view", .value = double(view)});
  }
  view_change_start_ = -1;
  view_ = view;
  in_view_change_ = false;
  view_change_target_ = std::max(view_change_target_, view);
  DiscardInflight();
  // Drop stale vote bookkeeping.
  for (auto it = view_change_votes_.begin(); it != view_change_votes_.end();) {
    it = it->first <= view_ ? view_change_votes_.erase(it) : ++it;
  }
  last_progress_time_ = host_->HostNow();
}

void Pbft::DiscardInflight() {
  // Unexecuted proposals die with the view; their transactions go back
  // to the pool so the next leader can re-batch them.
  for (auto& [seq, inst] : instances_) {
    if (inst.block != nullptr && !inst.executed) {
      host_->RequeueTxs(inst.block->txs);
    }
  }
  instances_.clear();
  last_proposed_seq_ = 0;
}

void Pbft::OnStatus(sim::NodeId from, const StatusMsg& m) {
  if (m.height > ExecHeight() && !fetch_outstanding_) {
    fetch_outstanding_ = true;
    host_->HostSend(from, MsgKind::kPbftFetchReq, FetchReqMsg{ExecHeight()},
                    kControlMsgBytes);
    // Clear the flag after a grace period even if the reply is lost.
    host_->host_sim()->After(2.0, [this] { fetch_outstanding_ = false; });
  }
}

void Pbft::OnFetchReq(sim::NodeId from, const FetchReqMsg& m) {
  BlocksMsg reply;
  reply.view = view_;
  uint64_t size = kControlMsgBytes;
  reply.blocks =
      host_->chain_store().CanonicalRangePtr(m.from_height, ExecHeight());
  for (const auto& b : reply.blocks) size += b->SizeBytes();
  if (reply.blocks.empty()) return;
  host_->HostSend(from, MsgKind::kPbftBlocks, std::move(reply), size);
}

void Pbft::OnBlocks(const BlocksMsg& m, double* cpu) {
  // State transfer: blocks come with (implied) execution certificates,
  // so apply them directly in order.
  for (const auto& b : m.blocks) {
    if (b->header.height != ExecHeight() + 1) continue;
    double commit_cpu = 0;
    host_->CommitBlock(b, &commit_cpu);
    *cpu += commit_cpu;
  }
  if (m.view > view_) EnterView(m.view);
  last_progress_exec_ = ExecHeight();
  last_progress_time_ = host_->HostNow();
}

void Pbft::ExportMetrics(obs::MetricsRegistry* reg,
                         const obs::Labels& labels) const {
  reg->AddCounter("consensus.view_changes", labels, view_changes_started_);
  reg->AddCounter("consensus.blocks_proposed", labels, blocks_proposed_);
  reg->SetGauge("consensus.view", labels, double(view_));
}

}  // namespace bb::consensus
