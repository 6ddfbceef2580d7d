#include "consensus/tendermint.h"

#include <algorithm>

#include "obs/event.h"
#include "obs/profiler.h"

namespace bb::consensus {

using sim::MsgKind;

namespace {
constexpr uint64_t kVoteBytes = 110;
}

void Tendermint::Start(ConsensusHost* host) {
  host_ = host;
  active_ = true;
  round_ = 0;
  last_commit_time_ = host_->HostNow();
  Poll();
  StartRoundTimer();
}

void Tendermint::OnCrash() { active_ = false; }

void Tendermint::OnRestart() {
  if (host_ == nullptr) return;
  active_ = true;
  round_ = 0;
  rounds_.clear();
  last_commit_time_ = host_->HostNow();
  Poll();
  StartRoundTimer();
}

void Tendermint::OnNewTransactions() {
  if (active_) MaybePropose();
}

sim::NodeId Tendermint::ProposerOf(uint64_t height, uint64_t round) const {
  // Stake-weighted round robin: validators appear in the rotation in
  // proportion to their stake, deterministically from (height, round).
  size_t n = host_->num_nodes();
  double total = 0;
  for (size_t i = 0; i < n; ++i) {
    total += config_.stake[i % config_.stake.size()];
  }
  // Derive a deterministic, well-mixed position along the cumulative
  // stake line — consecutive rounds must land on different validators
  // or a crashed proposer would stall the height for many rounds.
  uint64_t x = height * 0x9e3779b97f4a7c15ULL ^
               (round + 1) * 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 30;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 27;
  double point = double(x % 99991) / 99991.0 * total;
  double acc = 0;
  for (size_t i = 0; i < n; ++i) {
    acc += config_.stake[i % config_.stake.size()];
    if (point < acc) return sim::NodeId(host_->peer_base() + i);
  }
  return sim::NodeId(host_->peer_base() + n - 1);
}

void Tendermint::Poll() {
  if (!active_) return;
  MaybePropose();
  PruneOldRounds();
  host_->host_sim()->After(config_.poll_interval, [this] { Poll(); });
}

void Tendermint::MaybePropose() {
  if (!IsProposer()) return;
  uint64_t h = Height() + 1;
  RoundState& rs = State(h, round_);
  if (rs.proposal != nullptr) return;  // already proposed this round
  size_t pending = host_->pending_txs();
  if (pending == 0) return;
  if (pending < config_.batch_size &&
      host_->HostNow() - last_proposal_time_ < config_.batch_timeout) {
    return;
  }

  double build_cpu = 0;
  auto block = host_->BuildBlock(host_->chain_store().head(), Height(),
                                 /*allow_empty=*/false, &build_cpu);
  if (!block.has_value()) return;
  host_->ChargeBackground(build_cpu);
  block->header.nonce = (h << 16) | round_;
  auto ptr = chain::Seal(std::move(*block));
  ++blocks_proposed_;
  last_proposal_time_ = host_->HostNow();

  rs.proposal = ptr;
  rs.proposal_hash = ptr->HashOf();
  rs.sent_prevote = true;
  rs.prevotes.insert(host_->node_id());
  rs.t_proposal = host_->HostNow();
  if (auto* hook = host_->host_sim()->hook()) {
    hook->Emit({.kind = obs::EventKind::kPhase,
                .node = uint32_t(host_->node_id()), .t = host_->HostNow(),
                .id = h, .aux = round_, .name = "tm.propose",
                .start = obs::kInstant, .arg = "height", .value = double(h)});
  }
  host_->HostBroadcast(MsgKind::kTmProposal, ProposalMsg{h, round_, ptr},
                       ptr->SizeBytes());
  host_->HostBroadcast(MsgKind::kTmPrevote,
                       VoteMsg{h, round_, rs.proposal_hash}, kVoteBytes);
}

double RoundTimeoutFor(const TendermintConfig& cfg, uint64_t round) {
  return cfg.round_timeout + cfg.round_timeout_delta * double(round);
}

void Tendermint::StartRoundTimer() {
  if (!active_) return;
  // Periodic progress check (robust to commits resetting the round): if
  // the current round has outlived its timeout without a commit, move on.
  host_->host_sim()->After(0.25, [this] {
    OnRoundTimeout(Height() + 1, round_);
    StartRoundTimer();
  });
}

void Tendermint::OnRoundTimeout(uint64_t height, uint64_t round) {
  if (!active_) return;
  if (Height() + 1 != height || round_ != round) return;
  double round_age = host_->HostNow() - std::max(last_commit_time_, round_start_time_);
  if (round_age < RoundTimeoutFor(config_, round)) return;
  // No progress this round and there is work to do.
  if (host_->pending_txs() > 0 || !rounds_.empty()) {
    if (auto* hook = host_->host_sim()->hook()) {
      hook->Emit({.kind = obs::EventKind::kTimer,
                  .node = uint32_t(host_->node_id()), .t = host_->HostNow(),
                  .id = round, .name = "tm.round_timeout"});
    }
    AdvanceRound();
  } else {
    round_start_time_ = host_->HostNow();  // idle: restart the clock
  }
}

void Tendermint::AdvanceRound() {
  ++rounds_failed_;
  ++round_;
  round_start_time_ = host_->HostNow();
  if (auto* hook = host_->host_sim()->hook()) {
    hook->Emit({.kind = obs::EventKind::kPhase,
                .node = uint32_t(host_->node_id()), .t = host_->HostNow(),
                .id = Height() + 1, .aux = round_ - 1,
                .name = "tm.round_failed", .start = obs::kInstant,
                .arg = "round", .value = double(round_ - 1)});
  }
  // The failed round's proposal (ours or the proposer's) is abandoned;
  // requeue what we proposed ourselves.
  auto it = rounds_.find({Height() + 1, round_ - 1});
  if (it != rounds_.end() && it->second.proposal != nullptr &&
      it->second.proposal->header.proposer == host_->node_id()) {
    host_->RequeueTxs(it->second.proposal->txs);
  }
  MaybePropose();
}

bool Tendermint::HandleMessage(const sim::Message& msg, double* cpu) {
  BB_PROF_SCOPE("consensus.tm.handle");
  if (HandleSync(host_, msg, cpu)) {
    if (Height() >= 1) round_ = 0;
    return true;
  }
  const auto accept = [&] {
    *cpu += config_.per_message_cpu;
    return active_ && !msg.corrupted;
  };
  switch (msg.kind) {
    case MsgKind::kTmProposal:
      if (accept()) OnProposal(msg.payload.As<ProposalMsg>(), cpu);
      return true;
    case MsgKind::kTmPrevote:
      if (accept()) OnPrevote(msg.from, msg.payload.As<VoteMsg>());
      return true;
    case MsgKind::kTmPrecommit:
      if (accept()) OnPrecommit(msg.from, msg.payload.As<VoteMsg>(), cpu);
      return true;
    default:
      return false;
  }
}

void Tendermint::OnProposal(const ProposalMsg& m, double* cpu) {
  if (m.height != Height() + 1) {
    if (m.height > Height() + 1) RequestSync(host_, m.block->header.proposer);
    return;
  }
  if (m.round < round_) return;
  if (ProposerOf(m.height, m.round) != m.block->header.proposer) return;
  *cpu += config_.tx_validate_cpu * double(m.block->txs.size());

  RoundState& rs = State(m.height, m.round);
  if (rs.proposal != nullptr) return;
  rs.proposal = m.block;
  rs.proposal_hash = m.block->HashOf();
  rs.t_proposal = host_->HostNow();
  if (m.round == round_ && !rs.sent_prevote) {
    rs.sent_prevote = true;
    rs.prevotes.insert(host_->node_id());
    host_->HostBroadcast(MsgKind::kTmPrevote,
                         VoteMsg{m.height, m.round, rs.proposal_hash},
                         kVoteBytes);
  }
}

void Tendermint::OnPrevote(sim::NodeId from, const VoteMsg& m) {
  if (m.height != Height() + 1 || m.round < round_) return;
  RoundState& rs = State(m.height, m.round);
  if (m.block_hash.IsZero()) {
    rs.nil_prevotes.insert(from);
    return;
  }
  rs.prevotes.insert(from);
  if (!rs.sent_precommit && rs.proposal != nullptr &&
      rs.proposal_hash == m.block_hash && rs.prevotes.size() >= Quorum()) {
    rs.sent_precommit = true;
    rs.precommits.insert(host_->node_id());
    rs.t_prevote_q = host_->HostNow();
    if (auto* hook = host_->host_sim()->hook()) {
      hook->Emit({.kind = obs::EventKind::kPhase,
                  .node = uint32_t(host_->node_id()), .t = host_->HostNow(),
                  .id = m.height, .aux = m.round, .name = "tm.prevote",
                  .start = rs.t_proposal, .end = rs.t_prevote_q,
                  .arg = "height", .value = double(m.height)});
    }
    host_->HostBroadcast(MsgKind::kTmPrecommit,
                         VoteMsg{m.height, m.round, rs.proposal_hash},
                         kVoteBytes);
  }
}

void Tendermint::OnPrecommit(sim::NodeId from, const VoteMsg& m,
                             double* cpu) {
  if (m.height != Height() + 1 || m.round < round_) return;
  if (m.block_hash.IsZero()) return;
  RoundState& rs = State(m.height, m.round);
  rs.precommits.insert(from);
  if (rs.proposal == nullptr || rs.proposal_hash != m.block_hash) return;
  if (rs.precommits.size() < Quorum()) return;

  // Commit: immediate finality, reset to round 0 for the next height.
  double commit_cpu = 0;
  host_->CommitBlock(rs.proposal, &commit_cpu);
  *cpu += commit_cpu;
  if (auto* hook = host_->host_sim()->hook()) {
    hook->Emit({.kind = obs::EventKind::kPhase,
                .node = uint32_t(host_->node_id()), .t = host_->HostNow(),
                .id = m.height, .aux = m.round, .name = "tm.precommit",
                .start = rs.t_prevote_q, .end = host_->HostNow(),
                .arg = "height", .value = double(m.height)});
  }
  round_ = 0;
  last_commit_time_ = host_->HostNow();
  PruneOldRounds();
  MaybePropose();
}

void Tendermint::ExportMetrics(obs::MetricsRegistry* reg,
                               const obs::Labels& labels) const {
  reg->AddCounter("consensus.rounds_failed", labels, rounds_failed_);
  reg->AddCounter("consensus.blocks_proposed", labels, blocks_proposed_);
}

void Tendermint::PruneOldRounds() {
  uint64_t h = Height() + 1;
  for (auto it = rounds_.begin(); it != rounds_.end();) {
    it = it->first.first < h ? rounds_.erase(it) : ++it;
  }
}

}  // namespace bb::consensus
