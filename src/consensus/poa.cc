#include "consensus/poa.h"

#include <cmath>

#include "obs/event.h"
#include "obs/profiler.h"

namespace bb::consensus {

using sim::MsgKind;

void ProofOfAuthority::Start(ConsensusHost* host) {
  host_ = host;
  active_ = true;
  ScheduleNextStep();
}

void ProofOfAuthority::OnRestart() {
  if (host_ == nullptr) return;
  active_ = true;
  ScheduleNextStep();
}

void ProofOfAuthority::ScheduleNextStep() {
  if (!active_) return;
  double now = host_->HostNow();
  uint64_t current_step = uint64_t(now / config_.step_duration);
  // Next step slot assigned to this authority.
  uint64_t n = host_->num_nodes();
  uint64_t self = host_->node_id() - host_->peer_base();
  uint64_t next = current_step + 1;
  while (next % n != self) ++next;
  double when = double(next) * config_.step_duration;
  host_->host_sim()->At(when, [this, next] { OnStep(next); });
}

void ProofOfAuthority::OnStep(uint64_t step) {
  if (!active_) return;
  if (auto* hook = host_->host_sim()->hook()) {
    hook->Emit({.kind = obs::EventKind::kTimer,
                .node = uint32_t(host_->node_id()), .t = host_->HostNow(),
                .id = step, .name = "poa.step"});
  }
  double build_cpu = 0;
  auto block = host_->BuildBlock(host_->chain_store().head(),
                                 host_->chain_store().head_height(),
                                 config_.seal_empty_blocks, &build_cpu);
  if (block.has_value()) {
    // Weight stays 1: fork choice degenerates to longest chain.
    block->header.nonce = step;
    ++blocks_sealed_;
    // Seal once; the store and every peer share the same instance.
    auto ptr = chain::Seal(std::move(*block));
    double commit_cpu = 0;
    host_->CommitBlock(ptr, &commit_cpu);
    host_->ChargeBackground(build_cpu + commit_cpu);
    if (auto* hook = host_->host_sim()->hook()) {
      // The clock does not advance inside one event, so the seal span's
      // extent is the modeled build + commit CPU time.
      double now = host_->HostNow();
      uint64_t height = host_->chain_store().head_height();
      hook->Emit({.kind = obs::EventKind::kPhase,
                  .node = uint32_t(host_->node_id()), .t = now, .id = height,
                  .aux = step, .name = "poa.seal", .start = now,
                  .end = now + build_cpu + commit_cpu, .arg = "height",
                  .value = double(height)});
    }
    host_->HostBroadcast(MsgKind::kPoaBlock, ptr, ptr->SizeBytes());
  }
  ScheduleNextStep();
}

bool ProofOfAuthority::HandleMessage(const sim::Message& msg, double* cpu) {
  BB_PROF_SCOPE("consensus.poa.handle");
  if (HandleSync(host_, msg, cpu)) return true;
  if (msg.kind != MsgKind::kPoaBlock) return false;
  if (msg.corrupted) {
    // Bad seal signature; rejected.
    *cpu += config_.block_validate_cpu;
    return true;
  }
  const auto& block = msg.payload.As<BlockPtr>();
  *cpu += config_.block_validate_cpu +
          config_.tx_validate_cpu * double(block->txs.size());
  uint64_t old_reorgs = host_->chain_store().reorgs();
  double commit_cpu = 0;
  if (!host_->CommitBlock(block, &commit_cpu)) {
    RequestSync(host_, msg.from);
  }
  *cpu += commit_cpu;
  auto* hook = host_->host_sim()->hook();
  if (hook != nullptr && host_->chain_store().reorgs() > old_reorgs) {
    hook->Emit({.kind = obs::EventKind::kReorg,
                .node = uint32_t(host_->node_id()), .t = host_->HostNow(),
                .name = "poa.fork_switch", .arg = "height",
                .value = double(host_->chain_store().head_height())});
  }
  return true;
}

void ProofOfAuthority::ExportMetrics(obs::MetricsRegistry* reg,
                                     const obs::Labels& labels) const {
  reg->AddCounter("consensus.blocks_sealed", labels, blocks_sealed_);
}

}  // namespace bb::consensus
