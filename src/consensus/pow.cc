#include "consensus/pow.h"

#include <cmath>

#include "obs/event.h"
#include "obs/profiler.h"

namespace bb::consensus {

using sim::MsgKind;

double ProofOfWork::PerNodeMeanInterval() const {
  double n = double(host_->num_nodes());
  double network_interval = config_.base_block_interval;
  if (n > double(config_.reference_nodes)) {
    network_interval *= std::pow(n / double(config_.reference_nodes),
                                 config_.difficulty_growth);
  }
  // N miners racing, each exponential with mean N * network_interval,
  // yields a network minimum with mean network_interval.
  return network_interval * n;
}

void ProofOfWork::Start(ConsensusHost* host) {
  host_ = host;
  mining_ = true;
  ScheduleMine();
  CpuTick();
}

void ProofOfWork::CpuTick() {
  // Mining burns CPU continuously on the reserved cores; meter it in
  // 1-second slices for the utilization figure.
  if (!mining_) return;
  host_->ChargeBackground(config_.mining_cpu_utilization);
  host_->host_sim()->After(1.0, [this] { CpuTick(); });
}

void ProofOfWork::ScheduleMine() {
  if (!mining_) return;
  uint64_t epoch = ++mining_epoch_;
  mine_start_ = host_->HostNow();
  double delay = rng_.Exponential(PerNodeMeanInterval());
  host_->host_sim()->After(delay, [this, epoch] { OnMined(epoch); });
}

void ProofOfWork::OnMined(uint64_t epoch) {
  if (!mining_ || epoch != mining_epoch_) return;  // stale race ticket
  double build_cpu = 0;
  auto block = host_->BuildBlock(host_->chain_store().head(),
                                 host_->chain_store().head_height(),
                                 config_.mine_empty_blocks, &build_cpu);
  if (block.has_value()) {
    block->header.nonce = rng_.Next();
    // Weight models accumulated difficulty; constant within a run since
    // difficulty is fixed by the genesis configuration.
    block->header.weight = 1000;
    ++blocks_mined_;
    if (auto* hook = host_->host_sim()->hook()) {
      hook->Emit({.kind = obs::EventKind::kPhase,
                  .node = uint32_t(host_->node_id()), .t = host_->HostNow(),
                  .id = block->header.height, .name = "pow.mine",
                  .start = mine_start_, .end = host_->HostNow(),
                  .arg = "height", .value = double(block->header.height)});
    }
    // Seal once; the store and every peer share the same instance.
    auto ptr = chain::Seal(std::move(*block));
    double commit_cpu = 0;
    host_->CommitBlock(ptr, &commit_cpu);
    host_->ChargeBackground(build_cpu + commit_cpu);
    host_->HostBroadcast(MsgKind::kPowBlock, ptr, ptr->SizeBytes());
  }
  ScheduleMine();
}

bool ProofOfWork::HandleMessage(const sim::Message& msg, double* cpu) {
  BB_PROF_SCOPE("consensus.pow.handle");
  if (HandleSync(host_, msg, cpu)) {
    ScheduleMine();  // the sync may have moved the head
    return true;
  }
  if (msg.kind != MsgKind::kPowBlock) return false;
  if (msg.corrupted) {
    // Corrupted block fails hash verification and is discarded.
    *cpu += config_.block_validate_cpu;
    return true;
  }
  const auto& block = msg.payload.As<BlockPtr>();
  *cpu += config_.block_validate_cpu +
          config_.tx_validate_cpu * double(block->txs.size());
  Hash256 old_head = host_->chain_store().head();
  uint64_t old_reorgs = host_->chain_store().reorgs();
  double commit_cpu = 0;
  if (!host_->CommitBlock(block, &commit_cpu)) {
    // Missing ancestors: pull the sender's chain.
    RequestSync(host_, msg.from);
  }
  *cpu += commit_cpu;
  if (host_->chain_store().head() != old_head) {
    if (auto* hook = host_->host_sim()->hook()) {
      const uint32_t node = uint32_t(host_->node_id());
      if (host_->chain_store().reorgs() > old_reorgs) {
        hook->Emit({.kind = obs::EventKind::kReorg, .node = node,
                    .t = host_->HostNow(), .name = "pow.fork_switch",
                    .arg = "height",
                    .value = double(host_->chain_store().head_height())});
      }
      if (mining_) {
        hook->Emit({.kind = obs::EventKind::kPhase, .node = node,
                    .t = host_->HostNow(), .name = "pow.mine_abandoned",
                    .start = obs::kInstant});
      }
    }
    // Head moved: abandon the in-flight race and mine on the new tip.
    ScheduleMine();
  }
  return true;
}

void ProofOfWork::OnCrash() { mining_ = false; }

void ProofOfWork::OnRestart() {
  if (host_ == nullptr) return;
  mining_ = true;
  ScheduleMine();
  CpuTick();
}

void ProofOfWork::ExportMetrics(obs::MetricsRegistry* reg,
                                const obs::Labels& labels) const {
  reg->AddCounter("consensus.blocks_mined", labels, blocks_mined_);
}

}  // namespace bb::consensus
