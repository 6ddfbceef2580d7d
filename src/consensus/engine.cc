#include "consensus/engine.h"

namespace bb::consensus {

namespace {
constexpr double kSyncRequestInterval = 0.5;
constexpr size_t kMaxBlocksPerSync = 1024;
}  // namespace

void Engine::RequestSync(ConsensusHost* host, sim::NodeId from) {
  double now = host->HostNow();
  if (now - last_sync_request_ < kSyncRequestInterval) return;
  last_sync_request_ = now;
  uint64_t head = host->chain_store().head_height();
  uint64_t from_height = head > sync_window_ ? head - sync_window_ : 0;
  host->HostSend(from, sim::MsgKind::kSyncFetchReq, SyncFetchReq{from_height},
                 60);
  // The fork point may be deeper than the current window; widen for the
  // next attempt until something attaches.
  if (sync_window_ < (uint64_t(1) << 20)) sync_window_ *= 2;
}

bool Engine::HandleSync(ConsensusHost* host, const sim::Message& msg,
                        double* cpu) {
  if (msg.kind == sim::MsgKind::kSyncFetchReq) {
    if (msg.corrupted) return true;
    const auto& m = msg.payload.As<SyncFetchReq>();
    SyncBlocks reply;
    uint64_t bytes = 80;
    uint64_t to = std::min(host->chain_store().head_height(),
                           m.from_height + kMaxBlocksPerSync);
    reply.blocks = host->chain_store().CanonicalRangePtr(m.from_height, to);
    for (const auto& b : reply.blocks) bytes += b->SizeBytes();
    if (!reply.blocks.empty()) {
      host->HostSend(msg.from, sim::MsgKind::kSyncBlocks, std::move(reply),
                     bytes);
    }
    return true;
  }
  if (msg.kind == sim::MsgKind::kSyncBlocks) {
    if (msg.corrupted) return true;
    const auto& m = msg.payload.As<SyncBlocks>();
    bool progressed = false;
    for (const auto& b : m.blocks) {
      bool known = host->chain_store().Contains(b->HashOf());
      double commit_cpu = 0;
      if (host->CommitBlock(b, &commit_cpu) && !known) progressed = true;
      *cpu += commit_cpu;
    }
    if (progressed) sync_window_ = 8;
    return true;
  }
  return false;
}

}  // namespace bb::consensus
