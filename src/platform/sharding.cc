#include "platform/sharding.h"

#include <string>

#include "obs/event.h"
#include "obs/profiler.h"

namespace bb::platform {

using sim::MsgKind;

namespace {

/// Comma-separated participant list carried by every record so the
/// auditor can recover the shard set from any one chain.
std::string ParticipantsCsv(const std::vector<uint32_t>& shards) {
  std::string csv;
  for (uint32_t s : shards) {
    if (!csv.empty()) csv += ',';
    csv += std::to_string(s);
  }
  return csv;
}

/// Delay before re-submitting a record a shard's admission path
/// rejected (pool full / rate limited).
constexpr double kResubmitDelay = 1.0;

}  // namespace

// --- ShardCoordinator --------------------------------------------------------

ShardCoordinator::ShardCoordinator(sim::NodeId id, sim::Network* network,
                                   ShardedPlatform* platform)
    : sim::Node(id, network), platform_(platform) {
  if (auto* mt = sim()->memtracker()) {
    mem_entries_ = {mt, uint32_t(id), obs::mem::kConsensus};
  }
}

double ShardCoordinator::HandleMessage(const sim::Message& msg) {
  BB_PROF_SCOPE("consensus.xs_coordinator");
  double cpu = 0;
  if (msg.kind == MsgKind::kXsClientTx) {
    cpu = HandleClientTx(msg);
  } else if (msg.kind == MsgKind::kXsSealed) {
    cpu = HandleSealed(msg);
  } else if (msg.kind == MsgKind::kClientTxReject) {
    cpu = HandleReject(msg);
  }
  SyncMemGauge();
  return cpu;
}

void ShardCoordinator::SyncMemGauge() {
  if (!mem_entries_) return;
  uint64_t b = 0;
  for (const auto& [base_id, e] : entries_) {
    b += obs::mem::kMapEntryBytes + sizeof(Entry) + e.tx.SizeBytes() +
         e.shards.size() * sizeof(uint32_t) +
         e.prepared.size() * obs::mem::kSetEntryBytes;
  }
  mem_entries_.Set(b);
}

chain::TxPtr ShardCoordinator::MakeRecord(const Entry& e, const char* phase,
                                          uint64_t id_bit) const {
  chain::Transaction rec;
  rec.id = e.tx.id | id_bit;
  rec.sender = "xs_coordinator";
  rec.contract = kXsContract;
  rec.function = phase;
  rec.args = {vm::Value(ParticipantsCsv(e.shards))};
  rec.submit_time = Now();
  rec.Seal();
  return chain::Share(std::move(rec));
}

void ShardCoordinator::SubmitToShard(uint32_t shard,
                                     const chain::TxPtr& record) {
  // Records enter the shard through the same admission path as client
  // transactions (dedup, rate limit, pool capacity, gossip).
  Send(platform_->ServerInShard(shard, 0), MsgKind::kClientTx,
       ClientTx{record}, record->SizeBytes());
}

double ShardCoordinator::HandleClientTx(const sim::Message& msg) {
  const auto& m = msg.payload.As<XsClientTx>();
  double cpu = platform_->options().xs_coordinator_cpu;
  if (msg.corrupted) return cpu;
  uint64_t base_id = m.tx->id;
  if (entries_.count(base_id)) return cpu;  // duplicate submission
  Entry& e = entries_[base_id];
  e.tx = *m.tx;
  e.shards = m.shards;
  e.client = msg.from;
  ++started_;
  if (auto* hook = sim()->hook()) {
    hook->Emit({.kind = obs::EventKind::kPhase, .node = uint32_t(id()),
                .t = Now(), .id = base_id, .aux = e.shards.size(),
                .name = "xs.prepare"});
  }
  chain::TxPtr prepare = MakeRecord(e, "prepare", kXsPrepareBit);
  for (uint32_t shard : e.shards) SubmitToShard(shard, prepare);
  sim()->After(platform_->options().xs_prepare_timeout,
               [this, base_id] { OnPrepareTimeout(base_id); });
  return cpu * double(e.shards.size());
}

double ShardCoordinator::HandleSealed(const sim::Message& msg) {
  const auto& m = msg.payload.As<XsSealed>();
  double cpu = platform_->options().xs_coordinator_cpu;
  if (msg.corrupted) return cpu;
  if ((m.record_id & kXsPrepareBit) == 0) return cpu;  // abort bookkeeping
  auto it = entries_.find(XsBaseId(m.record_id));
  if (it == entries_.end() || it->second.decided) return cpu;
  // Every server in the shard notifies when it executes the record;
  // dedup to one vote per shard.
  uint32_t shard = uint32_t(size_t(msg.from) / platform_->servers_per_shard());
  it->second.prepared.insert(shard);
  if (it->second.prepared.size() == it->second.shards.size()) {
    Decide(it->first, /*commit=*/true);
  }
  return cpu;
}

double ShardCoordinator::HandleReject(const sim::Message& msg) {
  const auto& m = msg.payload.As<ClientTxReject>();
  double cpu = platform_->options().xs_coordinator_cpu;
  if (msg.corrupted) return cpu;
  auto it = entries_.find(XsBaseId(m.tx_id));
  if (it == entries_.end()) return cpu;
  // Rebuild the rejected record and retry on the same shard after a
  // back-off: 2PC must not stall on a transient admission refusal.
  uint32_t shard = uint32_t(size_t(msg.from) / platform_->servers_per_shard());
  chain::TxPtr record;
  if (m.tx_id & kXsPrepareBit) {
    if (it->second.decided) return cpu;  // prepare phase already over
    record = MakeRecord(it->second, "prepare", kXsPrepareBit);
  } else if (m.tx_id & kXsAbortBit) {
    record = MakeRecord(it->second, "abort", kXsAbortBit);
  } else {
    record = chain::Share(it->second.tx);  // the commit record
  }
  sim()->After(kResubmitDelay, [this, shard, record] {
    if (!crashed()) SubmitToShard(shard, record);
  });
  return cpu;
}

void ShardCoordinator::OnPrepareTimeout(uint64_t base_id) {
  auto it = entries_.find(base_id);
  if (it == entries_.end() || it->second.decided) return;
  if (auto* hook = sim()->hook()) {
    hook->Emit({.kind = obs::EventKind::kTimer, .node = uint32_t(id()),
                .t = Now(), .id = base_id, .name = "xs.prepare_timeout"});
  }
  Decide(base_id, /*commit=*/false);
  // Timeouts fire as scheduled events, outside the HandleMessage epilogue.
  SyncMemGauge();
}

void ShardCoordinator::Decide(uint64_t base_id, bool commit) {
  Entry& e = entries_.at(base_id);
  e.decided = true;
  if (auto* hook = sim()->hook()) {
    hook->Emit({.kind = obs::EventKind::kPhase, .node = uint32_t(id()),
                .t = Now(), .id = base_id, .aux = e.shards.size(),
                .name = commit ? "xs.commit" : "xs.abort"});
  }
  if (commit) {
    ++committed_;
    if (break_atomicity_ && e.shards.size() > 1) {
      // Deliberately broken: commit lands on the first participant only,
      // the rest see an abort — the atomicity invariant's target.
      SubmitToShard(e.shards.front(), chain::Share(e.tx));
      chain::TxPtr abort_rec = MakeRecord(e, "abort", kXsAbortBit);
      for (size_t i = 1; i < e.shards.size(); ++i) {
        SubmitToShard(e.shards[i], abort_rec);
      }
      return;
    }
    // The commit record is the original transaction: each participant
    // shard seals and executes it, and the client's home-shard poll
    // discovers it exactly like a single-shard commit.
    chain::TxPtr commit_rec = chain::Share(e.tx);
    for (uint32_t shard : e.shards) SubmitToShard(shard, commit_rec);
    return;
  }
  ++aborted_;
  chain::TxPtr abort_rec = MakeRecord(e, "abort", kXsAbortBit);
  for (uint32_t shard : e.shards) SubmitToShard(shard, abort_rec);
  Send(e.client, MsgKind::kClientTxReject, ClientTxReject{e.tx.id}, 60);
}

// --- ShardedPlatform ---------------------------------------------------------

ShardedPlatform::ShardedPlatform(sim::Simulation* sim, PlatformOptions options,
                                 size_t servers_per_shard, uint64_t seed)
    // `options` is deliberately copied (not moved) into the base: the
    // num_servers argument also reads it, and argument evaluation order
    // is unspecified.
    : Platform(sim, options, options.num_shards * servers_per_shard, seed),
      shards_(options.num_shards),
      per_shard_(servers_per_shard) {
  // Carve the flat node array into per-shard consensus groups and wire
  // every server to the 2PC coordinator.
  for (size_t i = 0; i < num_servers(); ++i) {
    nodes_[i]->set_peer_group(sim::NodeId((i / per_shard_) * per_shard_),
                              per_shard_);
    nodes_[i]->set_xs_notify(coordinator_id());
  }
  coordinator_ =
      std::make_unique<ShardCoordinator>(coordinator_id(), network_.get(), this);
}

ShardedPlatform::~ShardedPlatform() = default;

uint64_t ShardedPlatform::CanonicalBlocks() const {
  uint64_t total = 0;
  for (size_t s = 0; s < shards_; ++s) {
    total += nodes_[s * per_shard_]->chain().main_chain_blocks();
  }
  return total;
}

std::unique_ptr<Platform> MakePlatform(sim::Simulation* sim,
                                       PlatformOptions options,
                                       size_t num_servers, uint64_t seed) {
  if (options.num_shards <= 1) {
    return std::make_unique<Platform>(sim, std::move(options), num_servers,
                                      seed);
  }
  return std::make_unique<ShardedPlatform>(sim, std::move(options),
                                           num_servers, seed);
}

}  // namespace bb::platform
