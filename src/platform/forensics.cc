#include "platform/forensics.h"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "platform/rpc.h"
#include "platform/sharding.h"

namespace bb::platform {

namespace {

/// Parses a prepare record's "0,2,3" participant list.
std::vector<uint32_t> ParseParticipants(const chain::Transaction& tx) {
  std::vector<uint32_t> shards;
  if (tx.args.empty() || !tx.args[0].is_str()) return shards;
  const std::string& csv = tx.args[0].AsStr();
  uint32_t current = 0;
  bool have = false;
  for (char c : csv) {
    if (c >= '0' && c <= '9') {
      current = current * 10 + uint32_t(c - '0');
      have = true;
    } else if (c == ',' && have) {
      shards.push_back(current);
      current = 0;
      have = false;
    }
  }
  if (have) shards.push_back(current);
  return shards;
}

}  // namespace

void AttachStandardProbes(obs::Sampler* sampler, Platform* platform) {
  for (size_t i = 0; i < platform->num_servers(); ++i) {
    uint32_t id = uint32_t(i);
    PlatformNode* node = &platform->node(i);
    sim::Network* net = &platform->network();
    if (platform->num_shards() > 1) {
      uint32_t shard = uint32_t(i / platform->servers_per_shard());
      sampler->AddGauge(id, "shard.id",
                        [shard] { return double(shard); });
    }
    sampler->AddGauge(id, "chain.height", [node] {
      return double(node->chain().head_height());
    });
    sampler->AddGauge(id, "chain.forks", [node] {
      return double(node->chain().orphaned_blocks());
    });
    sampler->AddGauge(id, "pool.depth",
                      [node] { return double(node->pending_txs()); });
    sampler->AddGauge(id, "net.crashed", [net, id] {
      return net->IsCrashed(id) ? 1.0 : 0.0;
    });
    sampler->AddGauge(id, "net.side", [net, id] {
      return double(net->PartitionSideOf(id));
    });
    sampler->AddTag(id, "chain.head",
                    [node] { return node->chain().head().ShortHex(); });
    for (consensus::Engine::LiveGauge& g : node->engine().LiveGauges()) {
      sampler->AddGauge(id, g.name, std::move(g.fn));
    }
    if (auto* mt = platform->psim()->memtracker()) {
      // One counter track per subsystem plus the node total — the live
      // footprint timeline next to chain.height / pool.depth.
      for (uint8_t s = 0; s < obs::mem::kNumSubsystems; ++s) {
        sampler->AddGauge(id, obs::mem::TrackName(s), [mt, id, s] {
          return double(mt->current(id, obs::mem::Subsystem(s)));
        });
      }
      sampler->AddGauge(id, "mem.total",
                        [mt, id] { return double(mt->node_current(id)); });
    }
  }
  if (auto* sharded = dynamic_cast<ShardedPlatform*>(platform)) {
    uint32_t id = uint32_t(sharded->coordinator_id());
    ShardCoordinator* coord = &sharded->coordinator();
    sampler->AddGauge(id, "xs.pending",
                      [coord] { return double(coord->pending()); });
    sampler->AddGauge(id, "xs.committed",
                      [coord] { return double(coord->committed()); });
    sampler->AddGauge(id, "xs.aborted",
                      [coord] { return double(coord->aborted()); });
  }
}

obs::NodeChainView CollectNodeView(Platform& platform, size_t i) {
  PlatformNode& node = platform.node(i);
  const chain::ChainStore& store = node.chain();
  obs::NodeChainView view;
  view.node = uint32_t(i);
  view.crashed = platform.network().IsCrashed(uint32_t(i));
  view.genesis = store.genesis().ToHex();
  view.head = store.head().ToHex();
  view.head_height = store.head_height();
  view.reorgs = store.reorgs();
  view.invalid_blocks = store.invalid_blocks();
  view.blocks.reserve(store.total_blocks());
  store.ForEachBlock([&](const Hash256& hash, const chain::Block& block) {
    if (hash == store.genesis()) return;
    obs::AuditBlock b;
    b.hash = hash.ToHex();
    b.parent = block.header.parent.ToHex();
    b.height = block.header.height;
    b.proposer = block.header.proposer;
    b.timestamp = block.header.timestamp;
    b.weight = block.header.weight;
    b.canonical = store.IsCanonical(hash);
    view.blocks.push_back(std::move(b));
  });
  // ChainStore iterates an unordered_map; sort so the extracted view is
  // deterministic on its own, not only after the auditor re-sorts.
  std::sort(view.blocks.begin(), view.blocks.end(),
            [](const obs::AuditBlock& a, const obs::AuditBlock& b) {
              return a.height != b.height ? a.height < b.height
                                          : a.hash < b.hash;
            });

  if (platform.num_shards() > 1) {
    view.shard = uint32_t(i / platform.servers_per_shard());
    // Replay the 2PC protocol off this node's canonical chain: pass one
    // finds the sealed "__xshard" prepare markers, pass two matches the
    // sealed original transactions (the commits) against them.
    std::vector<const chain::Block*> canonical;
    store.ForEachBlock([&](const Hash256& hash, const chain::Block& block) {
      if (hash == store.genesis() || !store.IsCanonical(hash)) return;
      canonical.push_back(&block);
    });
    std::sort(canonical.begin(), canonical.end(),
              [](const chain::Block* a, const chain::Block* b) {
                return a->header.height < b->header.height;
              });
    std::set<uint64_t> prepared;
    for (const chain::Block* block : canonical) {
      for (const chain::TxPtr& tx : block->txs) {
        if (tx->contract == kXsContract) prepared.insert(XsBaseId(tx->id));
      }
    }
    for (const chain::Block* block : canonical) {
      for (const chain::TxPtr& ptr : block->txs) {
        const chain::Transaction& tx = *ptr;
        obs::XsRecord r;
        if (tx.contract == kXsContract) {
          r.base_id = XsBaseId(tx.id);
          r.phase = tx.function;
          if (tx.function == "prepare") r.participants = ParseParticipants(tx);
        } else if (prepared.count(tx.id) != 0) {
          r.base_id = tx.id;
          r.phase = "commit";
        } else {
          continue;
        }
        r.timestamp = block->header.timestamp;
        view.xs_records.push_back(std::move(r));
      }
    }
  }
  return view;
}

std::vector<obs::NodeChainView> CollectAuditViews(Platform& platform) {
  std::vector<obs::NodeChainView> views;
  views.reserve(platform.num_servers());
  for (size_t i = 0; i < platform.num_servers(); ++i) {
    views.push_back(CollectNodeView(platform, i));
  }
  return views;
}

obs::AuditReport RunAudit(Platform& platform,
                          const obs::AuditorConfig& config) {
  obs::AuditorConfig cfg = config;
  if (cfg.num_shards <= 1) cfg.num_shards = uint32_t(platform.num_shards());
  obs::Auditor auditor(cfg);
  for (obs::NodeChainView& v : CollectAuditViews(platform)) {
    auditor.AddNode(std::move(v));
  }
  return auditor.Run();
}

}  // namespace bb::platform
