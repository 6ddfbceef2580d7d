#include "baseline/hstore.h"

#include <cassert>
#include <functional>

namespace bb::baseline {

using sim::MsgKind;

namespace {

struct PrepareMsg {
  uint64_t txn_id;
  std::vector<KvOp> ops;
};
struct TxnIdMsg {
  uint64_t txn_id;
};

uint64_t OpsBytes(const std::vector<KvOp>& ops) {
  uint64_t n = 32;
  for (const auto& op : ops) n += op.key.size() + op.value.size() + 8;
  return n;
}

}  // namespace

HStoreCluster::HStoreCluster(sim::Simulation* sim, HStoreOptions options)
    : sim_(sim), options_(options) {
  network_ = std::make_unique<sim::Network>(sim_, options_.net);
  for (size_t i = 0; i < options_.num_sites; ++i) {
    sites_.push_back(std::make_unique<HStoreSite>(
        sim::NodeId(i), network_.get(), this, options_));
  }
}

HStoreCluster::~HStoreCluster() = default;

size_t HStoreCluster::num_sites() const { return sites_.size(); }

HStoreSite& HStoreCluster::site(size_t i) { return *sites_.at(i); }

size_t HStoreCluster::PartitionOf(const std::string& key) const {
  return std::hash<std::string>{}(key) % sites_.size();
}

size_t HStoreCluster::CoordinatorOf(const HsTransaction& txn) const {
  assert(!txn.ops.empty());
  return PartitionOf(txn.ops.front().key);
}

uint64_t HStoreCluster::single_partition_txns() const {
  // Tracked by sites; aggregate on demand (stats hooks kept minimal).
  return 0;
}
uint64_t HStoreCluster::multi_partition_txns() const { return 0; }

HStoreSite::HStoreSite(sim::NodeId id, sim::Network* network,
                       HStoreCluster* cluster, HStoreOptions options)
    : sim::Node(id, network), cluster_(cluster), options_(options) {}

void HStoreSite::Load(const std::string& key, const std::string& value) {
  data_[key] = value;
}

std::optional<std::string> HStoreSite::Get(const std::string& key) const {
  auto it = data_.find(key);
  if (it == data_.end()) return std::nullopt;
  return it->second;
}

double HStoreSite::ExecuteOps(const std::vector<KvOp>& ops,
                              std::vector<UndoEntry>* undo) {
  for (const auto& op : ops) {
    if (op.is_write) {
      if (undo != nullptr) {
        UndoEntry u;
        u.key = op.key;
        auto it = data_.find(op.key);
        u.existed = it != data_.end();
        if (u.existed) u.old_value = it->second;
        undo->push_back(std::move(u));
      }
      data_[op.key] = op.value;
    } else {
      auto it = data_.find(op.key);
      (void)it;
    }
  }
  return options_.op_cpu * double(ops.size());
}

void HStoreSite::Rollback(std::vector<UndoEntry>& undo) {
  // Reverse order, so a transaction writing one key twice restores the
  // oldest before-image last.
  for (auto it = undo.rbegin(); it != undo.rend(); ++it) {
    if (it->existed) {
      data_[it->key] = it->old_value;
    } else {
      data_.erase(it->key);
    }
  }
  undo.clear();
}

double HStoreSite::HandleClientTxn(const sim::Message& msg) {
  const auto& txn = msg.payload.As<HsTransaction>();
  double cpu = options_.txn_fixed_cpu;

  // Split ops by owning partition.
  std::map<sim::NodeId, std::vector<KvOp>> per_site;
  for (const auto& op : txn.ops) {
    per_site[sim::NodeId(cluster_->PartitionOf(op.key))].push_back(op);
  }

  if (per_site.size() == 1 && per_site.begin()->first == id()) {
    // Single-partition fast path: no coordination at all.
    cpu += ExecuteOps(txn.ops);
    Send(msg.from, MsgKind::kHsDone, TxnIdMsg{txn.id}, 40);
    return cpu;
  }

  // Multi-partition: two-phase commit. The coordinator's own writes are
  // only prepared (undo-logged) until every participant votes yes.
  Pending2pc p;
  p.client = msg.from;
  p.txn_id = txn.id;
  for (auto& [site, ops] : per_site) {
    if (site == id()) {
      cpu += ExecuteOps(ops, &p.local_undo);
    } else {
      p.waiting_prepare.insert(site);
      p.waiting_ack.insert(site);
      p.per_site_ops[site] = ops;
      Send(site, MsgKind::kHsPrepare, PrepareMsg{txn.id, ops}, OpsBytes(ops));
    }
  }
  if (p.waiting_prepare.empty()) {
    Send(msg.from, MsgKind::kHsDone, TxnIdMsg{txn.id}, 40);
    return cpu;
  }
  coordinating_.emplace(txn.id, std::move(p));
  return cpu;
}

double HStoreSite::HandleMessage(const sim::Message& msg) {
  if (msg.kind == MsgKind::kHsTxn) return HandleClientTxn(msg);

  if (msg.kind == MsgKind::kHsPrepare) {
    const auto& m = msg.payload.As<PrepareMsg>();
    if (vote_abort_) {
      Send(msg.from, MsgKind::kHsVoteAbort, TxnIdMsg{m.txn_id}, 40);
      return options_.twopc_msg_cpu;
    }
    std::vector<UndoEntry> undo;
    double cpu = options_.twopc_msg_cpu + ExecuteOps(m.ops, &undo);
    prepared_[m.txn_id] = std::move(undo);
    Send(msg.from, MsgKind::kHsPrepared, TxnIdMsg{m.txn_id}, 40);
    return cpu;
  }

  if (msg.kind == MsgKind::kHsPrepared) {
    const auto& m = msg.payload.As<TxnIdMsg>();
    auto it = coordinating_.find(m.txn_id);
    if (it == coordinating_.end()) return options_.twopc_msg_cpu;
    it->second.waiting_prepare.erase(msg.from);
    if (it->second.waiting_prepare.empty()) {
      for (sim::NodeId site : it->second.waiting_ack) {
        Send(site, MsgKind::kHsCommit, TxnIdMsg{m.txn_id}, 40);
      }
    }
    return options_.twopc_msg_cpu;
  }

  if (msg.kind == MsgKind::kHsVoteAbort) {
    // One participant said no: roll back everywhere and tell the client.
    const auto& m = msg.payload.As<TxnIdMsg>();
    auto it = coordinating_.find(m.txn_id);
    if (it == coordinating_.end()) return options_.twopc_msg_cpu;
    Pending2pc& p = it->second;
    for (const auto& [site, ops] : p.per_site_ops) {
      if (site != msg.from) {
        Send(site, MsgKind::kHsAbort, TxnIdMsg{m.txn_id}, 40);
      }
    }
    Rollback(p.local_undo);
    ++aborted_txns_;
    Send(p.client, MsgKind::kHsAborted, TxnIdMsg{m.txn_id}, 40);
    coordinating_.erase(it);
    return options_.twopc_msg_cpu;
  }

  if (msg.kind == MsgKind::kHsCommit) {
    const auto& m = msg.payload.As<TxnIdMsg>();
    prepared_.erase(m.txn_id);  // decision is commit: drop the undo log
    Send(msg.from, MsgKind::kHsAck, TxnIdMsg{m.txn_id}, 40);
    return options_.twopc_msg_cpu;
  }

  if (msg.kind == MsgKind::kHsAbort) {
    const auto& m = msg.payload.As<TxnIdMsg>();
    auto it = prepared_.find(m.txn_id);
    if (it != prepared_.end()) {
      Rollback(it->second);
      prepared_.erase(it);
    }
    return options_.twopc_msg_cpu;
  }

  if (msg.kind == MsgKind::kHsAck) {
    const auto& m = msg.payload.As<TxnIdMsg>();
    auto it = coordinating_.find(m.txn_id);
    if (it == coordinating_.end()) return options_.twopc_msg_cpu;
    it->second.waiting_ack.erase(msg.from);
    if (it->second.waiting_ack.empty()) {
      Send(it->second.client, MsgKind::kHsDone, TxnIdMsg{m.txn_id}, 40);
      coordinating_.erase(it);
    }
    return options_.twopc_msg_cpu;
  }

  return 0;
}

HStoreClient::HStoreClient(sim::NodeId id, HStoreCluster* cluster,
                           uint32_t client_index, TxnFactory factory,
                           core::StatsCollector* stats, double request_rate,
                           double load_end, uint64_t seed)
    : sim::Node(id, &cluster->network()),
      cluster_(cluster),
      client_index_(client_index),
      factory_(std::move(factory)),
      stats_(stats),
      request_rate_(request_rate),
      load_end_(load_end),
      rng_(seed) {}

void HStoreClient::Start() {
  sim()->After(rng_.NextDouble() / request_rate_, [this] { Tick(); });
}

void HStoreClient::Tick() {
  if (Now() >= load_end_) return;
  HsTransaction txn = factory_(rng_);
  txn.id = (uint64_t(client_index_) + 1) << 40 | next_seq_++;
  txn.submit_time = Now();
  outstanding_.emplace(txn.id, txn.submit_time);
  stats_->RecordSubmit(Now());
  size_t coord = cluster_->CoordinatorOf(txn);
  Send(sim::NodeId(coord), MsgKind::kHsTxn, std::move(txn), 200);
  sim()->After(1.0 / request_rate_, [this] { Tick(); });
}

double HStoreClient::HandleMessage(const sim::Message& msg) {
  if (msg.kind == MsgKind::kHsDone) {
    const auto& m = msg.payload.As<TxnIdMsg>();
    auto it = outstanding_.find(m.txn_id);
    if (it != outstanding_.end()) {
      stats_->RecordCommit(Now(), Now() - it->second);
      outstanding_.erase(it);
    }
  }
  if (msg.kind == MsgKind::kHsAborted) {
    const auto& m = msg.payload.As<TxnIdMsg>();
    if (outstanding_.erase(m.txn_id) > 0) stats_->RecordReject(Now());
  }
  return 0;
}

}  // namespace bb::baseline
