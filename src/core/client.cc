#include "core/client.h"

#include "obs/profiler.h"
#include "obs/event.h"

namespace bb::core {

using sim::MsgKind;

namespace {
uint64_t MakeTxId(uint32_t client_index, uint64_t seq) {
  return (uint64_t(client_index) + 1) << 40 | seq;
}
}  // namespace

DriverClient::DriverClient(sim::NodeId id, sim::Network* network,
                           uint32_t client_index, sim::NodeId server,
                           WorkloadConnector* workload, StatsCollector* stats,
                           ClientConfig config, uint64_t seed,
                           platform::Platform* platform)
    : sim::Node(id, network),
      client_index_(client_index),
      server_(server),
      platform_(platform),
      workload_(workload),
      stats_(stats),
      config_(config),
      rng_(seed) {}

void DriverClient::Start() {
  if (config_.request_rate > 0) {
    // Desynchronize clients slightly so submissions do not arrive in
    // lockstep.
    sim()->After(rng_.NextDouble() / config_.request_rate,
                 [this] { GenerateTick(); });
  } else if (config_.max_outstanding > 0) {
    // Pure closed loop: fill the window.
    for (size_t i = 0; i < config_.max_outstanding; ++i) GenerateOne();
  }
  PollTick();
  RetryTick();
}

void DriverClient::GenerateTick() {
  if (Now() >= config_.load_end) return;
  GenerateOne();
  sim()->After(1.0 / config_.request_rate, [this] { GenerateTick(); });
}

void DriverClient::GenerateOne() {
  chain::Transaction tx = workload_->NextTransaction(client_index_, rng_);
  tx.id = MakeTxId(client_index_, next_seq_++);
  tx.sender = "client" + std::to_string(client_index_);
  tx.Seal();
  TrySubmit(std::move(tx));
}

void DriverClient::TrySubmit(chain::Transaction tx) {
  BB_PROF_SCOPE("driver.submit");
  if (config_.max_outstanding != 0 &&
      outstanding_.size() >= config_.max_outstanding) {
    backlog_.push_back(std::move(tx));
    return;
  }
  tx.submit_time = Now();
  size_t wire_bytes = tx.SizeBytes();
  const uint64_t tx_id = tx.id;
  // Stamped, so frozen: the servers' pools and blocks share this object.
  const chain::TxPtr& shared =
      outstanding_.emplace(tx_id, chain::Share(std::move(tx))).first->second;
  stats_->RecordSubmit(Now());
  if (auto* hook = sim()->hook()) {
    // A resubmission after rejection restarts the lifecycle record, so
    // traced spans telescope to the latency measured from this submit.
    hook->Emit({.kind = obs::EventKind::kTxSubmit, .node = uint32_t(id()),
                .t = Now(), .id = shared->id});
  }

  // Key-partition routing (sharded platforms only): a transaction whose
  // keys all hash to one shard goes straight to that shard; one that
  // straddles shards goes to the 2PC coordinator.
  if (platform_ != nullptr && platform_->num_shards() > 1) {
    std::vector<uint32_t> shards;
    for (const std::string& key : workload_->TouchedKeys(*shared)) {
      uint32_t s = platform_->ShardOfKey(key);
      bool seen = false;
      for (uint32_t have : shards) seen = seen || have == s;
      if (!seen) shards.push_back(s);
    }
    if (shards.size() > 1) {
      cross_ids_.insert(shared->id);
      stats_->RecordXsSubmit();
      Send(platform_->coordinator_id(), MsgKind::kXsClientTx,
           platform::XsClientTx{shared, std::move(shards)}, wire_bytes);
      return;
    }
    if (shards.size() == 1) {
      Send(platform_->ServerInShard(shards[0], client_index_),
           MsgKind::kClientTx, platform::ClientTx{shared}, wire_bytes);
      return;
    }
  }
  Send(server_, MsgKind::kClientTx, platform::ClientTx{shared}, wire_bytes);
}

void DriverClient::SubmitTransaction(const chain::Transaction& tx) {
  TrySubmit(tx);
}

void DriverClient::RequestLatestBlocks(uint64_t from_height,
                                       BlocksCallback cb) {
  uint64_t req = next_req_id_++;
  block_callbacks_[req] = std::move(cb);
  Send(server_, MsgKind::kRpcGetBlocks,
       platform::RpcGetBlocks{req, from_height}, 60);
}

void DriverClient::PollTick() {
  BB_PROF_SCOPE("driver.poll");
  stats_->ObserveQueue(Now(), client_index_, outstanding_.size(),
                       backlog_.size());
  RequestLatestBlocks(last_height_, [this](const LatestBlocks& lb) {
    platform::RpcBlocks m;
    m.confirmed_height = lb.confirmed_height;
    m.blocks = lb.blocks;
    OnBlocks(m);
  });
  sim()->After(config_.poll_interval, [this] { PollTick(); });
}

void DriverClient::RetryTick() {
  while (!backlog_.empty() &&
         (config_.max_outstanding == 0 ||
          outstanding_.size() < config_.max_outstanding)) {
    chain::Transaction tx = std::move(backlog_.front());
    backlog_.pop_front();
    if (committed_.count(tx.id)) continue;
    tx.submit_time = 0;  // reset; TrySubmit stamps it
    TrySubmit(std::move(tx));
    // Submit one per retry tick when recovering from rejections, to
    // avoid hammering a full server pool.
    break;
  }
  sim()->After(config_.retry_interval, [this] { RetryTick(); });
}

void DriverClient::OnBlocks(const platform::RpcBlocks& m) {
  for (const auto& block : m.blocks) {
    for (const auto& tx : block->txs) {
      auto it = outstanding_.find(tx->id);
      if (it == outstanding_.end()) continue;
      if (!committed_.insert(tx->id).second) continue;
      const double submit_time = it->second->submit_time;
      stats_->RecordCommit(Now(), Now() - submit_time);
      if (auto xs = cross_ids_.find(tx->id); xs != cross_ids_.end()) {
        stats_->RecordXsCommit(Now() - submit_time);
        cross_ids_.erase(xs);
      }
      if (auto* hook = sim()->hook()) {
        hook->Emit({.kind = obs::EventKind::kTxConfirm, .node = uint32_t(id()),
                    .t = Now(), .id = tx->id});
      }
      outstanding_.erase(it);
    }
  }
  if (m.confirmed_height > last_height_) last_height_ = m.confirmed_height;

  // Closed-loop refill.
  if (config_.request_rate == 0 && config_.max_outstanding > 0 &&
      Now() < config_.load_end) {
    while (outstanding_.size() + backlog_.size() < config_.max_outstanding) {
      GenerateOne();
    }
  }
}

double DriverClient::HandleMessage(const sim::Message& msg) {
  if (msg.kind == MsgKind::kRpcBlocks) {
    const auto& m = msg.payload.As<platform::RpcBlocks>();
    auto cb = block_callbacks_.find(m.req_id);
    if (cb != block_callbacks_.end()) {
      LatestBlocks lb{m.confirmed_height, m.blocks};
      auto fn = std::move(cb->second);
      block_callbacks_.erase(cb);
      fn(lb);
    }
    return 0;
  }
  if (msg.kind == MsgKind::kClientTxReject) {
    const auto& m = msg.payload.As<platform::ClientTxReject>();
    auto it = outstanding_.find(m.tx_id);
    if (it != outstanding_.end()) {
      stats_->RecordReject(Now());
      // A cross-shard id rejected here is a 2PC abort (the coordinator
      // rejects on prepare timeout); the retry path resubmits it as a
      // fresh cross-shard attempt.
      if (cross_ids_.erase(m.tx_id) > 0) stats_->RecordXsAbort();
      backlog_.push_back(*it->second);
      outstanding_.erase(it);
    }
    return 0;
  }
  return 0;
}

}  // namespace bb::core
