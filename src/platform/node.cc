#include "platform/node.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "obs/event.h"
#include "obs/profiler.h"

namespace bb::platform {

using sim::MsgKind;

PlatformNode::PlatformNode(sim::NodeId id, sim::Network* network,
                           PlatformOptions options, uint64_t seed,
                           SharedStores shared)
    : sim::Node(id, network), options_(std::move(options)) {
  auto stack =
      LayerStack::Build(options_, seed, "node" + std::to_string(id), shared);
  if (!stack.ok()) {
    // Platform::Validate() rejects bad specs before nodes are built, so
    // only environment failures (disk backend I/O) reach here.
    std::fprintf(stderr, "layer stack assembly failed: %s\n",
                 stack.status().ToString().c_str());
    std::abort();
  }
  stack_ = std::move(*stack);
  exec_block_hash_ = chain().head();
  if (options_.consensus_channel_capacity > 0) {
    SetInboxClassLimit(options_.consensus_channel_capacity);
  }
  if (auto* mt = sim()->memtracker()) {
    const auto nid = uint32_t(id);
    mem_pool_ = {mt, nid, obs::mem::kPoolSlots};
    mem_consensus_ = {mt, nid, obs::mem::kConsensus};
    mem_chain_ = {mt, nid, obs::mem::kChainBlocks};
    mem_vm_ = {mt, nid, obs::mem::kVm};
    mem_obs_ = {mt, nid, obs::mem::kObsSelf};
    stack_->data().store().set_mem_gauge({mt, nid, obs::mem::kStorageState});
    SyncMemGauges();
  }
}

PlatformNode::~PlatformNode() = default;

Status PlatformNode::DeployContract(const std::string& name,
                                    const vm::Program& program) {
  return stack_->execution().DeployProgram(name, program);
}

Status PlatformNode::DeployChaincode(const std::string& name,
                                     const std::string& registered_as) {
  return stack_->execution().DeployChaincode(name, registered_as);
}

Status PlatformNode::FinalizeGenesis(const chain::StateDb::WriteSet& genesis,
                                     chain::StateDb::CommitLog* log) {
  auto root = log->recorded ? state().Replay(genesis, *log)
                            : state().Commit(genesis, log);
  if (!root.ok()) return root.status();
  block_state_roots_[chain().head()] = *root;
  return Status::Ok();
}

Status PlatformNode::DirectCommit(const std::vector<chain::TxPtr>& txs) {
  chain::Block b;
  b.header.parent = chain().head();
  b.header.height = chain().head_height() + 1;
  b.header.timestamp = Now();
  b.txs = txs;
  b.SealTxRoot();
  double cpu = 0;
  if (!CommitBlock(chain::Seal(std::move(b)), &cpu)) {
    return Status::Internal("direct commit failed");
  }
  SyncMemGauges();
  return Status::Ok();
}

void PlatformNode::Start() {
  engine().Start(this);
  SyncMemGauges();
}

void PlatformNode::OnCrash() { engine().OnCrash(); }

void PlatformNode::OnRestart() { engine().OnRestart(); }

void PlatformNode::HostBroadcast(MsgKind kind, sim::Payload payload,
                                 uint64_t size_bytes) {
  // Consensus traffic flows only among this node's consensus group
  // (clients and other shards' servers live outside [peer_base_,
  // peer_base_ + num_peers_)). Every recipient shares the one payload.
  for (sim::NodeId to = peer_base_; to < peer_base_ + num_peers_; ++to) {
    if (to == id()) continue;
    Send(to, kind, payload, size_bytes);
  }
}

bool PlatformNode::HostSend(sim::NodeId to, MsgKind kind,
                            sim::Payload payload, uint64_t size_bytes) {
  return Send(to, kind, std::move(payload), size_bytes);
}

double PlatformNode::HandleMessage(const sim::Message& msg) {
  double cpu = DispatchMessage(msg);
  // Every layer mutation happens on some message (or a Start/DirectCommit
  // call, which sync themselves), so this epilogue is the deterministic
  // re-sync point for the O(1) byte counters.
  SyncMemGauges();
  return cpu;
}

double PlatformNode::DispatchMessage(const sim::Message& msg) {
  double cpu = 0;
  if (engine().HandleMessage(msg, &cpu)) return cpu;
  switch (msg.kind) {
    case MsgKind::kClientTx:
      return HandleClientTx(msg);
    case MsgKind::kGossipTx:
      return HandleGossipTx(msg);
    case MsgKind::kRpcGetBlocks:
    case MsgKind::kRpcGetBlock:
    case MsgKind::kRpcGetBalance:
    case MsgKind::kRpcQuery:
      return HandleRpc(msg);
    default:
      return 0;
  }
}

void PlatformNode::SyncMemGauges() {
  if (!mem_pool_) return;
  mem_pool_.Set(pool_.slot_bytes());
  mem_consensus_.Set(stack_->consensus().engine().BookkeepingBytes());
  mem_chain_.Set(chain().stored_bytes());
  mem_vm_.Set(stack_->execution().footprint_bytes());
  if (const auto* hook = sim()->hook()) {
    mem_obs_.Set(hook->HeldBytes(uint32_t(id())));
  }
}

double PlatformNode::HandleClientTx(const sim::Message& msg) {
  BB_PROF_SCOPE("driver.admit");
  const auto& m = msg.payload.As<ClientTx>();
  double cpu = options_.admission_cpu;
  if (msg.corrupted) return cpu;  // malformed submission dropped
  if (committed_ids_.count(m.tx->id) || pool_.Seen(m.tx->id)) return cpu;
  if (options_.admission_rate_limit > 0) {
    double rate = options_.admission_rate_limit;
    admission_tokens_ = std::min(
        rate, admission_tokens_ + (Now() - admission_refill_time_) * rate);
    admission_refill_time_ = Now();
    if (admission_tokens_ < 1.0) {
      Send(msg.from, MsgKind::kClientTxReject, ClientTxReject{m.tx->id}, 60);
      return cpu;
    }
    admission_tokens_ -= 1.0;
  }
  if (options_.tx_pool_capacity != 0 &&
      pool_.pending() >= options_.tx_pool_capacity) {
    Send(msg.from, MsgKind::kClientTxReject, ClientTxReject{m.tx->id}, 60);
    return cpu;
  }
  pool_.Add(m.tx);
  if (pool_.pending() > pool_peak_) pool_peak_ = pool_.pending();
  if (auto* hook = sim()->hook()) {
    hook->Emit({.kind = obs::EventKind::kTxAdmit, .node = uint32_t(id()),
                .t = Now(), .id = m.tx->id});
  }
  if (options_.gossip_txs) {
    HostBroadcast(MsgKind::kGossipTx, GossipTx{m.tx}, m.tx->SizeBytes());
  }
  engine().OnNewTransactions();
  return cpu;
}

double PlatformNode::HandleGossipTx(const sim::Message& msg) {
  BB_PROF_SCOPE("driver.gossip_admit");
  const chain::TxPtr& tx = msg.payload.As<GossipTx>().tx;
  double cpu = options_.gossip_ingest_cpu;
  if (msg.corrupted) return cpu;
  if (committed_ids_.count(tx->id)) return cpu;
  if (options_.tx_pool_capacity != 0 &&
      pool_.pending() >= options_.tx_pool_capacity) {
    return cpu;
  }
  if (pool_.Add(tx)) {
    if (pool_.pending() > pool_peak_) pool_peak_ = pool_.pending();
    if (auto* hook = sim()->hook()) {
      hook->Emit({.kind = obs::EventKind::kTxAdmit, .node = uint32_t(id()),
                  .t = Now(), .id = tx->id});
    }
    engine().OnNewTransactions();
  }
  return cpu;
}

uint64_t PlatformNode::ConfirmedHeight() const {
  uint64_t h = chain().head_height();
  return h > options_.confirmation_depth ? h - options_.confirmation_depth : 0;
}

double PlatformNode::HandleRpc(const sim::Message& msg) {
  BB_PROF_SCOPE("driver.rpc");
  double cpu = options_.rpc_request_cpu;
  if (msg.corrupted) return cpu;

  if (msg.kind == MsgKind::kRpcGetBlocks) {
    const auto& m = msg.payload.As<RpcGetBlocks>();
    RpcBlocks reply;
    reply.req_id = m.req_id;
    reply.confirmed_height = ConfirmedHeight();
    uint64_t bytes = 100;
    reply.blocks =
        chain().CanonicalRangePtr(m.from_height, reply.confirmed_height);
    for (const auto& b : reply.blocks) bytes += b->SizeBytes();
    Send(msg.from, MsgKind::kRpcBlocks, std::move(reply), bytes);
    return cpu;
  }

  if (msg.kind == MsgKind::kRpcGetBlock) {
    const auto& m = msg.payload.As<RpcGetBlock>();
    RpcBlock reply;
    reply.req_id = m.req_id;
    uint64_t bytes = 100;
    if (m.height <= ConfirmedHeight()) {
      reply.block = chain().CanonicalAtPtr(m.height);
      if (reply.block != nullptr) bytes += reply.block->SizeBytes();
    }
    Send(msg.from, MsgKind::kRpcBlock, std::move(reply), bytes);
    return cpu;
  }

  if (msg.kind == MsgKind::kRpcGetBalance) {
    const auto& m = msg.payload.As<RpcGetBalance>();
    RpcBalance reply{m.req_id, false, 0};
    const chain::Block* b = chain().CanonicalAt(m.height);
    if (b != nullptr && state().supports_versioned_reads()) {
      auto it = block_state_roots_.find(b->HashOf());
      if (it != block_state_roots_.end()) {
        std::string raw;
        Status s = state().GetAt(it->second, "__bal", m.account, &raw);
        if (s.ok()) {
          reply.ok = true;
          reply.balance = std::strtoll(raw.c_str(), nullptr, 10);
        } else if (s.IsNotFound()) {
          reply.ok = true;
          reply.balance = 0;
        }
      }
    }
    Send(msg.from, MsgKind::kRpcBalance, reply, 80);
    return cpu;
  }

  if (msg.kind == MsgKind::kRpcQuery) {
    const auto& m = msg.payload.As<RpcQuery>();
    double query_cpu = 0;
    auto result = QueryContract(m.contract, m.function, m.args, &query_cpu);
    cpu += query_cpu;
    RpcResult reply{m.req_id, result.ok(),
                    result.ok() ? *result : vm::Value()};
    // The caller observes the scan time: the reply leaves only after the
    // query's CPU work is done.
    sim::NodeId client = msg.from;
    sim()->After(cpu, [this, client, reply = std::move(reply)]() mutable {
      Send(client, MsgKind::kRpcResult, std::move(reply), 120);
    });
    return cpu;
  }

  return cpu;
}

Result<vm::Value> PlatformNode::QueryContract(const std::string& contract,
                                              const std::string& function,
                                              const vm::Args& args,
                                              double* cpu) {
  ExecutionLayer& exec = stack_->execution();
  if (!exec.HasContract(contract)) return Status::NotFound("no contract");
  chain::StateHost host(&state(), contract);
  vm::TxContext ctx;
  ctx.sender = "query";
  ctx.function = function;
  ctx.args = args;
  ExecOutcome out;
  Status s = exec.Invoke(contract, ctx, &host, &out);
  *cpu += options_.cost.tx_fixed_cpu + out.cpu;
  // Queries must not mutate state: drop any writes the call buffered.
  state().Abort();
  if (!s.ok()) return s;
  if (!out.receipt.status.ok()) return out.receipt.status;
  return out.receipt.return_value;
}

std::optional<chain::Block> PlatformNode::BuildBlock(const Hash256& parent,
                                                     uint64_t parent_height,
                                                     bool allow_empty,
                                                     double* build_cpu) {
  BB_PROF_SCOPE("consensus.build_block");
  size_t limit = options_.block_tx_limit;
  if (options_.seal_sign_cpu > 0) {
    // Parity model: the authority signs transactions between blocks, so
    // its sealing budget spans the time since the parent block (capped):
    // skipped slots (crashed authorities) do not cost throughput, which
    // is why Parity sails through the Fig 9 crash unharmed.
    double step = options_.poa.step_duration;
    double since_parent = step;
    const chain::Block* parent_block = chain().GetBlock(parent);
    if (parent_block != nullptr && parent_block->header.height > 0) {
      since_parent = Now() - parent_block->header.timestamp;
    }
    double budget = std::clamp(since_parent, step, 6.0 * step) *
                    options_.seal_budget_fraction;
    limit = std::min(limit,
                     size_t(std::max(1.0, budget / options_.seal_sign_cpu)));
  }
  std::vector<chain::TxPtr> batch =
      pool_.TakeBatch(limit, options_.block_byte_limit, options_.pool_lifo);
  std::erase_if(batch, [this](const chain::TxPtr& tx) {
    return committed_ids_.count(tx->id) != 0;  // raced in via gossip
  });

  if (options_.block_gas_limit > 0 &&
      stack_->execution().kind() == ExecEngineKind::kEvm) {
    // Gas-based packing: speculatively execute candidates against the
    // current state, stopping once the block's gas budget is spent.
    // Effects are discarded; the canonical execution happens at commit.
    uint64_t gas_used = 0;
    size_t taken = 0;
    uint64_t saved_exec = txs_executed_, saved_failed = txs_failed_;
    while (taken < batch.size()) {
      uint64_t gas = 0;
      *build_cpu += ExecuteTx(*batch[taken], &gas);
      // Speculative runs must not perturb the executed/failed counters.
      gas_used += gas;
      ++taken;
      if (gas_used >= options_.block_gas_limit) break;
    }
    state().Abort();
    txs_executed_ = saved_exec;
    txs_failed_ = saved_failed;
    if (taken < batch.size()) {
      pool_.Requeue(std::vector<chain::TxPtr>(batch.begin() + long(taken),
                                              batch.end()));
      batch.resize(taken);
    }
  }

  if (batch.empty() && !allow_empty) return std::nullopt;

  if (auto* hook = sim()->hook()) {
    // Stamp after the gas-packing trim so requeued txs don't count as
    // proposed; speculative execution above never stamps milestones.
    for (const auto& tx : batch) {
      hook->Emit({.kind = obs::EventKind::kTxPropose, .node = uint32_t(id()),
                  .t = Now(), .id = tx->id});
    }
  }

  *build_cpu += double(batch.size()) *
                (options_.cost.assemble_tx_cpu + options_.seal_sign_cpu);

  chain::Block b;
  b.header.parent = parent;
  b.header.height = parent_height + 1;
  b.header.proposer = uint32_t(id());
  b.header.timestamp = Now();
  b.txs = std::move(batch);
  b.SealTxRoot();
  ++blocks_produced_;
  if (auto* hook = sim()->hook()) {
    // 48-bit prefix: record aux values must survive the JSON double
    // round-trip losslessly. The header hash does not exist yet (the
    // engine still sets the nonce, then seals), so the tx root
    // identifies the block's content.
    hook->Emit({.kind = obs::EventKind::kSeal, .node = uint32_t(id()),
                .t = Now(), .id = b.header.height,
                .aux = b.header.tx_root.Prefix64() >> 16,
                .name = "block.seal"});
  }
  return b;
}

bool PlatformNode::CommitBlock(chain::BlockPtr block, double* cpu) {
  BB_PROF_SCOPE("consensus.commit_block");
  auto r = stack_->data().chain().AddBlock(std::move(block));
  if (r.duplicate) return true;
  if (!r.attached) return false;  // parked until the parent arrives
  if (r.head_changed) ExecuteCanonical(cpu);
  return true;
}

double PlatformNode::ExecuteTx(const chain::Transaction& tx,
                               uint64_t* gas_out) {
  BB_PROF_SCOPE("vm.execute_tx");
  if (gas_out != nullptr) *gas_out = 0;
  ExecutionLayer& exec = stack_->execution();
  if (!exec.HasContract(tx.contract)) {
    // Plain value transfer: move balance from sender to recipient.
    if (tx.value != 0) {
      chain::StateHost::Credit(&state(), tx.sender, -tx.value);
      chain::StateHost::Credit(&state(), tx.contract, tx.value);
    }
    ++txs_executed_;
    return options_.cost.tx_fixed_cpu;
  }
  chain::StateHost host(&state(), tx.contract);
  vm::TxContext ctx;
  ctx.sender = tx.sender;
  ctx.value = tx.value;
  ctx.function = tx.function;
  ctx.args = tx.args;
  ctx.block_height = executing_height_;

  ExecOutcome out;
  Status s = exec.Invoke(tx.contract, ctx, &host, &out);
  double cpu = options_.cost.tx_fixed_cpu + out.cpu;
  if (gas_out != nullptr) *gas_out = out.gas;
  if (s.ok() && out.receipt.status.ok()) {
    ++txs_executed_;
    if (tx.value != 0) {
      chain::StateHost::Credit(&state(), tx.contract, tx.value);
    }
  } else {
    ++txs_failed_;
  }
  return cpu;
}

void PlatformNode::ExecuteCanonical(double* cpu) {
  chain::ChainStore& chain = stack_->data().chain();
  // Rewind if the previously executed prefix left the canonical chain.
  uint64_t rewound = 0;
  while (exec_height_ > 0 && !chain.IsCanonical(exec_block_hash_)) {
    const chain::Block* rolled = chain.GetBlock(exec_block_hash_);
    assert(rolled != nullptr);
    for (const auto& tx : rolled->txs) committed_ids_.erase(tx->id);
    pool_.Requeue(rolled->txs);
    exec_block_hash_ = rolled->header.parent;
    --exec_height_;
    ++rewound;
  }
  auto* hook = sim()->hook();
  if (hook != nullptr && rewound > 0) {
    hook->Emit({.kind = obs::EventKind::kForkSwitch, .node = uint32_t(id()),
                .t = Now(), .id = chain.head_height(), .aux = rewound,
                .name = "chain.fork_switch"});
  }
  if (exec_height_ == 0) exec_block_hash_ = chain.CanonicalAt(0)->HashOf();

  // Reset versioned state to the fork point (no-op when just extending).
  if (state().supports_versioned_reads()) {
    auto root = block_state_roots_.find(exec_block_hash_);
    Hash256 target = root != block_state_roots_.end()
                         ? root->second
                         : stack_->data().empty_state_root();
    if (state().current_root() != target) state().ResetTo(target);
  }

  // Apply forward along the canonical chain. A block some other replica
  // already executed from this node's root is taken from the memo.
  bool evm = stack_->execution().kind() == ExecEngineKind::kEvm;
  const ExecMemo::Group group{peer_base_, num_peers_};
  const bool share = exec_memo_ != nullptr && group.size > 1;
  uint64_t head = chain.head_height();
  for (uint64_t h = exec_height_ + 1; h <= head; ++h) {
    const chain::Block* b = chain.CanonicalAt(h);
    assert(b != nullptr);
    executing_height_ = h;
    const Hash256 block_hash = b->HashOf();
    const Hash256 pre_root = state().current_root();
    const bool memo_ok = share && !state().has_pending();
    const ExecMemo::Entry* taken =
        memo_ok ? exec_memo_->Find(pre_root, block_hash) : nullptr;
    ExecMemo::Entry* record = nullptr;
    uint64_t block_gas = 0;
    if (taken != nullptr) {
      ++exec_memo_hits_;
      for (double tx_cpu : taken->tx_cpu) *cpu += tx_cpu;
      txs_executed_ += taken->executed;
      txs_failed_ += taken->failed;
      block_gas = taken->gas;
      state().AddNodeReads(taken->node_reads);
    } else if (memo_ok) {
      ++exec_memo_misses_;
      record = exec_memo_->Record(pre_root, block_hash, h, group);
      block_gas = ExecuteBlock(*b, cpu, record);
      record->writes = state().TakePending();
    } else {
      block_gas = ExecuteBlock(*b, cpu, nullptr);
    }
    for (const auto& tx : b->txs) {
      committed_ids_.insert(tx->id);
      if (hook != nullptr) {
        hook->Emit({.kind = obs::EventKind::kTxCommit, .node = uint32_t(id()),
                    .t = Now(), .id = tx->id});
      }
      if (xs_notify_.has_value() && tx->contract == kXsContract) {
        Send(*xs_notify_, MsgKind::kXsSealed, XsSealed{tx->id}, 60);
      }
    }
    // Non-empty blocks only: PoA/PoW seal empty blocks continuously and
    // a flood of zeros would drown the distribution.
    if (evm && !b->txs.empty()) gas_per_block_.Add(double(block_gas));
    if (hook != nullptr) {
      hook->Emit({.kind = obs::EventKind::kCommit, .node = uint32_t(id()),
                  .t = Now(), .id = h, .aux = block_hash.Prefix64() >> 16,
                  .name = "block.commit"});
    }
    auto root = taken != nullptr ? state().Replay(taken->writes, taken->commit)
                : record != nullptr
                    ? state().Commit(record->writes, &record->commit)
                    : state().Commit();
    if (taken != nullptr) exec_memo_->Taken(pre_root, block_hash);
    if (root.ok()) {
      block_state_roots_[block_hash] = *root;
    } else {
      // Out-of-memory state (Parity at scale): the writes are lost but
      // the chain advances; record the stall.
      state().Abort();
      ++state_commit_failures_;
    }
    pool_.RemoveCommitted(b->txs);
    exec_height_ = h;
    exec_block_hash_ = block_hash;
  }
  if (share) exec_memo_->SetExecHeight(id(), exec_height_, group);
}

uint64_t PlatformNode::ExecuteBlock(const chain::Block& block, double* cpu,
                                    ExecMemo::Entry* record) {
  const uint64_t reads = state().node_reads();
  const uint64_t executed = txs_executed_, failed = txs_failed_;
  uint64_t block_gas = 0;
  for (const auto& tx : block.txs) {
    uint64_t gas = 0;
    double tx_cpu = ExecuteTx(*tx, &gas);
    *cpu += tx_cpu;
    block_gas += gas;
    if (record != nullptr) record->tx_cpu.push_back(tx_cpu);
  }
  if (record != nullptr) {
    record->executed = txs_executed_ - executed;
    record->failed = txs_failed_ - failed;
    record->gas = block_gas;
    record->node_reads = state().node_reads() - reads;
  }
  return block_gas;
}

void PlatformNode::ExportMetrics(obs::MetricsRegistry* reg) const {
  obs::Labels labels{{"node", std::to_string(id())}};
  reg->SetGauge("pool.depth", labels, double(pool_.pending()));
  reg->SetGauge("pool.peak", labels, double(pool_peak_));
  reg->AddCounter("txs.executed", labels, txs_executed_);
  reg->AddCounter("txs.failed", labels, txs_failed_);
  reg->AddCounter("blocks.produced", labels, blocks_produced_);

  const chain::ChainStore& ch = chain();
  reg->AddCounter("chain.main_blocks", labels, ch.main_chain_blocks());
  reg->AddCounter("chain.fork_blocks", labels, ch.orphaned_blocks());
  reg->AddCounter("chain.reorgs", labels, ch.reorgs());
  reg->AddCounter("chain.invalid_blocks", labels, ch.invalid_blocks());

  reg->SetGauge("cpu.busy_seconds", labels, meter().total_cpu());
  reg->AddCounter("net.bytes_sent", labels, meter().total_net_bytes());
  reg->AddCounter("net.messages_sent", labels, meter().total_msgs_sent());
  reg->AddCounter("net.class_dropped", labels, class_dropped());
  for (const auto& [type, n] : meter().msgs_sent_by_type()) {
    obs::Labels typed = labels;
    typed.emplace_back("type", type);
    reg->AddCounter("net.messages", typed, n);
  }

  if (gas_per_block_.count() > 0) {
    reg->GetHistogram("exec.gas_per_block", labels)->Merge(gas_per_block_);
  }
  stack_->consensus().engine().ExportMetrics(reg, labels);
  stack_->data().state().ExportMetrics(reg, labels);
}

void PlatformNode::RequeueTxs(const std::vector<chain::TxPtr>& txs) {
  std::vector<chain::TxPtr> keep;
  keep.reserve(txs.size());
  for (const auto& tx : txs) {
    if (!committed_ids_.count(tx->id)) keep.push_back(tx);
  }
  pool_.Requeue(keep);
}

}  // namespace bb::platform
