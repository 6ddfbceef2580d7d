#include "platform/layers.h"

#include "storage/diskkv.h"
#include "storage/memkv.h"

namespace bb::platform {

// --- ConsensusLayer ----------------------------------------------------------

std::unique_ptr<ConsensusLayer> ConsensusLayer::Make(
    const PlatformOptions& options, uint64_t seed) {
  std::unique_ptr<consensus::Engine> engine;
  switch (options.stack.consensus) {
    case ConsensusKind::kPow:
      engine = std::make_unique<consensus::ProofOfWork>(options.pow, seed);
      break;
    case ConsensusKind::kPoa:
      engine = std::make_unique<consensus::ProofOfAuthority>(options.poa);
      break;
    case ConsensusKind::kPbft:
      engine = std::make_unique<consensus::Pbft>(options.pbft);
      break;
    case ConsensusKind::kTendermint:
      engine = std::make_unique<consensus::Tendermint>(options.tendermint);
      break;
    case ConsensusKind::kRaft:
      engine = std::make_unique<consensus::Raft>(options.raft, seed);
      break;
  }
  return std::make_unique<ConsensusLayer>(options.stack.consensus,
                                          std::move(engine));
}

// --- DataLayer ---------------------------------------------------------------

Hash256 DataLayer::empty_state_root() const {
  if (tree_kind_ == StateTreeKind::kPatriciaTrie) {
    return storage::MerklePatriciaTrie::EmptyRoot();
  }
  return Hash256::Zero();
}

Result<std::unique_ptr<DataLayer>> DataLayer::Make(
    const PlatformOptions& options, const std::string& node_tag,
    storage::NodePool* pool) {
  auto layer = std::unique_ptr<DataLayer>(new DataLayer());
  layer->tree_kind_ = options.stack.state_tree;
  layer->backend_kind_ = options.stack.storage;

  if (options.stack.state_tree == StateTreeKind::kPatriciaTrie &&
      options.stack.storage == StorageBackendKind::kMemKv) {
    if (pool == nullptr) {
      layer->own_pool_ = std::make_unique<storage::NodePool>();
      pool = layer->own_pool_.get();
    }
    auto view =
        std::make_unique<storage::PoolKv>(pool, options.state_mem_capacity);
    layer->state_ = std::make_unique<chain::TrieStateDb>(view.get());
    layer->store_ = std::move(view);
    return layer;
  }

  switch (options.stack.storage) {
    case StorageBackendKind::kMemKv:
      layer->store_ =
          std::make_unique<storage::MemKv>(options.state_mem_capacity);
      break;
    case StorageBackendKind::kDiskKv: {
      if (options.data_dir.empty()) {
        return Status::InvalidArgument(
            "diskkv storage backend requires a data_dir");
      }
      std::string path = options.data_dir + "/state";
      if (!node_tag.empty()) path += "_" + node_tag;
      path += ".kv";
      auto disk = storage::DiskKv::Open(path);
      if (!disk.ok()) return disk.status();
      layer->store_ = std::move(*disk);
      break;
    }
  }

  switch (options.stack.state_tree) {
    case StateTreeKind::kPatriciaTrie:
      layer->state_ = std::make_unique<chain::TrieStateDb>(layer->store_.get());
      break;
    case StateTreeKind::kBucketTree:
      layer->state_ = std::make_unique<chain::BucketStateDb>(layer->store_.get());
      break;
  }
  return layer;
}

// --- ExecutionLayer ----------------------------------------------------------

Status ExecutionLayer::DeployProgram(const std::string& name,
                                     const vm::Program&) {
  return Status::InvalidArgument("execution layer '" + std::string(this->name()) +
                                 "' cannot host EVM program: " + name);
}

Status ExecutionLayer::DeployChaincode(const std::string& name,
                                       const std::string&) {
  return Status::InvalidArgument("execution layer '" + std::string(this->name()) +
                                 "' cannot host native chaincode: " + name);
}

std::unique_ptr<ExecutionLayer> ExecutionLayer::Make(
    const PlatformOptions& options) {
  switch (options.stack.exec_engine) {
    case ExecEngineKind::kEvm:
      return std::make_unique<EvmExecution>(options.vm, options.cost);
    case ExecEngineKind::kNative:
      return std::make_unique<NativeExecution>(options.cost);
    case ExecEngineKind::kNoop:
      return std::make_unique<NoopExecution>();
  }
  return nullptr;
}

Status EvmExecution::DeployProgram(const std::string& name,
                                   const vm::Program& program) {
  if (programs_.count(name)) {
    return Status::InvalidArgument("contract exists: " + name);
  }
  programs_.emplace(name, program);
  return Status::Ok();
}

Status EvmExecution::Invoke(const std::string& name, const vm::TxContext& ctx,
                            vm::HostInterface* host, ExecOutcome* out) {
  auto it = programs_.find(name);
  if (it == programs_.end()) return Status::NotFound("no contract: " + name);
  out->receipt = interpreter_.Execute(it->second, ctx, host);
  out->gas = out->receipt.gas_used;
  out->cpu = double(out->receipt.gas_used) * cost_.seconds_per_gas;
  return Status::Ok();
}

Status NativeExecution::DeployChaincode(const std::string& name,
                                        const std::string& registered_as) {
  if (chaincodes_.count(name)) {
    return Status::InvalidArgument("contract exists: " + name);
  }
  auto cc = vm::ChaincodeRegistry::Instance().Create(registered_as);
  if (!cc.ok()) return cc.status();
  chaincodes_.emplace(name, std::move(*cc));
  return Status::Ok();
}

Status NativeExecution::Invoke(const std::string& name,
                               const vm::TxContext& ctx,
                               vm::HostInterface* host, ExecOutcome* out) {
  auto it = chaincodes_.find(name);
  if (it == chaincodes_.end()) return Status::NotFound("no contract: " + name);
  out->receipt = runtime_.Execute(it->second.get(), ctx, host);
  out->cpu = double(out->receipt.storage_reads + out->receipt.storage_writes) *
             cost_.native_op_cpu;
  return Status::Ok();
}

Status NoopExecution::Record(const std::string& name) {
  if (deployed_.count(name)) {
    return Status::InvalidArgument("contract exists: " + name);
  }
  deployed_.emplace(name, true);
  return Status::Ok();
}

Status NoopExecution::DeployProgram(const std::string& name,
                                    const vm::Program&) {
  return Record(name);
}

Status NoopExecution::DeployChaincode(const std::string& name,
                                      const std::string&) {
  return Record(name);
}

Status NoopExecution::Invoke(const std::string& name, const vm::TxContext&,
                             vm::HostInterface*, ExecOutcome* out) {
  if (!deployed_.count(name)) return Status::NotFound("no contract: " + name);
  *out = ExecOutcome{};  // Ok receipt, zero gas, zero cost
  return Status::Ok();
}

// --- LayerStack --------------------------------------------------------------

Result<std::unique_ptr<LayerStack>> LayerStack::Build(
    const PlatformOptions& options, uint64_t seed,
    const std::string& node_tag, storage::NodePool* pool) {
  return LayerStackBuilder(options).Build(seed, node_tag, pool);
}

Result<std::unique_ptr<LayerStack>> LayerStackBuilder::Build(
    uint64_t seed, const std::string& node_tag, storage::NodePool* pool) {
  if (consensus_ == nullptr) consensus_ = ConsensusLayer::Make(options_, seed);
  if (data_ == nullptr) {
    auto data = DataLayer::Make(options_, node_tag, pool);
    if (!data.ok()) return data.status();
    data_ = std::move(*data);
  }
  if (execution_ == nullptr) execution_ = ExecutionLayer::Make(options_);
  if (execution_ == nullptr) {
    return Status::InvalidArgument("unknown execution engine kind");
  }
  return std::make_unique<LayerStack>(std::move(consensus_), std::move(data_),
                                      std::move(execution_));
}

}  // namespace bb::platform
