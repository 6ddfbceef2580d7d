// The paper's layer taxonomy (§3) as explicit, independently pluggable
// interfaces:
//
//   * ConsensusLayer — wraps a consensus::Engine (PoW / PoA / PBFT /
//     Tendermint / Raft); orders blocks.
//   * DataLayer      — owns the chain store plus the world state: an
//     authenticated structure (Patricia trie / bucket tree) over a
//     storage backend (memkv / diskkv).
//   * ExecutionLayer — runs deployed contracts: the gas-metered EVM
//     interpreter, native chaincode, or the no-op baseline.
//
// A LayerStack is the assembly of one layer per slot, built from a
// PlatformOptions::StackSpec (or layer-by-layer via LayerStackBuilder).
// PlatformNode is glue forwarding sim::Node / ConsensusHost callbacks
// into its stack, which is what makes the paper's layer-swap ablations
// (bucket-tree vs trie, PBFT over the Ethereum data model, ...) plain
// configuration instead of hand-rolled one-off benchmarks.

#ifndef BLOCKBENCH_PLATFORM_LAYERS_H_
#define BLOCKBENCH_PLATFORM_LAYERS_H_

#include <map>
#include <memory>
#include <string>

#include "chain/chain_store.h"
#include "chain/state_db.h"
#include "consensus/engine.h"
#include "platform/options.h"
#include "storage/group_store.h"
#include "storage/kvstore.h"
#include "storage/node_pool.h"
#include "vm/interpreter.h"
#include "vm/native.h"

namespace bb::platform {

// --- Consensus layer ---------------------------------------------------------

/// Owns the consensus engine for one node. The engine talks back to the
/// node through consensus::ConsensusHost; this layer only decides *which*
/// protocol fills the slot.
class ConsensusLayer {
 public:
  ConsensusLayer(ConsensusKind kind, std::unique_ptr<consensus::Engine> engine)
      : kind_(kind), engine_(std::move(engine)) {}

  ConsensusKind kind() const { return kind_; }
  const char* name() const { return engine_->name(); }
  consensus::Engine& engine() { return *engine_; }
  const consensus::Engine& engine() const { return *engine_; }

  /// Builds the engine selected by options.stack.consensus, configured
  /// from the matching per-protocol config. `seed` feeds the randomized
  /// engines (PoW mining race, Raft election jitter).
  static std::unique_ptr<ConsensusLayer> Make(const PlatformOptions& options,
                                              uint64_t seed);

 private:
  ConsensusKind kind_;
  std::unique_ptr<consensus::Engine> engine_;
};

// --- Data layer --------------------------------------------------------------

/// The stores a replica shares with the other replicas of its platform.
/// A null one gives it a private store of that kind.
struct SharedStores {
  /// Trie nodes, one pool per platform (storage/node_pool.h).
  storage::NodePool* pool = nullptr;
  /// Bucket-tree entries, one store per consensus group
  /// (storage/group_store.h).
  storage::GroupStore* bucket = nullptr;
};

/// Owns one node's chain store and world state: the storage backend
/// (memkv / diskkv) and the authenticated structure over it (Patricia
/// trie with versioned reads, or the in-place bucket tree).
class DataLayer {
 public:
  chain::ChainStore& chain() { return chain_; }
  const chain::ChainStore& chain() const { return chain_; }
  chain::StateDb& state() { return *state_; }
  const chain::StateDb& state() const { return *state_; }
  storage::KvStore& store() { return *store_; }

  StateTreeKind tree_kind() const { return tree_kind_; }
  StorageBackendKind backend_kind() const { return backend_kind_; }
  /// The state root of an empty world state — the reorg reset target when
  /// no snapshot is recorded for the fork point.
  Hash256 empty_state_root() const;

  /// Builds the backend + tree selected by options.stack. Fails when the
  /// disk backend cannot open its log under options.data_dir. `node_tag`
  /// keeps per-node disk files apart ("node3"). A trie over memkv keeps
  /// its nodes in `shared.pool`, and a bucket tree over memkv is a view
  /// of `shared.bucket`; either is private when null. A diskkv stack
  /// has a private store.
  static Result<std::unique_ptr<DataLayer>> Make(
      const PlatformOptions& options, const std::string& node_tag,
      SharedStores shared = {});

 private:
  DataLayer() : chain_(chain::Block{}) {}  // all-zero genesis on every node

  StateTreeKind tree_kind_ = StateTreeKind::kPatriciaTrie;
  StorageBackendKind backend_kind_ = StorageBackendKind::kMemKv;
  chain::ChainStore chain_;
  std::unique_ptr<storage::NodePool> own_pool_;
  std::unique_ptr<storage::GroupStore> own_bucket_;
  std::unique_ptr<storage::KvStore> store_;
  std::unique_ptr<chain::StateDb> state_;
};

// --- Execution layer ---------------------------------------------------------

/// What one contract invocation cost and returned.
struct ExecOutcome {
  vm::ExecReceipt receipt;
  /// Engine-variable CPU seconds (gas or storage ops); the node adds the
  /// per-transaction fixed cost on top.
  double cpu = 0;
  /// Gas consumed (EVM only; 0 elsewhere) — drives gas-based packing.
  uint64_t gas = 0;
};

/// Runs deployed contracts. Concrete layers host exactly one engine
/// family; deploying the other family's artifact is an error (no silent
/// fallbacks — a chaincode deploy on an EVM layer must fail loudly).
class ExecutionLayer {
 public:
  virtual ~ExecutionLayer() = default;

  virtual ExecEngineKind kind() const = 0;
  virtual const char* name() const = 0;

  /// Deploys an assembled EVM program under `name`.
  virtual Status DeployProgram(const std::string& name,
                               const vm::Program& program);
  /// Instantiates chaincode registered as `registered_as` under `name`.
  virtual Status DeployChaincode(const std::string& name,
                                 const std::string& registered_as);

  virtual bool HasContract(const std::string& name) const = 0;
  /// Executes contract `name` with `ctx` against `host`. NotFound when
  /// the contract is not deployed; execution failures are reported in
  /// out->receipt.status, not the return value.
  virtual Status Invoke(const std::string& name, const vm::TxContext& ctx,
                        vm::HostInterface* host, ExecOutcome* out) = 0;

  /// Logical bytes held by deployed artifacts (assembled EVM bytecode,
  /// instantiated chaincode) — the mem-observability vm subsystem.
  virtual uint64_t footprint_bytes() const { return 0; }

  /// Builds the engine selected by options.stack.exec_engine.
  static std::unique_ptr<ExecutionLayer> Make(const PlatformOptions& options);
};

/// Gas-metered bytecode interpreter (Ethereum / Parity / ErisDB models).
class EvmExecution : public ExecutionLayer {
 public:
  EvmExecution(const vm::VmOptions& vm, const ExecCostModel& cost)
      : interpreter_(vm), cost_(cost) {}

  ExecEngineKind kind() const override { return ExecEngineKind::kEvm; }
  const char* name() const override { return "evm"; }
  Status DeployProgram(const std::string& name,
                       const vm::Program& program) override;
  bool HasContract(const std::string& name) const override {
    return programs_.count(name) != 0;
  }
  Status Invoke(const std::string& name, const vm::TxContext& ctx,
                vm::HostInterface* host, ExecOutcome* out) override;

  uint64_t footprint_bytes() const override {
    uint64_t b = 0;
    for (const auto& [name, program] : programs_) {
      b += obs::mem::kMapEntryBytes + name.size() + program.CodeSize();
    }
    return b;
  }

 private:
  vm::Interpreter interpreter_;
  ExecCostModel cost_;
  std::map<std::string, vm::Program> programs_;
};

/// Native chaincode against PutState/GetState (Hyperledger / Corda models).
class NativeExecution : public ExecutionLayer {
 public:
  explicit NativeExecution(const ExecCostModel& cost) : cost_(cost) {}

  ExecEngineKind kind() const override { return ExecEngineKind::kNative; }
  const char* name() const override { return "native"; }
  Status DeployChaincode(const std::string& name,
                         const std::string& registered_as) override;
  bool HasContract(const std::string& name) const override {
    return chaincodes_.count(name) != 0;
  }
  Status Invoke(const std::string& name, const vm::TxContext& ctx,
                vm::HostInterface* host, ExecOutcome* out) override;

  /// Chaincode is native C++ — no bytecode to weigh, so each instance
  /// is costed as one registry entry.
  uint64_t footprint_bytes() const override {
    return chaincodes_.size() *
           (obs::mem::kMapEntryBytes + obs::mem::kSetEntryBytes);
  }

 private:
  vm::NativeRuntime runtime_;
  ExecCostModel cost_;
  std::map<std::string, std::unique_ptr<vm::Chaincode>> chaincodes_;
};

/// Accepts any deploy and executes nothing at zero cost: isolates the
/// consensus + data layers, like the paper's DoNothing contract but for
/// arbitrary workloads.
class NoopExecution : public ExecutionLayer {
 public:
  ExecEngineKind kind() const override { return ExecEngineKind::kNoop; }
  const char* name() const override { return "noop"; }
  Status DeployProgram(const std::string& name, const vm::Program&) override;
  Status DeployChaincode(const std::string& name, const std::string&) override;
  bool HasContract(const std::string& name) const override {
    return deployed_.count(name) != 0;
  }
  Status Invoke(const std::string& name, const vm::TxContext& ctx,
                vm::HostInterface* host, ExecOutcome* out) override;

 private:
  Status Record(const std::string& name);
  std::map<std::string, bool> deployed_;
};

// --- The assembled stack -----------------------------------------------------

/// One node's consensus + data + execution layers.
class LayerStack {
 public:
  LayerStack(std::unique_ptr<ConsensusLayer> consensus,
             std::unique_ptr<DataLayer> data,
             std::unique_ptr<ExecutionLayer> execution)
      : consensus_(std::move(consensus)),
        data_(std::move(data)),
        execution_(std::move(execution)) {}

  ConsensusLayer& consensus() { return *consensus_; }
  const ConsensusLayer& consensus() const { return *consensus_; }
  DataLayer& data() { return *data_; }
  const DataLayer& data() const { return *data_; }
  ExecutionLayer& execution() { return *execution_; }

  /// Builds all three layers from options.stack; `shared` as for
  /// DataLayer::Make.
  static Result<std::unique_ptr<LayerStack>> Build(
      const PlatformOptions& options, uint64_t seed,
      const std::string& node_tag = "", SharedStores shared = {});

 private:
  std::unique_ptr<ConsensusLayer> consensus_;
  std::unique_ptr<DataLayer> data_;
  std::unique_ptr<ExecutionLayer> execution_;
};

/// Assembles a LayerStack slot by slot; unset slots are filled from the
/// options' StackSpec at Build(). Lets tests and ablations swap a single
/// layer while inheriting the rest of a calibrated platform.
class LayerStackBuilder {
 public:
  explicit LayerStackBuilder(PlatformOptions options)
      : options_(std::move(options)) {}

  LayerStackBuilder& WithConsensus(std::unique_ptr<ConsensusLayer> layer) {
    consensus_ = std::move(layer);
    return *this;
  }
  LayerStackBuilder& WithData(std::unique_ptr<DataLayer> layer) {
    data_ = std::move(layer);
    return *this;
  }
  LayerStackBuilder& WithExecution(std::unique_ptr<ExecutionLayer> layer) {
    execution_ = std::move(layer);
    return *this;
  }

  Result<std::unique_ptr<LayerStack>> Build(uint64_t seed,
                                            const std::string& node_tag = "",
                                            SharedStores shared = {});

 private:
  PlatformOptions options_;
  std::unique_ptr<ConsensusLayer> consensus_;
  std::unique_ptr<DataLayer> data_;
  std::unique_ptr<ExecutionLayer> execution_;
};

}  // namespace bb::platform

#endif  // BLOCKBENCH_PLATFORM_LAYERS_H_
