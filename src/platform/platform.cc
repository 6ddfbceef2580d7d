#include "platform/platform.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "vm/assembler.h"

namespace bb::platform {

Platform::Platform(sim::Simulation* sim, PlatformOptions options,
                   size_t num_servers, uint64_t seed)
    : sim_(sim), options_(std::move(options)), exec_memo_(num_servers) {
  // Fail loudly on inconsistent layer combinations instead of silently
  // falling back — every stack a Platform runs has passed Validate().
  Status valid = options_.Validate();
  if (!valid.ok()) {
    std::fprintf(stderr, "invalid platform options: %s\n",
                 valid.ToString().c_str());
    std::abort();
  }
  network_ = std::make_unique<sim::Network>(sim_, options_.net);
  Rng seeder(seed);
  for (size_t i = 0; i < num_servers; ++i) {
    nodes_.push_back(std::make_unique<PlatformNode>(
        sim::NodeId(i), network_.get(), options_, seeder.Next(), &node_pool_));
  }
  for (auto& n : nodes_) {
    n->set_num_peers(num_servers);
    n->set_exec_memo(&exec_memo_);
  }
}

Platform::~Platform() = default;

Status Platform::DeployContract(const std::string& name,
                                const std::string& casm) {
  auto program = vm::Assemble(casm);
  if (!program.ok()) return program.status();
  for (auto& n : nodes_) {
    BB_RETURN_IF_ERROR(n->DeployContract(name, *program));
  }
  return Status::Ok();
}

Status Platform::DeployChaincode(const std::string& name,
                                 const std::string& registered_as) {
  for (auto& n : nodes_) {
    BB_RETURN_IF_ERROR(n->DeployChaincode(name, registered_as));
  }
  return Status::Ok();
}

Status Platform::DeployWorkloadContract(const std::string& name,
                                        const std::string& casm,
                                        const std::string& chaincode_name) {
  switch (options_.stack.exec_engine) {
    case ExecEngineKind::kEvm:
      return DeployContract(name, casm);
    case ExecEngineKind::kNative:
    case ExecEngineKind::kNoop:
      // The noop layer accepts the chaincode deploy shape (no assembly
      // needed) and executes nothing.
      return DeployChaincode(name, chaincode_name);
  }
  return Status::InvalidArgument("unknown execution engine kind");
}

Status Platform::PreloadState(const std::string& contract,
                              const std::string& key,
                              const std::string& value) {
  genesis_[chain::StateDb::FullKey(contract, key)] = {true, value};
  return Status::Ok();
}

Status Platform::FinalizeGenesis() {
  const chain::StateDb::WriteSet genesis = std::exchange(genesis_, {});
  chain::StateDb::CommitLog log;
  for (auto& n : nodes_) {
    BB_RETURN_IF_ERROR(n->FinalizeGenesis(genesis, &log));
  }
  return Status::Ok();
}

Status Platform::PreloadBlock(const std::vector<chain::TxPtr>& txs) {
  for (auto& n : nodes_) {
    BB_RETURN_IF_ERROR(n->DirectCommit(txs));
  }
  return Status::Ok();
}

void Platform::Start() {
  for (auto& n : nodes_) n->Start();
}

uint64_t Platform::TotalBlocksProduced() const {
  uint64_t total = 0;
  for (const auto& n : nodes_) total += n->blocks_produced();
  return total;
}

uint64_t Platform::CanonicalBlocks() const {
  return nodes_.front()->chain().main_chain_blocks();
}

uint64_t Platform::TotalTxsExecuted() const {
  uint64_t total = 0;
  for (const auto& n : nodes_) total += n->txs_executed();
  return total;
}

void Platform::ExportMetrics(obs::MetricsRegistry* reg) const {
  for (const auto& n : nodes_) n->ExportMetrics(reg);
}

}  // namespace bb::platform
