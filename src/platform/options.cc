#include "platform/options.h"

namespace bb::platform {

const char* ToString(ConsensusKind kind) {
  switch (kind) {
    case ConsensusKind::kPow: return "pow";
    case ConsensusKind::kPoa: return "poa";
    case ConsensusKind::kPbft: return "pbft";
    case ConsensusKind::kTendermint: return "tendermint";
    case ConsensusKind::kRaft: return "raft";
  }
  return "?";
}

const char* ToString(ExecEngineKind kind) {
  switch (kind) {
    case ExecEngineKind::kEvm: return "evm";
    case ExecEngineKind::kNative: return "native";
    case ExecEngineKind::kNoop: return "noop";
  }
  return "?";
}

const char* ToString(StateTreeKind kind) {
  switch (kind) {
    case StateTreeKind::kPatriciaTrie: return "trie";
    case StateTreeKind::kBucketTree: return "bucket";
  }
  return "?";
}

const char* ToString(StorageBackendKind kind) {
  switch (kind) {
    case StorageBackendKind::kMemKv: return "memkv";
    case StorageBackendKind::kDiskKv: return "diskkv";
  }
  return "?";
}

std::string ToString(const StackSpec& spec) {
  std::string out = ToString(spec.consensus);
  out += '+';
  out += ToString(spec.state_tree);
  out += '/';
  out += ToString(spec.storage);
  out += '+';
  out += ToString(spec.exec_engine);
  return out;
}

Status PlatformOptions::Validate() const {
  // Every rejection names the offending field and suggests a stack spec
  // that would accept it, so a failed sweep line is self-diagnosing.
  auto bad = [&](const std::string& field, const std::string& why,
                 const StackSpec& suggestion) {
    std::string spec = ToString(suggestion);
    if (num_shards > 1) {
      spec += "@shards=" + std::to_string(num_shards);
    }
    return Status::InvalidArgument(
        "platform '" + name + "' (" + ToString(stack) + "): " + field + ": " +
        why + "; try e.g. '" + spec + "'");
  };
  if (block_tx_limit == 0) {
    return bad("block_tx_limit", "must be at least 1", stack);
  }
  if (block_gas_limit > 0 && stack.exec_engine != ExecEngineKind::kEvm) {
    StackSpec s = stack;
    s.exec_engine = ExecEngineKind::kEvm;
    return bad("block_gas_limit",
               "gas-based block packing requires the EVM execution layer; "
               "the '" +
                   std::string(ToString(stack.exec_engine)) +
                   "' layer has no gas metering",
               s);
  }
  if (seal_sign_cpu > 0 && stack.consensus != ConsensusKind::kPoa) {
    StackSpec s = stack;
    s.consensus = ConsensusKind::kPoa;
    return bad("seal_sign_cpu",
               "the per-transaction sealing budget is defined by the PoA "
               "step duration and requires the PoA consensus layer",
               s);
  }
  if (seal_budget_fraction <= 0 || seal_budget_fraction > 1) {
    return bad("seal_budget_fraction", "must be in (0, 1]", stack);
  }
  if (consensus_channel_capacity > 0 &&
      stack.consensus != ConsensusKind::kPbft) {
    StackSpec s = stack;
    s.consensus = ConsensusKind::kPbft;
    return bad("consensus_channel_capacity",
               "bounds the \"pbft_*\" message class and requires the PBFT "
               "consensus layer",
               s);
  }
  if (stack.storage == StorageBackendKind::kDiskKv && data_dir.empty()) {
    StackSpec s = stack;
    s.storage = StorageBackendKind::kMemKv;
    return bad("data_dir",
               "the diskkv storage backend requires a non-empty data_dir "
               "(or drop the disk backend)",
               s);
  }
  if (admission_rate_limit < 0) {
    return bad("admission_rate_limit", "must be >= 0", stack);
  }
  if (num_shards == 0) {
    return bad("num_shards",
               "must be at least 1 (spell shard counts as '@shards=S')",
               stack);
  }
  if (num_shards > 1) {
    // Cross-shard 2PC pins prepare/commit records into each participant
    // chain and needs them final once sealed: probabilistic-finality
    // consensus (PoW/PoA fork-and-reorg) could un-commit a prepare.
    if (stack.consensus != ConsensusKind::kPbft &&
        stack.consensus != ConsensusKind::kTendermint &&
        stack.consensus != ConsensusKind::kRaft) {
      StackSpec s = stack;
      s.consensus = ConsensusKind::kPbft;
      return bad("num_shards",
                 "sharding requires a finality consensus layer "
                 "(pbft/tendermint/raft); '" +
                     std::string(ToString(stack.consensus)) +
                     "' blocks can be reorged after a cross-shard prepare "
                     "is sealed",
                 s);
    }
    if (xs_prepare_timeout <= 0) {
      return bad("xs_prepare_timeout", "must be > 0 when num_shards > 1",
                 stack);
    }
  }
  return Status::Ok();
}

PlatformOptions EthereumOptions() {
  PlatformOptions o;
  o.name = "ethereum";
  o.stack.consensus = ConsensusKind::kPow;
  o.stack.exec_engine = ExecEngineKind::kEvm;
  o.stack.state_tree = StateTreeKind::kPatriciaTrie;
  o.stack.storage = StorageBackendKind::kMemKv;

  o.pow.base_block_interval = 2.5;  // the paper's tuned genesis difficulty
  o.pow.reference_nodes = 8;
  o.pow.difficulty_growth = 0.9;

  // Gas-based block packing: the intrinsic per-tx gas (the EVM's 21000,
  // rescaled) plus this gasLimit sizes a block at ~820 YCSB transactions
  // (284 tx/s * 2.5 s/block at the paper's YCSB peak). The tx-count cap
  // bounds even zero-gas (DoNothing) blocks.
  o.vm.gas.tx_intrinsic = 800;
  o.block_gas_limit = 845'000;
  o.block_tx_limit = 1000;
  // confirmationLength = 5 s -> ceil(5 / 2.5) blocks.
  o.confirmation_depth = 2;

  o.tx_pool_capacity = 0;  // geth queues deeply
  // "servers do not always broadcast transactions to each other (they
  // keep mining on their own transaction pool)".
  o.gossip_txs = false;

  // geth's EVM: slow dispatch, heavily boxed words (22 GB for a 10M-element
  // sort in the paper).
  o.vm.dispatch_overhead = 60;
  o.vm.word_overhead_bytes = 2200;
  o.vm.memory_word_limit = 14'000'000;  // OOM between 10M and 100M elements

  o.cost.seconds_per_gas = 2e-8;
  o.cost.tx_fixed_cpu = 1.2e-4;
  return o;
}

PlatformOptions ParityOptions() {
  PlatformOptions o;
  o.name = "parity";
  o.stack.consensus = ConsensusKind::kPoa;
  o.stack.exec_engine = ExecEngineKind::kEvm;
  o.stack.state_tree = StateTreeKind::kPatriciaTrie;
  o.stack.storage = StorageBackendKind::kMemKv;

  o.poa.step_duration = 1.0;  // the paper sets stepDuration = 1

  // The authority signs every transaction it seals; the signing budget
  // inside a 1 s step caps blocks at ~45 transactions — the paper's
  // measured constant ~45 tx/s, independent of load and network size.
  o.seal_sign_cpu = 0.011;
  o.seal_budget_fraction = 0.5;
  o.block_tx_limit = 4096;  // bounded by the signing budget in practice

  // Admission rate-limited at the RPC layer (~80 tx/s network-wide over
  // 8 servers) with a newest-first pool: the queue of accepted-but-
  // unconfirmed transactions grows while commit latency stays low —
  // both Parity behaviours in Fig 6.
  o.admission_rate_limit = 10.0;
  o.pool_lifo = true;
  o.confirmation_depth = 3;
  o.gossip_txs = true;

  // Optimized EVM: ~3x faster than geth's, words still boxed but leaner.
  o.vm.dispatch_overhead = 12;
  o.vm.word_overhead_bytes = 200;
  o.vm.memory_word_limit = 0;  // memory pressure comes from state, not VM

  // All state in memory; ~3M states exhausted the paper's 32 GB boxes.
  o.state_mem_capacity = 1'100'000'000;  // scaled: see DESIGN.md

  o.cost.seconds_per_gas = 7e-9;
  o.cost.tx_fixed_cpu = 1e-4;
  return o;
}

PlatformOptions HyperledgerOptions() {
  PlatformOptions o;
  o.name = "hyperledger";
  o.stack.consensus = ConsensusKind::kPbft;
  o.stack.exec_engine = ExecEngineKind::kNative;
  o.stack.state_tree = StateTreeKind::kBucketTree;
  o.stack.storage = StorageBackendKind::kMemKv;

  o.pbft.batch_size = 500;  // the paper's default batchSize
  o.pbft.view_timeout = 3.0;
  o.pbft.tx_validate_cpu = 1e-4;
  o.pbft.per_message_cpu = 4e-4;

  o.block_tx_limit = 500;
  o.confirmation_depth = 0;  // PBFT commits are final immediately
  o.tx_pool_capacity = 0;
  o.gossip_txs = true;
  // Fabric v0.6 re-validates and re-broadcasts every gossiped tx; this
  // per-node ingest cost scales with N x offered load and is what tips
  // nodes into saturation in the 16+-node scalability runs.
  o.gossip_ingest_cpu = 7e-5;

  // Fabric v0.6's bounded consensus message channel: the cause of the
  // view-change livelock past ~16 nodes under load. Sized so an 8-node
  // network at peak load never overflows, but the O(N^2) per-pipeline
  // message volume of larger networks does.
  o.consensus_channel_capacity = 96;

  // Native chaincode: no gas, flat per-op cost; Docker call overhead in
  // the fixed term.
  o.cost.tx_fixed_cpu = 5.5e-4;
  o.cost.native_op_cpu = 2e-5;
  return o;
}

PlatformOptions ErisDbOptions() {
  PlatformOptions o;
  o.name = "erisdb";
  o.stack.consensus = ConsensusKind::kTendermint;
  o.stack.exec_engine = ExecEngineKind::kEvm;  // ErisDB runs Solidity on an EVM
  o.stack.state_tree = StateTreeKind::kPatriciaTrie;
  o.stack.storage = StorageBackendKind::kMemKv;

  o.tendermint.batch_size = 500;
  o.tendermint.round_timeout = 2.0;

  o.block_tx_limit = 500;
  o.confirmation_depth = 0;  // BFT finality
  o.gossip_txs = true;

  // ErisDB's EVM: comparable to Parity's in optimization level.
  o.vm.dispatch_overhead = 16;
  o.vm.word_overhead_bytes = 300;
  o.cost.seconds_per_gas = 9e-9;
  o.cost.tx_fixed_cpu = 3.5e-4;
  return o;
}

PlatformOptions CordaOptions() {
  PlatformOptions o;
  o.name = "corda";
  o.stack.consensus = ConsensusKind::kRaft;
  // Corda runs contracts on the JVM; native-class execution speed and a
  // flat state model are the closest fit in this framework.
  o.stack.exec_engine = ExecEngineKind::kNative;
  o.stack.state_tree = StateTreeKind::kBucketTree;
  o.stack.storage = StorageBackendKind::kMemKv;

  o.raft.batch_size = 500;
  o.block_tx_limit = 500;
  o.confirmation_depth = 0;  // committed == final (crash model)
  o.gossip_txs = true;

  o.cost.tx_fixed_cpu = 3e-4;
  o.cost.native_op_cpu = 2e-5;
  return o;
}

}  // namespace bb::platform
