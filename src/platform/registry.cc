#include "platform/registry.h"

namespace bb::platform {

namespace {

void RegisterCanonical(PlatformRegistry* reg) {
  auto must = [&](PlatformDefinition def) {
    Status s = reg->Register(std::move(def));
    (void)s;  // canonical definitions are valid by construction
  };
  must({"ethereum",
        "geth v1.4.18 model: PoW, boxed-word EVM, Patricia trie (pow+trie+evm)",
        EthereumOptions});
  must({"parity",
        "Parity v1.6 model: PoA, optimized EVM, in-memory trie, signing "
        "bottleneck (poa+trie+evm)",
        ParityOptions});
  must({"hyperledger",
        "Fabric v0.6 model: PBFT, native chaincode, bucket tree, bounded "
        "channel (pbft+bucket+native)",
        HyperledgerOptions});
  must({"erisdb",
        "ErisDB model: Tendermint BFT, EVM contracts, trie state "
        "(tendermint+trie+evm)",
        ErisDbOptions});
  must({"corda",
        "Corda-style model: Raft (crash-fault only), native execution, flat "
        "state (raft+bucket+native)",
        CordaOptions});
  must({"fabric", "alias of 'hyperledger' (Fabric v0.6 model)",
        HyperledgerOptions});
}

}  // namespace

PlatformRegistry& PlatformRegistry::Instance() {
  static PlatformRegistry* instance = [] {
    auto* reg = new PlatformRegistry();
    RegisterCanonical(reg);
    return reg;
  }();
  return *instance;
}

Status PlatformRegistry::Register(PlatformDefinition def) {
  if (def.name.empty()) {
    return Status::InvalidArgument("platform name must be non-empty");
  }
  if (def.make == nullptr) {
    return Status::InvalidArgument("platform '" + def.name +
                                   "' has no options factory");
  }
  if (defs_.count(def.name)) {
    return Status::InvalidArgument("platform already registered: " + def.name);
  }
  BB_RETURN_IF_ERROR(def.make().Validate());
  std::string name = def.name;
  defs_.emplace(std::move(name), std::move(def));
  return Status::Ok();
}

bool PlatformRegistry::Contains(const std::string& name) const {
  return defs_.count(name) != 0;
}

Result<PlatformOptions> PlatformRegistry::Make(const std::string& name) const {
  auto it = defs_.find(name);
  if (it == defs_.end()) {
    std::string known;
    for (const auto& [n, _] : defs_) {
      if (!known.empty()) known += ", ";
      known += n;
    }
    return Status::NotFound("unknown platform '" + name +
                            "' (registered: " + known + ")");
  }
  return it->second.make();
}

std::vector<std::string> PlatformRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(defs_.size());
  for (const auto& [n, _] : defs_) names.push_back(n);
  return names;  // std::map iteration is already sorted
}

Result<ConsensusKind> ParseConsensusKind(const std::string& s) {
  if (s == "pow") return ConsensusKind::kPow;
  if (s == "poa") return ConsensusKind::kPoa;
  if (s == "pbft") return ConsensusKind::kPbft;
  if (s == "tendermint") return ConsensusKind::kTendermint;
  if (s == "raft") return ConsensusKind::kRaft;
  return Status::InvalidArgument(
      "unknown consensus layer '" + s +
      "' (one of: pow, poa, pbft, tendermint, raft)");
}

Result<StateTreeKind> ParseStateTreeKind(const std::string& s) {
  if (s == "trie") return StateTreeKind::kPatriciaTrie;
  if (s == "bucket") return StateTreeKind::kBucketTree;
  return Status::InvalidArgument("unknown state tree '" + s +
                                 "' (one of: trie, bucket)");
}

Result<StorageBackendKind> ParseStorageBackendKind(const std::string& s) {
  if (s == "memkv") return StorageBackendKind::kMemKv;
  if (s == "diskkv") return StorageBackendKind::kDiskKv;
  return Status::InvalidArgument("unknown storage backend '" + s +
                                 "' (one of: memkv, diskkv)");
}

Result<ExecEngineKind> ParseExecEngineKind(const std::string& s) {
  if (s == "evm") return ExecEngineKind::kEvm;
  if (s == "native") return ExecEngineKind::kNative;
  if (s == "noop") return ExecEngineKind::kNoop;
  return Status::InvalidArgument("unknown execution engine '" + s +
                                 "' (one of: evm, native, noop)");
}

PlatformOptions CustomStackOptions(const StackSpec& spec, std::string name) {
  PlatformOptions o;
  o.stack = spec;
  o.name = name.empty() ? ToString(spec) : std::move(name);
  switch (spec.consensus) {
    case ConsensusKind::kPow:
    case ConsensusKind::kPoa:
      // Chain-based consensus forks; keep the default confirmation lag.
      o.confirmation_depth = 2;
      break;
    case ConsensusKind::kPbft:
    case ConsensusKind::kTendermint:
    case ConsensusKind::kRaft:
      o.confirmation_depth = 0;  // agreement is final on commit
      break;
  }
  o.block_tx_limit = 500;
  return o;
}

Result<PlatformOptions> StackOptionsFromString(const std::string& desc,
                                               const std::string& data_dir) {
  // Peel the sharding axis first: both registered names and raw stack
  // specs accept an "@shards=S" suffix ("hyperledger@shards=4",
  // "pbft+trie+evm@shards=2").
  if (size_t at = desc.rfind("@shards="); at != std::string::npos) {
    std::string count = desc.substr(at + 8);
    size_t shards = 0;
    size_t consumed = 0;
    try {
      shards = std::stoull(count, &consumed);
    } catch (...) {
      consumed = 0;
    }
    if (consumed != count.size() || count.empty() || shards == 0) {
      return Status::InvalidArgument(
          "stack spec '" + desc +
          "': num_shards: '@shards=' needs a positive integer shard count; "
          "try e.g. '" +
          desc.substr(0, at) + "@shards=4'");
    }
    auto base = StackOptionsFromString(desc.substr(0, at), data_dir);
    if (!base.ok()) return base.status();
    PlatformOptions o = std::move(*base);
    o.num_shards = shards;
    if (shards > 1) o.name += "@shards=" + std::to_string(shards);
    BB_RETURN_IF_ERROR(o.Validate());
    return o;
  }

  auto& registry = PlatformRegistry::Instance();
  if (registry.Contains(desc) || desc.find('+') == std::string::npos) {
    auto o = registry.Make(desc);
    if (o.ok()) o->data_dir = data_dir;
    return o;
  }

  // consensus+tree[/backend]+exec
  size_t first = desc.find('+');
  size_t last = desc.rfind('+');
  if (first == last) {
    return Status::InvalidArgument(
        "stack spec must be consensus+tree[/backend]+exec, got '" + desc +
        "'");
  }
  std::string consensus = desc.substr(0, first);
  std::string data = desc.substr(first + 1, last - first - 1);
  std::string exec = desc.substr(last + 1);
  std::string tree = data, backend = "memkv";
  if (size_t slash = data.find('/'); slash != std::string::npos) {
    tree = data.substr(0, slash);
    backend = data.substr(slash + 1);
  }

  StackSpec spec;
  auto c = ParseConsensusKind(consensus);
  if (!c.ok()) return c.status();
  spec.consensus = *c;
  auto t = ParseStateTreeKind(tree);
  if (!t.ok()) return t.status();
  spec.state_tree = *t;
  auto b = ParseStorageBackendKind(backend);
  if (!b.ok()) return b.status();
  spec.storage = *b;
  auto e = ParseExecEngineKind(exec);
  if (!e.ok()) return e.status();
  spec.exec_engine = *e;

  PlatformOptions o = CustomStackOptions(spec);
  o.data_dir = data_dir;
  BB_RETURN_IF_ERROR(o.Validate());
  return o;
}

}  // namespace bb::platform
