// PlatformRegistry: the declarative catalogue of platform models. Each
// entry is a name, a one-line description, and a factory producing the
// calibrated PlatformOptions — i.e. a StackSpec plus constants. The five
// canonical platforms (ethereum / parity / hyperledger / erisdb / corda)
// are pre-registered; adding a backend is one Register() call (see
// docs/EXTENDING.md for the ~30-line recipe).
//
// Mix-and-match stacks — the paper's layer-swap ablations — come from
// CustomStackOptions() or from spec strings like "pbft+trie+evm"
// understood by StackOptionsFromString(), which bbench and the ablation
// benches expose directly on the command line.

#ifndef BLOCKBENCH_PLATFORM_REGISTRY_H_
#define BLOCKBENCH_PLATFORM_REGISTRY_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "platform/options.h"

namespace bb::platform {

struct PlatformDefinition {
  std::string name;
  /// One-liner for --help listings and docs.
  std::string description;
  std::function<PlatformOptions()> make;
};

class PlatformRegistry {
 public:
  /// The process-wide registry, pre-populated with the five canonical
  /// platform models.
  static PlatformRegistry& Instance();

  /// InvalidArgument on a duplicate or empty name, or if the definition's
  /// options fail Validate().
  Status Register(PlatformDefinition def);
  bool Contains(const std::string& name) const;
  /// Builds the named platform's options; NotFound for unknown names
  /// (the message lists what is registered).
  Result<PlatformOptions> Make(const std::string& name) const;
  /// Registered names, sorted.
  std::vector<std::string> Names() const;
  const std::map<std::string, PlatformDefinition>& definitions() const {
    return defs_;
  }

 private:
  std::map<std::string, PlatformDefinition> defs_;
};

/// Layer-name parsers ("pbft", "trie", "memkv", "evm", ...).
Result<ConsensusKind> ParseConsensusKind(const std::string& s);
Result<StateTreeKind> ParseStateTreeKind(const std::string& s);
Result<StorageBackendKind> ParseStorageBackendKind(const std::string& s);
Result<ExecEngineKind> ParseExecEngineKind(const std::string& s);

/// Options for an arbitrary stack with neutral (uncalibrated) constants:
/// BFT/CFT consensus gets immediate finality, chain-based consensus the
/// default confirmation depth. `name` defaults to ToString(spec).
PlatformOptions CustomStackOptions(const StackSpec& spec,
                                   std::string name = "");

/// Resolves either a registered platform name ("hyperledger") or a
/// "consensus+tree[/backend]+exec" spec ("pbft+trie+evm",
/// "pow+bucket/memkv+native") into validated options. `data_dir` is set
/// before validation; a spec over diskkv needs one.
Result<PlatformOptions> StackOptionsFromString(
    const std::string& desc, const std::string& data_dir = "");

}  // namespace bb::platform

#endif  // BLOCKBENCH_PLATFORM_REGISTRY_H_
