// Layer-stack ablation: sweep consensus x state-tree x execution over the
// YCSB workload, one throughput/latency row per stack — the experiment
// family the paper's four-layer taxonomy (§3) enables. Attribution works
// by differencing rows: e.g. PBFT+trie+evm vs PBFT+bucket+native isolates
// the Hyperledger data/execution layers under identical ordering, and
// swapping only the consensus column reprices ordering under an identical
// data/execution stack (the Fig 14-style decomposition).
//
// Stacks are built through the PlatformRegistry's spec grammar
// ("pbft+trie+evm"), so every row here is runnable verbatim via
//   bbench --platform=<stack> --workload=ycsb
//
// Default: the 10 trie/bucket x evm/native combinations per consensus
// engine with chain-based and BFT consensus; --full adds the noop
// execution layer (consensus+data in isolation).

#include "common.h"

using namespace bb;
using namespace bb::bench;

namespace {

obs::RunSpec AblationSpec(const std::string& platform, double duration) {
  obs::RunSpec spec = BaseSpec(platform);
  spec.servers = 4;
  spec.clients = 4;
  spec.rate = 30;
  spec.duration = duration;
  spec.drain = 20;
  spec.warmup = 10;
  spec.ycsb_records = 1000;
  return spec;
}

void PrintRow(const std::string& name, const core::BenchReport& r) {
  std::printf("%-38s %10.1f %10.3f %10.3f %10llu\n", name.c_str(),
              r.throughput, r.latency_p50, r.latency_p95,
              (unsigned long long)r.committed);
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args = ParseBenchArgs(argc, argv);
  double duration = args.full ? 120 : 60;

  const char* consensus[] = {"pow", "poa", "pbft", "tendermint", "raft"};
  const char* trees[] = {"trie", "bucket"};
  std::vector<const char*> engines = {"evm", "native"};
  if (args.full) engines.push_back("noop");

  SweepRunner runner("ablation_layers", args);
  struct Row {
    std::string name;
    const char* consensus;  // null for registry rows
  };
  std::vector<Row> rows;
  for (const char* c : consensus) {
    for (const char* t : trees) {
      for (const char* e : engines) {
        std::string spec = std::string(c) + "+" + t + "+" + e;
        auto options = platform::StackOptionsFromString(spec);
        if (!options.ok()) {
          std::fprintf(stderr, "skip %s: %s\n", spec.c_str(),
                       options.status().ToString().c_str());
          continue;
        }
        runner.Add(AblationSpec(spec, duration), {{"stack", spec}});
        rows.push_back({spec, c});
      }
    }
  }
  for (const auto& name : platform::PlatformRegistry::Instance().Names()) {
    auto options = platform::PlatformRegistry::Instance().Make(name);
    runner.Add(AblationSpec(name, duration), {{"platform", name}});
    rows.push_back(
        {name + " (" + platform::ToString(options->stack) + ")", nullptr});
  }

  PrintHeader("Layer ablation: consensus x state tree x execution, YCSB 4/4");
  std::printf("%-38s %10s %10s %10s %10s\n", "stack", "tput tx/s", "p50 (s)",
              "p95 (s)", "committed");
  bool printed_registry_header = false;
  const char* last_consensus = nullptr;
  bool ok = runner.Run([&](size_t i, const SweepOutcome& o) {
    const Row& row = rows[i];
    if (row.consensus == nullptr && !printed_registry_header) {
      printed_registry_header = true;
      PrintHeader("Canonical registry stacks (calibrated models), same load");
    } else if (row.consensus != nullptr && last_consensus != nullptr &&
               row.consensus != last_consensus) {
      std::printf("\n");
    }
    last_consensus = row.consensus;
    if (!o.status.ok()) return;
    PrintRow(row.name, o.report);
  });
  return ok ? 0 : 1;
}
