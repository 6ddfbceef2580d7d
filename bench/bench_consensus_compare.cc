// Extension bench: the four consensus engines head-to-head on identical
// hardware assumptions — the comparison the paper's Table 2 implies but
// could not run (ErisDB integration was unfinished). Same YCSB load,
// same cluster sizes; only the consensus layer (and its natural
// execution pairing) differs.

#include "common.h"

using namespace bb;
using namespace bb::bench;

int main(int argc, char** argv) {
  BenchArgs args = ParseBenchArgs(argc, argv);
  double duration = args.full ? 180 : 80;
  std::vector<size_t> sizes = {4, 8, 16};

  const char* engines[] = {"ethereum", "parity", "hyperledger", "erisdb",
                           "corda"};
  const char* consensus_names[] = {"PoW", "PoA", "PBFT", "Tendermint",
                                   "Raft(CFT)"};

  SweepRunner runner("consensus_compare", args);
  struct Row {
    size_t ri;
    size_t n;
  };
  std::vector<Row> rows;
  std::vector<double> blocks;
  for (size_t ri = 0; ri < std::size(engines); ++ri) {
    for (size_t n : sizes) {
      SweepCase c;
      c.spec = BaseSpec(engines[ri]);
      c.spec.servers = n;
      c.spec.clients = n;
      c.spec.rate = 128;
      c.spec.duration = duration;
      c.labels = {{"platform", engines[ri]},
                  {"consensus", consensus_names[ri]},
                  {"n", std::to_string(n)}};
      size_t slot = rows.size();
      blocks.push_back(0.0);
      c.after = [&blocks, slot](workloads::RunStack& run,
                                const core::BenchReport&) {
        blocks[slot] =
            double(run.platform().node(0).chain().main_chain_blocks());
      };
      runner.Add(std::move(c));
      rows.push_back({ri, n});
    }
  }

  PrintHeader("Consensus engines head-to-head (YCSB, saturating load)");
  std::printf("%-12s %-12s %4s | %10s %12s %10s\n", "platform", "consensus",
              "N", "tput tx/s", "lat p50 (s)", "blocks/s");
  bool ok = runner.Run([&](size_t i, const SweepOutcome& o) {
    if (!o.status.ok()) return;
    std::printf("%-12s %-12s %4zu | %10.1f %12.2f %10.2f\n",
                engines[rows[i].ri], consensus_names[rows[i].ri],
                rows[i].n, o.report.throughput, o.report.latency_p50,
                blocks[i] / (duration + 30));
  });
  std::printf(
      "\nTendermint's rotating proposer avoids PBFT's stable-leader view\n"
      "changes; with an EVM execution layer its throughput sits between\n"
      "Parity's signing-bound ceiling and Hyperledger's native execution.\n"
      "Raft commits with a single majority round trip and O(N) messages —\n"
      "the crash-fault-only efficiency the paper's Section 2 contrasts\n"
      "against Byzantine tolerance (it trusts every well-formed message).\n");
  return ok ? 0 : 1;
}
