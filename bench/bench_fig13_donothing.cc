// Figure 13(c): DoNothing vs YCSB vs Smallbank throughput (8 clients,
// 8 servers) — isolates the consensus layer's share of the cost.
//
// Paper: Ethereum gains ~10% on DoNothing over YCSB (execution is ~10%
// overhead); Parity shows NO difference (its bottleneck is transaction
// signing, not consensus or execution); Hyperledger gains slightly.

#include "common.h"

using namespace bb;
using namespace bb::bench;

int main(int argc, char** argv) {
  BenchArgs args = ParseBenchArgs(argc, argv);
  double duration = args.full ? 300 : 90;
  // Saturating rates per platform (found by the Fig 5 sweep).
  double sat_rate[3] = {256, 64, 384};
  const char* workloads[3] = {"smallbank", "ycsb", "donothing"};

  SweepRunner runner("fig13_donothing", args);
  struct Row {
    int pi;
    int wi;
  };
  std::vector<Row> rows;
  for (int pi = 0; pi < 3; ++pi) {
    for (int wi = 0; wi < 3; ++wi) {
      obs::RunSpec spec = BaseSpec(kPlatforms[pi]);
      spec.rate = sat_rate[pi];
      spec.duration = duration;
      spec.workload = workloads[wi];
      runner.Add(std::move(spec),
                 {{"platform", kPlatforms[pi]},
                  {"workload", WorkloadLabel(workloads[wi])}});
      rows.push_back({pi, wi});
    }
  }

  double tput[3][3] = {};
  bool ok = runner.Run([&](size_t i, const SweepOutcome& o) {
    if (!o.status.ok()) return;
    tput[rows[i].pi][rows[i].wi] = o.report.throughput;
  });

  PrintHeader("Figure 13(c): transaction throughput by workload "
              "(paper: Eth 256/284/328, Parity 45/45/46, HL 1122/1273/1285)");
  std::printf("%-12s | %12s %12s %12s\n", "platform", "Smallbank", "YCSB",
              "DoNothing");
  for (int pi = 0; pi < 3; ++pi) {
    std::printf("%-12s | %12.1f %12.1f %12.1f\n", kPlatforms[pi], tput[pi][0],
                tput[pi][1], tput[pi][2]);
  }
  return ok ? 0 : 1;
}
