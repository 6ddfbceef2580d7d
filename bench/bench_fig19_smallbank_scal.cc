// Figure 19 (Appendix B): scalability with the Smallbank benchmark
// (#clients = #servers = N). Same pattern as Fig 7, except Hyperledger
// collapses even earlier under the heavier transactions.

#include "common.h"

using namespace bb;
using namespace bb::bench;

int main(int argc, char** argv) {
  BenchArgs args = ParseBenchArgs(argc, argv);
  std::vector<size_t> sizes = args.full
      ? std::vector<size_t>{1, 2, 4, 8, 12, 16, 20, 24, 28, 32}
      : std::vector<size_t>{2, 4, 8, 16, 24, 32};
  double duration = args.full ? 120 : 70;

  SweepRunner runner("fig19_smallbank_scal", args);
  struct Row {
    const char* platform;
    size_t n;
  };
  std::vector<Row> rows;
  for (int pi = 0; pi < 3; ++pi) {
    for (size_t n : sizes) {
      obs::RunSpec spec = BaseSpec(kPlatforms[pi]);
      spec.servers = n;
      spec.clients = n;
      spec.rate = 80;
      spec.duration = duration;
      spec.drain = 20;
      spec.workload = "smallbank";
      runner.Add(std::move(spec), {{"platform", kPlatforms[pi]},
                                   {"n", std::to_string(n)}});
      rows.push_back({kPlatforms[pi], n});
    }
  }

  PrintHeader("Figure 19: scalability, #clients = #servers = N (Smallbank)");
  std::printf("%-12s %4s | %10s %12s\n", "platform", "N", "tput tx/s",
              "lat p50 (s)");
  bool ok = runner.Run([&](size_t i, const SweepOutcome& o) {
    if (!o.status.ok()) return;
    std::printf("%-12s %4zu | %10.1f %12.2f\n", rows[i].platform, rows[i].n,
                o.report.throughput, o.report.latency_p50);
  });
  return ok ? 0 : 1;
}
