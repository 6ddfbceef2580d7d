// Figure 7: performance scalability with the same number of clients and
// servers (YCSB, N = 1..32).
//
// Paper shape: Parity constant; Ethereum degrades roughly linearly
// beyond 8 servers; Hyperledger stops working beyond 16 servers (views
// diverge once the consensus channel saturates).

#include "common.h"

using namespace bb;
using namespace bb::bench;

int main(int argc, char** argv) {
  BenchArgs args = ParseBenchArgs(argc, argv);
  std::vector<size_t> sizes = args.full
      ? std::vector<size_t>{1, 2, 4, 8, 12, 16, 20, 24, 28, 32}
      : std::vector<size_t>{2, 4, 8, 16, 20, 28, 32};
  double duration = args.full ? 120 : 70;

  SweepRunner runner("fig7_scalability", args);
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
      spec.rate = 80;  // saturates every platform; drives PBFT past its channel capacity beyond 16 nodes
      spec.duration = duration;
      spec.drain = 20;
      runner.Add(std::move(spec), {{"platform", kPlatforms[pi]},
                                  {"n", std::to_string(n)}});
      rows.push_back({kPlatforms[pi], n});
    }
  }

  PrintHeader("Figure 7: scalability, #clients = #servers = N (YCSB)");
  std::printf("%-12s %4s | %10s %12s %12s\n", "platform", "N", "tput tx/s",
              "lat p50 (s)", "committed");
  bool ok = runner.Run([&](size_t i, const SweepOutcome& o) {
    if (!o.status.ok()) return;
    std::printf("%-12s %4zu | %10.1f %12.2f %12llu\n", rows[i].platform,
                rows[i].n, o.report.throughput, o.report.latency_p50,
                (unsigned long long)o.report.committed);
  });
  return ok ? 0 : 1;
}
