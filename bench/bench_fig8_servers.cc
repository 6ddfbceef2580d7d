// Figure 8: performance scalability with a fixed 8 clients while the
// number of servers grows 8..32 (YCSB).
//
// Paper shape: all systems get somewhat worse with more servers
// (network overheads); Hyperledger keeps working (the load stays at
// 8 clients) but degrades; Parity stays constant.

#include "common.h"

using namespace bb;
using namespace bb::bench;

int main(int argc, char** argv) {
  BenchArgs args = ParseBenchArgs(argc, argv);
  std::vector<size_t> sizes = args.full
      ? std::vector<size_t>{8, 12, 16, 20, 24, 28, 32}
      : std::vector<size_t>{8, 16, 24, 32};
  double duration = args.full ? 200 : 150;

  SweepRunner runner("fig8_servers", args);
  struct Row {
    const char* platform;
    size_t n;
  };
  std::vector<Row> rows;
  for (int pi = 0; pi < 3; ++pi) {
    for (size_t n : sizes) {
      obs::RunSpec spec = BaseSpec(kPlatforms[pi]);
      spec.servers = n;
      spec.clients = 8;
      spec.rate = 140;  // saturates Ethereum; keeps Hyperledger under its ceiling
      spec.duration = duration;
      spec.drain = 20;
      runner.Add(std::move(spec), {{"platform", kPlatforms[pi]},
                                  {"servers", std::to_string(n)}});
      rows.push_back({kPlatforms[pi], n});
    }
  }

  PrintHeader("Figure 8: scalability with fixed 8 clients (YCSB)");
  std::printf("%-12s %8s | %10s %12s\n", "platform", "servers", "tput tx/s",
              "lat p50 (s)");
  bool ok = runner.Run([&](size_t i, const SweepOutcome& o) {
    if (!o.status.ok()) return;
    std::printf("%-12s %8zu | %10.1f %12.2f\n", rows[i].platform, rows[i].n,
                o.report.throughput, o.report.latency_p50);
  });
  return ok ? 0 : 1;
}
