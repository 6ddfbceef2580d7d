// Figure 5: throughput and latency with 8 clients and 8 servers.
//   (a) peak performance for YCSB and Smallbank
//   (b, c) throughput and latency vs per-client request rate.
//
// Paper reference (peak): Ethereum 284/255 tx/s, Parity 45/46 tx/s,
// Hyperledger 1273/1122 tx/s (YCSB/Smallbank); latency 92/114, 3/4,
// 38/51 seconds.

#include <vector>

#include "common.h"

using namespace bb;
using namespace bb::bench;

int main(int argc, char** argv) {
  BenchArgs args = ParseBenchArgs(argc, argv);
  std::vector<double> rates = args.full
      ? std::vector<double>{8, 16, 32, 64, 128, 256, 512, 1024}
      : std::vector<double>{8, 32, 128, 512};
  double duration = args.full ? 300 : 90;

  SweepRunner runner("fig5_peak", args);
  struct Row {
    int pi;
    int wi;
    double rate;
  };
  std::vector<Row> rows;
  const char* workloads[2] = {"ycsb", "smallbank"};
  for (int pi = 0; pi < 3; ++pi) {
    for (int wi = 0; wi < 2; ++wi) {
      for (double rate : rates) {
        obs::RunSpec spec = BaseSpec(kPlatforms[pi]);
        spec.rate = rate;
        spec.duration = duration;
        spec.workload = workloads[wi];
        runner.Add(std::move(spec),
                   {{"platform", kPlatforms[pi]},
                    {"workload", WorkloadLabel(workloads[wi])},
                    {"rate", std::to_string(int(rate))}});
        rows.push_back({pi, wi, rate});
      }
    }
  }

  PrintHeader("Figure 5(b,c): throughput & latency vs request rate "
              "(8 clients, 8 servers, YCSB + Smallbank)");
  std::printf("%-12s %-10s %8s | %10s %12s %12s\n", "platform", "workload",
              "rate", "tput tx/s", "lat p50 (s)", "lat mean (s)");

  struct Peak {
    double tput = 0;
    double lat_mean = 0;
  };
  Peak peak[3][2];

  bool ok = runner.Run([&](size_t i, const SweepOutcome& o) {
    if (!o.status.ok()) return;
    const Row& row = rows[i];
    std::printf("%-12s %-10s %8.0f | %10.1f %12.2f %12.2f\n",
                kPlatforms[row.pi], WorkloadLabel(workloads[row.wi]).c_str(),
                row.rate,
                o.report.throughput, o.report.latency_p50,
                o.report.latency_mean);
    if (o.report.throughput > peak[row.pi][row.wi].tput) {
      peak[row.pi][row.wi].tput = o.report.throughput;
      peak[row.pi][row.wi].lat_mean = o.report.latency_mean;
    }
  });

  PrintHeader("Figure 5(a): peak performance (paper: Eth 284/255, Parity "
              "45/46, Hyperledger 1273/1122 tx/s)");
  std::printf("%-12s | %16s %16s | %16s %16s\n", "platform", "YCSB tput",
              "Smallbank tput", "YCSB lat(s)", "Smallbank lat(s)");
  for (int pi = 0; pi < 3; ++pi) {
    std::printf("%-12s | %16.1f %16.1f | %16.2f %16.2f\n", kPlatforms[pi],
                peak[pi][0].tput, peak[pi][1].tput, peak[pi][0].lat_mean,
                peak[pi][1].lat_mean);
  }
  return ok ? 0 : 1;
}
