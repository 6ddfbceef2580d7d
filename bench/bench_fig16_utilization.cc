// Figure 16 (Appendix B): CPU and network utilization over 100 seconds
// (8 clients, 8 servers, YCSB at saturation), sampled on server 1.
//
// Paper shape: Ethereum is CPU-bound (mining saturates its reserved
// cores, ~80-90%); Hyperledger uses CPU sparingly but far more network
// (PBFT broadcasts); Parity has low footprints on both.

#include "common.h"

using namespace bb;
using namespace bb::bench;

int main(int argc, char** argv) {
  BenchArgs args = ParseBenchArgs(argc, argv);
  double duration = 100;

  std::vector<std::vector<double>> cpu(3), mbps(3);
  std::vector<sim::MsgCounts> msgs(3);
  // Ethereum at saturation (CPU-bound mining); Hyperledger at ~60% load,
  // where the paper's low-CPU / high-network contrast is visible.
  double sat_rate[3] = {256, 64, 100};

  SweepRunner runner("fig16_utilization", args);
  for (int pi = 0; pi < 3; ++pi) {
    SweepCase c;
    c.spec = BaseSpec(kPlatforms[pi]);
    c.spec.rate = sat_rate[pi];
    c.spec.duration = duration;
    c.spec.drain = 0;
    c.labels = {{"platform", kPlatforms[pi]}};
    std::vector<double>* cpu_out = &cpu[size_t(pi)];
    std::vector<double>* mbps_out = &mbps[size_t(pi)];
    sim::MsgCounts* msgs_out = &msgs[size_t(pi)];
    c.after = [cpu_out, mbps_out, msgs_out, duration](
                  workloads::RunStack& run, const core::BenchReport&) {
      const auto& meter = run.platform().node(1).meter();
      for (size_t s = 0; s < size_t(duration); s += 5) {
        cpu_out->push_back(meter.CpuUtilizationAt(s) * 100);
        mbps_out->push_back(meter.NetworkMbpsAt(s));
      }
      *msgs_out = meter.msgs_sent_by_type();
    };
    runner.Add(std::move(c));
  }

  bool ok = runner.Run(nullptr);

  PrintHeader("Figure 16: resource utilization over time (server 1)");
  std::printf("%8s | %8s %8s | %8s %8s | %8s %8s\n", "time(s)", "eth-cpu%",
              "eth-Mbps", "par-cpu%", "par-Mbps", "hl-cpu%", "hl-Mbps");
  for (size_t b = 0; b < cpu[0].size(); ++b) {
    std::printf("%8zu | %8.1f %8.2f | %8.1f %8.2f | %8.1f %8.2f\n", b * 5,
                cpu[0][b], mbps[0][b], cpu[1][b], mbps[1][b], cpu[2][b],
                mbps[2][b]);
  }

  // Where the network time goes: messages sent by server 1, per type.
  // The PBFT broadcast phases dominating Hyperledger's traffic is the
  // paper's explanation for its network-heavy profile.
  std::printf("\nmessages sent by server 1, per type:\n");
  for (int pi = 0; pi < 3; ++pi) {
    std::printf("  %-12s", kPlatforms[pi]);
    uint64_t total = 0;
    for (const auto& [type, n] : msgs[size_t(pi)]) total += n;
    std::printf(" total %8llu |", (unsigned long long)total);
    for (const auto& [type, n] : msgs[size_t(pi)]) {
      std::printf(" %s=%llu", type, (unsigned long long)n);
    }
    std::printf("\n");
  }
  return ok ? 0 : 1;
}
