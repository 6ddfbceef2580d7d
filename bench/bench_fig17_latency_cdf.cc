// Figure 17 (Appendix B): commit latency distribution (CDF) for YCSB and
// Smallbank at 8 clients / 8 servers.
//
// Paper shape: Ethereum has the highest latency AND the highest variance
// (PoW inter-block times are exponential); Parity the lowest variance
// (server-enforced admission); Hyperledger in between.

#include "common.h"

using namespace bb;
using namespace bb::bench;

int main(int argc, char** argv) {
  BenchArgs args = ParseBenchArgs(argc, argv);
  double duration = args.full ? 300 : 120;

  // hists[workload][platform], copied out of the driver in the after
  // hook (the platform is torn down once the sweep point finishes).
  Histogram hists[2][3];
  // Near-peak load per platform, as in the paper's runs.
  double rates[3] = {30, 64, 200};

  SweepRunner runner("fig17_latency_cdf", args);
  for (int wi = 0; wi < 2; ++wi) {
    const char* w = wi == 0 ? "ycsb" : "smallbank";
    for (int pi = 0; pi < 3; ++pi) {
      SweepCase c;
      c.spec = BaseSpec(kPlatforms[pi]);
      c.spec.rate = rates[pi];
      c.spec.duration = duration;
      c.spec.workload = w;
      c.labels = {{"platform", kPlatforms[pi]}, {"workload", WorkloadLabel(w)}};
      Histogram* out = &hists[wi][pi];
      c.after = [out](workloads::RunStack& run, const core::BenchReport&) {
        *out = run.driver().stats().latencies();
      };
      runner.Add(std::move(c));
    }
  }

  bool ok = runner.Run(nullptr);

  for (int wi = 0; wi < 2; ++wi) {
    const char* w = wi == 0 ? "ycsb" : "smallbank";
    PrintHeader(std::string("Figure 17: latency CDF, ") + WorkloadLabel(w));
    std::printf("%6s | %12s %12s %12s\n", "pct", "ethereum(s)", "parity(s)",
                "hyperledger(s)");
    for (double pct : {1., 5., 10., 25., 50., 75., 90., 95., 99., 99.9}) {
      std::printf("%6.1f | %12.2f %12.2f %12.2f\n", pct,
                  hists[wi][0].Percentile(pct), hists[wi][1].Percentile(pct),
                  hists[wi][2].Percentile(pct));
    }
    std::printf("stddev | %12.2f %12.2f %12.2f\n", hists[wi][0].Stddev(),
                hists[wi][1].Stddev(), hists[wi][2].Stddev());
  }
  return ok ? 0 : 1;
}
