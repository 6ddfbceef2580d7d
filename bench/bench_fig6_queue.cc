// Figure 6: client request queue length over time at per-client request
// rates of 8 tx/s and 512 tx/s (8 clients, 8 servers, YCSB).
//
// Paper shape: at 8 tx/s Ethereum and Hyperledger queues stay ~constant
// while Parity's grows (offered 64 tx/s > its ~45 tx/s capacity); at
// 512 tx/s Parity's queue is the SMALLEST because the server enforces a
// per-client admission cap.

#include "common.h"

using namespace bb;
using namespace bb::bench;

int main(int argc, char** argv) {
  BenchArgs args = ParseBenchArgs(argc, argv);
  double duration = args.full ? 300 : 150;
  const double rates[2] = {8.0, 512.0};

  SweepRunner runner("fig6_queue", args);
  // queues[rate index][platform index] -> samples every 10 s.
  std::vector<double> queues[2][3];
  for (int ri = 0; ri < 2; ++ri) {
    for (int pi = 0; pi < 3; ++pi) {
      SweepCase c;
      c.spec = BaseSpec(kPlatforms[pi]);
      c.spec.rate = rates[ri];
      c.spec.duration = duration;
      c.spec.drain = 0;
      c.labels = {{"platform", kPlatforms[pi]},
                  {"rate", std::to_string(int(rates[ri]))}};
      std::vector<double>* out = &queues[ri][pi];
      c.after = [out, duration](workloads::RunStack& run,
                                const core::BenchReport&) {
        for (size_t s = 0; s < size_t(duration); s += 10) {
          out->push_back(run.driver().stats().QueueLengthAt(s));
        }
      };
      runner.Add(std::move(c));
    }
  }

  bool ok = runner.Run(nullptr);
  for (int ri = 0; ri < 2; ++ri) {
    PrintHeader("Figure 6: queue length over time, " +
                std::to_string(int(rates[ri])) + " tx/s per client");
    std::printf("%8s %14s %14s %14s\n", "time(s)", "ethereum", "parity",
                "hyperledger");
    for (size_t i = 0; i * 10 < size_t(duration); ++i) {
      double e = i < queues[ri][0].size() ? queues[ri][0][i] : 0;
      double p = i < queues[ri][1].size() ? queues[ri][1][i] : 0;
      double h = i < queues[ri][2].size() ? queues[ri][2][i] : 0;
      std::printf("%8zu %14.0f %14.0f %14.0f\n", i * 10, e, p, h);
    }
  }
  return ok ? 0 : 1;
}
