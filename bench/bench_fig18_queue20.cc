// Figure 18 (Appendix B): client request queue over time with 20 servers
// and 20 clients (YCSB).
//
// Paper shape: Ethereum's queue grows and shrinks with commits (normal
// behaviour); Hyperledger fails to generate blocks at this scale, so its
// queue only ever grows — yet stays below Ethereum's early on because a
// processing bottleneck at the servers throttles ingestion.

#include "common.h"

using namespace bb;
using namespace bb::bench;

int main(int argc, char** argv) {
  BenchArgs args = ParseBenchArgs(argc, argv);
  double duration = args.full ? 350 : 200;

  std::vector<std::vector<double>> queues(3);
  std::vector<uint64_t> committed(3);

  SweepRunner runner("fig18_queue20", args);
  for (int pi = 0; pi < 3; ++pi) {
    SweepCase c;
    c.spec = BaseSpec(kPlatforms[pi]);
    c.spec.servers = 20;
    c.spec.clients = 20;
    c.spec.rate = 100;  // overload: at 20 nodes Hyperledger stops generating blocks
    c.spec.duration = duration;
    c.spec.drain = 0;
    c.labels = {{"platform", kPlatforms[pi]}};
    std::vector<double>* out = &queues[size_t(pi)];
    c.after = [out, duration](workloads::RunStack& run,
                              const core::BenchReport&) {
      for (size_t s = 0; s < size_t(duration); s += 10) {
        out->push_back(run.driver().stats().QueueLengthAt(s));
      }
    };
    runner.Add(std::move(c));
  }

  bool ok = runner.Run([&](size_t i, const SweepOutcome& o) {
    if (!o.status.ok()) return;
    committed[i] = o.report.committed;
  });

  PrintHeader("Figure 18: queue length at the client, 20 servers / 20 "
              "clients");
  std::printf("%8s %14s %14s %14s\n", "time(s)", "ethereum", "parity",
              "hyperledger");
  for (size_t b = 0; b < queues[0].size(); ++b) {
    std::printf("%8zu %14.0f %14.0f %14.0f\n", b * 10, queues[0][b],
                queues[1][b], queues[2][b]);
  }
  std::printf("\ncommitted: ethereum=%llu parity=%llu hyperledger=%llu\n",
              (unsigned long long)committed[0], (unsigned long long)committed[1],
              (unsigned long long)committed[2]);
  return ok ? 0 : 1;
}
