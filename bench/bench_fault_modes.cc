// Extension bench: the two fault modes of Section 3.3 that the paper's
// evaluation does not plot — injected network delay and random response
// (message corruption) — swept against all four platform models (the
// three evaluated in the paper plus the ErisDB/Tendermint backend that
// was "under development").
//
// Expected shapes:
//   delay     — PoW (block interval >> delay) barely notices small
//               delays but forks more as delay approaches the interval;
//               BFT protocols' commit latency tracks the extra RTTs.
//   corruption — corrupted messages fail signature/MAC checks and are
//               retransmission-free in these protocols, so throughput
//               falls roughly with the fraction of surviving quorum
//               traffic; BFT protocols tolerate it until quorums break.

#include "common.h"

using namespace bb;
using namespace bb::bench;

namespace {

const char* kAllPlatforms[] = {"ethereum", "parity", "hyperledger", "erisdb",
                               "corda"};

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args = ParseBenchArgs(argc, argv);
  double duration = args.full ? 180 : 80;

  SweepRunner runner("fault_modes", args);
  struct Row {
    const char* platform;
    bool corrupt_mode;  // false: delay sweep, true: corruption sweep
    double value;       // delay in seconds or corrupt fraction
  };
  std::vector<Row> rows;
  std::vector<uint64_t> orphans;
  for (const char* p : kAllPlatforms) {
    for (double delay : {0.0, 0.05, 0.2, 0.5}) {
      SweepCase c;
      c.spec = BaseSpec(p);
      c.spec.rate = 40;
      c.spec.duration = duration;
      c.spec.delay = delay;
      c.labels = {{"platform", p},
                  {"mode", "delay"},
                  {"delay_ms", std::to_string(int(delay * 1e3))}};
      size_t slot = rows.size();
      orphans.push_back(0);
      c.after = [&orphans, slot](workloads::RunStack& run,
                                 const core::BenchReport&) {
        uint64_t worst = 0;
        for (size_t i = 0; i < run.platform().num_servers(); ++i) {
          worst = std::max<uint64_t>(
              worst, run.platform().node(i).chain().orphaned_blocks());
        }
        orphans[slot] = worst;
      };
      runner.Add(std::move(c));
      rows.push_back({p, false, delay});
    }
  }
  for (const char* p : kAllPlatforms) {
    for (double frac : {0.0, 0.02, 0.10, 0.25}) {
      obs::RunSpec spec = BaseSpec(p);
      spec.rate = 40;
      spec.duration = duration;
      spec.corrupt = frac;
      runner.Add(std::move(spec),
                 {{"platform", p},
                  {"mode", "corrupt"},
                  {"corrupt_pct", std::to_string(int(frac * 100))}});
      orphans.push_back(0);
      rows.push_back({p, true, frac});
    }
  }

  bool printed_corrupt_header = false;
  PrintHeader("Fault mode: injected one-way network delay (YCSB, 8/8)");
  std::printf("%-12s %10s | %10s %12s %10s\n", "platform", "delay(ms)",
              "tput tx/s", "lat p50 (s)", "orphans");
  bool ok = runner.Run([&](size_t i, const SweepOutcome& o) {
    const Row& row = rows[i];
    if (row.corrupt_mode && !printed_corrupt_header) {
      printed_corrupt_header = true;
      PrintHeader("Fault mode: random response (message corruption)");
      std::printf("%-12s %10s | %10s %12s\n", "platform", "corrupt%",
                  "tput tx/s", "lat p50 (s)");
    }
    if (!o.status.ok()) return;
    if (row.corrupt_mode) {
      std::printf("%-12s %10.0f | %10.1f %12.2f\n", row.platform,
                  row.value * 100, o.report.throughput, o.report.latency_p50);
    } else {
      std::printf("%-12s %10.0f | %10.1f %12.2f %10llu\n", row.platform,
                  row.value * 1e3, o.report.throughput, o.report.latency_p50,
                  (unsigned long long)orphans[i]);
    }
  });
  return ok ? 0 : 1;
}
