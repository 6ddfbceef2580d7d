// Figure 10: security under a partition attack. The network (8 servers,
// 8 clients) is split in half at t=100 s for 150 s. Reports, over time,
// the total number of blocks generated (X-total) and the number on the
// main branch reaching consensus (X-bc); their gap Δ is the double-spend
// vulnerability window.
//
// Paper shape: Ethereum and Parity fork during the partition (up to ~30%
// of blocks orphaned) and discard one branch on healing; Hyperledger
// never forks but takes ~50 s longer to recover after the heal.

#include "common.h"

using namespace bb;
using namespace bb::bench;

int main(int argc, char** argv) {
  BenchArgs args = ParseBenchArgs(argc, argv);
  const double t_partition = 100, t_heal = 250;
  const double end_time = args.full ? 400 : 350;

  std::vector<std::vector<double>> totals(3), mains(3);
  std::vector<obs::AuditReport> audits(3);
  // One live sampler per case (periodic gauge probes -> the sweep row's
  // "timeline" section); each case needs its own instance.
  std::vector<std::unique_ptr<obs::Sampler>> samplers(3);
  // One flight recorder per case: the expected Ethereum/Parity safety
  // violations dump black boxes with a replay-to-failure command.
  std::vector<std::unique_ptr<obs::FlightRecorder>> recorders(3);
  std::vector<obs::RunSpec> specs(3);

  SweepRunner runner("fig10_attack", args);
  for (int pi = 0; pi < 3; ++pi) {
    samplers[size_t(pi)] =
        std::make_unique<obs::Sampler>(obs::Sampler::Config{10.0, 0.0});
    SweepCase c;
    c.spec = BaseSpec(kPlatforms[pi]);
    c.spec.servers = 8;
    c.spec.clients = 8;
    c.spec.rate = 60;
    c.spec.duration = end_time;
    c.spec.drain = 0;
    // Servers {0, 1, 2, 3} are cut off from {4, ..., 7}.
    c.spec.partition_start = t_partition;
    c.spec.partition_end = t_heal;
    c.sinks.sampler = samplers[size_t(pi)].get();
    recorders[size_t(pi)] = std::make_unique<obs::FlightRecorder>();
    c.sinks.recorder = recorders[size_t(pi)].get();
    specs[size_t(pi)] = c.spec;
    c.labels = {{"platform", kPlatforms[pi]}};
    std::vector<double>* tot = &totals[size_t(pi)];
    std::vector<double>* mn = &mains[size_t(pi)];
    obs::AuditReport* audit = &audits[size_t(pi)];
    c.before = [end_time, tot, mn](workloads::RunStack& run) {
      // Sample block counts every 10 s (writes only this case's storage).
      for (double t = 10; t <= end_time; t += 10) {
        run.sim().At(t, [&run, tot, mn] {
          auto& p = run.platform();
          // Total blocks produced across all proposers; main-branch blocks
          // as agreed by a node from each partition side (max view).
          uint64_t best_main = 0;
          for (size_t i = 0; i < p.num_servers(); ++i) {
            best_main = std::max(
                best_main, uint64_t(p.node(i).chain().main_chain_blocks()));
          }
          tot->push_back(double(p.TotalBlocksProduced()));
          mn->push_back(double(best_main));
        });
      }
    };
    c.after = [audit](workloads::RunStack& run, const core::BenchReport&) {
      *audit = platform::RunAudit(run.platform(), run.audit_config());
    };
    runner.Add(std::move(c));
  }

  bool ok = runner.Run(nullptr);

  PrintHeader("Figure 10: blocks generated vs blocks on main branch; "
              "partition [100s, 250s)");
  std::printf("%8s", "time(s)");
  for (const char* p : kPlatforms) std::printf(" %11s-tot %11s-bc", p, p);
  std::printf("\n");
  size_t bins = totals[0].size();
  for (size_t b = 0; b < bins; ++b) {
    std::printf("%8zu", (b + 1) * 10);
    for (int pi = 0; pi < 3; ++pi) {
      std::printf(" %15.0f %14.0f", totals[size_t(pi)][b],
                  mains[size_t(pi)][b]);
    }
    std::printf("\n");
  }

  std::printf("\nDelta (generated - main branch) at end:\n");
  for (int pi = 0; pi < 3; ++pi) {
    double d = totals[size_t(pi)].back() - mains[size_t(pi)].back();
    std::printf("  %-12s Δ = %.0f blocks (%.1f%% of generated)\n",
                kPlatforms[pi], d,
                100.0 * d / std::max(1.0, totals[size_t(pi)].back()));
  }

  PrintHeader("Ledger audit (cross-node fork forensics)");
  for (int pi = 0; pi < 3; ++pi) {
    const obs::AuditReport& audit = audits[size_t(pi)];
    std::printf("%s:\n%s", kPlatforms[pi], audit.RenderTable().c_str());
    if (!audit.ok() &&
        !DumpViolation("fig10", *recorders[size_t(pi)], specs[size_t(pi)],
                       audit, std::string("fig10-") + kPlatforms[pi] +
                                  ".blackbox.json")) {
      ok = false;
    }
  }
  return ok ? 0 : 1;
}
