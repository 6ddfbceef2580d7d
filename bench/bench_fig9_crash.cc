// Figure 9: fault tolerance — 4 servers killed at t=250 s with 8 clients,
// for 12- and 16-server networks. Reports committed transactions per
// 10-second window over the 400 s run.
//
// Paper shape: Ethereum nearly unaffected; Parity unaffected (surviving
// authorities produce MORE blocks each); Hyperledger-12 stops entirely
// (4 > f = 3) and Hyperledger-16 recovers at a reduced rate.

#include "common.h"

using namespace bb;
using namespace bb::bench;

int main(int argc, char** argv) {
  BenchArgs args = ParseBenchArgs(argc, argv);
  const double kill_time = 250;
  const double end_time = args.full ? 400 : 360;

  // series[platform][{12,16}] -> per-bin committed counts
  std::vector<std::vector<std::vector<double>>> series(
      3, std::vector<std::vector<double>>(2));
  std::vector<std::vector<obs::AuditReport>> audits(
      3, std::vector<obs::AuditReport>(2));
  // One flight recorder per case: a violated audit dumps the black box
  // and prints the bbench --replay line that reproduces it.
  std::vector<std::vector<std::unique_ptr<obs::FlightRecorder>>> recorders(3);
  std::vector<std::vector<obs::RunSpec>> specs(3, std::vector<obs::RunSpec>(2));

  SweepRunner runner("fig9_crash", args);
  for (int pi = 0; pi < 3; ++pi) {
    for (int si = 0; si < 2; ++si) {
      size_t servers = si == 0 ? 12 : 16;
      SweepCase c;
      c.spec = BaseSpec(kPlatforms[pi]);
      c.spec.servers = servers;
      c.spec.clients = 8;
      c.spec.rate = 60;
      c.spec.duration = end_time;
      c.spec.drain = 0;
      // Kill the last four servers (none of them hosts a client).
      for (size_t k = servers - 4; k < servers; ++k) {
        c.spec.crashes.emplace_back(uint64_t(k), kill_time);
      }
      c.labels = {{"platform", kPlatforms[pi]},
                  {"servers", std::to_string(servers)}};
      recorders[size_t(pi)].push_back(std::make_unique<obs::FlightRecorder>());
      c.sinks.recorder = recorders[size_t(pi)].back().get();
      specs[size_t(pi)][size_t(si)] = c.spec;
      std::vector<double>* out = &series[size_t(pi)][size_t(si)];
      obs::AuditReport* audit = &audits[size_t(pi)][size_t(si)];
      c.after = [out, audit, end_time](workloads::RunStack& run,
                                       const core::BenchReport&) {
        for (size_t s = 0; s < size_t(end_time); s += 10) {
          double sum = 0;
          for (size_t t = s; t < s + 10 && t < size_t(end_time); ++t) {
            sum += run.driver().stats().CommittedInSecond(t);
          }
          out->push_back(sum);
        }
        *audit = platform::RunAudit(run.platform(), run.audit_config());
      };
      runner.Add(std::move(c));
    }
  }

  bool ok = runner.Run(nullptr);

  PrintHeader("Figure 9: committed tx per 10 s; 4 servers crash at t=250 s");
  std::printf("%8s", "time(s)");
  for (const char* p : kPlatforms) {
    std::printf(" %12s-12 %12s-16", p, p);
  }
  std::printf("\n");
  size_t bins = series[0][0].size();
  for (size_t b = 0; b < bins; ++b) {
    std::printf("%8zu", b * 10);
    for (int pi = 0; pi < 3; ++pi) {
      std::printf(" %15.0f %15.0f", series[size_t(pi)][0][b],
                  series[size_t(pi)][1][b]);
    }
    std::printf("\n");
  }

  PrintHeader("Ledger audit (cross-node forensics after the crashes)");
  for (int pi = 0; pi < 3; ++pi) {
    for (int si = 0; si < 2; ++si) {
      const obs::AuditReport& audit = audits[size_t(pi)][size_t(si)];
      std::printf("%s-%d:\n%s", kPlatforms[pi], si == 0 ? 12 : 16,
                  audit.RenderTable().c_str());
      if (!audit.ok() &&
          !DumpViolation("fig9", *recorders[size_t(pi)][size_t(si)],
                         specs[size_t(pi)][size_t(si)], audit,
                         std::string("fig9-") + kPlatforms[pi] + "-" +
                             (si == 0 ? "12" : "16") + ".blackbox.json")) {
        ok = false;
      }
    }
  }
  return ok ? 0 : 1;
}
