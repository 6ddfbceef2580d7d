// Figure 15 (Appendix B): block generation rate for small / medium /
// large block sizes, measured at saturation (8 clients, 8 servers, YCSB).
//   Ethereum:   gasLimit scaled 0.5x / 1x / 2x. Bigger blocks require a
//               matching difficulty increase to keep the uncle rate down,
//               so the effective block interval scales with the size.
//   Parity:     stepDuration 1 / 2 / 4 (the paper's knob for block size).
//   Hyperledger: batchSize 250 / 500 / 1000.
//
// Paper: Eth 0.34/0.22/0.12, Parity 1.0/0.56/0.28, HL 5.2/3.1/1.75
// blocks/s — rate drops roughly in proportion, so overall throughput
// does NOT improve with bigger blocks.

#include "common.h"

using namespace bb;
using namespace bb::bench;

int main(int argc, char** argv) {
  BenchArgs args = ParseBenchArgs(argc, argv);
  double duration = args.full ? 240 : 90;
  const char* size_names[3] = {"small", "medium", "large"};

  SweepRunner runner("fig15_blocksize", args);
  struct Row {
    const char* platform;
    const char* size;
  };
  std::vector<Row> rows;
  std::vector<double> blocks(9, 0.0);
  for (int pi = 0; pi < 3; ++pi) {
    auto opts = platform::StackOptionsFromString(kPlatforms[pi]);
    if (!opts.ok()) return UsageError(argv[0], opts.status());
    for (int si = 0; si < 3; ++si) {
      double factor = si == 0 ? 0.5 : (si == 1 ? 1.0 : 2.0);
      SweepCase c;
      c.spec = BaseSpec(kPlatforms[pi]);
      c.spec.rate = 384;
      c.spec.duration = duration;
      c.spec.drain = 10;
      platform::PlatformOptions& o = c.options.emplace(*opts);
      if (std::string(kPlatforms[pi]) == "ethereum") {
        o.block_tx_limit = size_t(double(o.block_tx_limit) * factor);
        // Difficulty response to the heavier blocks.
        o.pow.base_block_interval *= factor;
      } else if (std::string(kPlatforms[pi]) == "parity") {
        o.poa.step_duration *= 2.0 * factor;  // 1 / 2 / 4 s
      } else {
        o.pbft.batch_size = size_t(double(o.pbft.batch_size) * factor);
        o.block_tx_limit = o.pbft.batch_size;
      }
      c.labels = {{"platform", kPlatforms[pi]}, {"size", size_names[si]}};
      size_t slot = rows.size();
      c.after = [&blocks, slot](workloads::RunStack& run,
                                const core::BenchReport&) {
        blocks[slot] =
            double(run.platform().node(0).chain().main_chain_blocks());
      };
      runner.Add(std::move(c));
      rows.push_back({kPlatforms[pi], size_names[si]});
    }
  }

  PrintHeader("Figure 15: block generation rate vs block size");
  std::printf("%-12s %-8s | %14s %14s\n", "platform", "size", "blocks/s",
              "tput tx/s");
  bool ok = runner.Run([&](size_t i, const SweepOutcome& o) {
    if (!o.status.ok()) return;
    std::printf("%-12s %-8s | %14.2f %14.1f\n", rows[i].platform, rows[i].size,
                blocks[i] / (duration + 10), o.report.throughput);
  });
  return ok ? 0 : 1;
}
