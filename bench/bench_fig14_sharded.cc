// Figure 14 companion: sharding as a first-class platform axis. Where
// bench_ablation_sharding measures the coordination-FREE upper bound (K
// disjoint clusters, no cross-shard transactions by construction), this
// bench runs the real thing: one ShardedPlatform ("hyperledger@shards=S")
// whose S PBFT groups share a hash-partitioned Smallbank state and pay
// for cross-shard payments with coordinator-driven 2PC. Sweeping the
// cross-shard ratio shows the H-Store-style trade-off the paper points
// at: near-linear scaling at ratio 0, eroding as 2PC traffic grows.
//
// Gate (CI): 4 shards at ratio 0 must commit >= 2.5x the single-shard
// throughput — the scaling claim behind promoting the axis at all.

#include "common.h"

using namespace bb;
using namespace bb::bench;

int main(int argc, char** argv) {
  BenchArgs args = ParseBenchArgs(argc, argv);
  double duration = args.full ? 120 : 45;
  const size_t kShardSize = 4;       // servers per shard
  const size_t kClientsPerShard = 4;
  // Per-shard offered load (4 x 450 = 1800 tx/s) sits ~1.4x above a
  // 4-server PBFT group's ~1250 tx/s sustainable capacity, so every
  // shard runs saturated and the S-shard speedup measures real capacity
  // scaling, not offered-load bookkeeping.
  const double kRate = 450;

  std::vector<size_t> shard_counts = {1, 2, 4, 8};
  std::vector<double> ratios = args.full
      ? std::vector<double>{0.0, 0.05, 0.1, 0.3, 0.5}
      : std::vector<double>{0.0, 0.1};

  SweepRunner runner("fig14_sharded", args);
  struct Row {
    size_t shards;
    double ratio;
  };
  std::vector<Row> rows;
  for (size_t shards : shard_counts) {
    for (double ratio : ratios) {
      if (shards == 1 && ratio > 0) continue;  // nothing to straddle
      obs::RunSpec spec = BaseSpec("hyperledger");
      if (shards > 1) spec.platform += "@shards=" + std::to_string(shards);
      spec.servers = kShardSize;  // per shard
      spec.clients = kClientsPerShard * shards;
      spec.rate = kRate;
      spec.duration = duration;
      spec.drain = 30;
      spec.workload = "smallbank";
      spec.cross_shard = ratio;
      char ratio_label[16];
      std::snprintf(ratio_label, sizeof(ratio_label), "%.2f", ratio);
      runner.Add(std::move(spec), {{"shards", std::to_string(shards)},
                                   {"ratio", ratio_label}});
      rows.push_back({shards, ratio});
    }
  }

  PrintHeader("Figure 14 companion: sharded PBFT + 2PC (Smallbank, "
              "hash-partitioned)");
  std::printf("%6s %6s | %10s %12s | %8s %8s %8s\n", "shards", "ratio",
              "tput tx/s", "lat p50 (s)", "xs sub", "xs cmt", "xs abt");
  double tput_1 = 0, tput_4 = 0;
  bool ok = runner.Run([&](size_t i, const SweepOutcome& o) {
    if (!o.status.ok()) return;
    std::printf("%6zu %6.2f | %10.1f %12.2f | %8llu %8llu %8llu\n",
                rows[i].shards, rows[i].ratio, o.report.throughput,
                o.report.latency_p50,
                (unsigned long long)o.report.xs_submitted,
                (unsigned long long)o.report.xs_committed,
                (unsigned long long)o.report.xs_aborted);
    if (rows[i].ratio == 0) {
      if (rows[i].shards == 1) tput_1 = o.report.throughput;
      if (rows[i].shards == 4) tput_4 = o.report.throughput;
    }
  });

  if (tput_1 > 0) {
    double speedup = tput_4 / tput_1;
    std::printf("\n4-shard speedup at ratio 0: %.2fx (gate: >= 2.5x)\n",
                speedup);
    if (speedup < 2.5) {
      std::fprintf(stderr,
                   "%s: FAIL: 4-shard/1-shard speedup %.2fx < 2.5x\n",
                   argv[0], speedup);
      ok = false;
    }
  }
  std::printf(
      "\nUnlike the ablation's disjoint clusters, every point here pays the\n"
      "cross-shard protocol: prepares and commits are sealed into the\n"
      "participant chains, so `--audit` runs can replay atomicity.\n");
  return ok ? 0 : 1;
}
