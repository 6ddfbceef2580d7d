// Memory-scaling figure: per-node and cluster-wide peak footprint vs
// cluster size (DoNothing, all five platforms, N = 4..64). Not a figure
// from the paper — this is the memory companion to Figure 7's
// throughput-scalability sweep, built on the mem-observability stack.
//
// The offered load is light and fixed (clients and rate do not scale
// with N) and the workload writes no state, so the N-independent volume
// terms (chain, storage, pool) stay small and the protocol's own
// footprint carries the curve. Expected shape: PBFT-family platforms
// (hyperledger, erisdb) retain per-sequence vote certificates from all
// N peers — per-node footprint grows ~linearly in N and the cluster-wide
// total grows ~quadratically (the O(N^2) stressor of the scale
// campaign) — while PoA/PoW/Raft per-node footprint stays flat and the
// cluster total linear. bbreport mem --gate-scaling pins that contrast.
//
// Memory tracking is always on here (the sweep rows are useless without
// their mem blocks); pass --mem=PREFIX to additionally write one full
// blockbench-mem-v1 dump per case.

#include "common.h"

using namespace bb;
using namespace bb::bench;

int main(int argc, char** argv) {
  BenchArgs args = ParseBenchArgs(argc, argv);
  std::vector<size_t> sizes = args.full
      ? std::vector<size_t>{4, 8, 16, 32, 64}
      : std::vector<size_t>{4, 8, 16, 32};
  double duration = args.full ? 60 : 40;
  const char* platforms[] = {"ethereum", "parity", "hyperledger", "erisdb",
                             "corda"};

  SweepRunner runner("fig_memscale", args);
  runner.EnableMemTracking();
  struct Row {
    const char* platform;
    size_t n;
  };
  std::vector<Row> rows;
  for (const char* platform : platforms) {
    for (size_t n : sizes) {
      obs::RunSpec spec = BaseSpec(platform);
      spec.servers = n;
      // Light fixed load, no state writes: the volume terms are small
      // and N-independent by construction, so the fit isolates what the
      // *protocol* holds per node as the cluster grows.
      spec.clients = 4;
      spec.rate = 5;
      spec.workload = "donothing";
      spec.duration = duration;
      spec.drain = 15;
      runner.Add(std::move(spec),
                 {{"platform", platform}, {"n", std::to_string(n)}});
      rows.push_back({platform, n});
    }
  }

  PrintHeader("Memory scaling: peak footprint vs N (DoNothing, fixed load)");
  std::printf("%-12s %4s | %14s %14s %12s %10s\n", "platform", "N",
              "peak node B", "cluster peak B", "bytes/tx", "committed");
  bool ok = runner.Run([&](size_t i, const SweepOutcome& o) {
    if (!o.status.ok() || o.mem.is_null()) return;
    const util::Json* peak_node = o.mem.Get("peak_node_bytes");
    const util::Json* cluster = o.mem.Get("cluster_peak");
    const util::Json* per_tx = o.mem.Get("bytes_per_committed_tx");
    std::printf("%-12s %4zu | %14llu %14llu %12.1f %10llu\n", rows[i].platform,
                rows[i].n,
                (unsigned long long)(peak_node ? peak_node->AsUint() : 0),
                (unsigned long long)(cluster ? cluster->AsUint() : 0),
                per_tx ? per_tx->AsDouble() : 0.0,
                (unsigned long long)o.report.committed);
  });
  return ok ? 0 : 1;
}
