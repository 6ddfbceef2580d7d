// Figure 13(a,b): Analytics workload — latency of historical queries
// over a preloaded chain (10K blocks, ~3 transfer transactions each):
//   Q1: total transaction value committed between blocks i and j
//       (implemented with one getBlock RPC per block on every platform)
//   Q2: balance aggregate for one account between blocks i and j
//       (getBalance-per-block RPCs on Ethereum/Parity; ONE VersionKVStore
//        chaincode query on Hyperledger, whose bucket state model has no
//        historical reads)
//
// Paper shape: Q1 similar across systems (same number of RPCs); Q2 an
// order of magnitude faster on Hyperledger thanks to the single RPC.

#include "common.h"
#include "workloads/analytics.h"

using namespace bb;
using namespace bb::bench;

int main(int argc, char** argv) {
  BenchArgs args = ParseBenchArgs(argc, argv);
  workloads::AnalyticsConfig acfg;
  acfg.num_blocks = args.full ? 100'000 : 10'000;
  acfg.num_accounts = args.full ? 120'000 : 10'000;
  std::vector<uint64_t> scans = {1, 10, 100, 1'000, 10'000};

  util::Json rows = util::Json::Array();

  PrintHeader("Figure 13(a,b): analytics query latency vs #blocks scanned");
  std::printf("%-12s %-4s %10s | %12s %10s %14s\n", "platform", "q",
              "#blocks", "latency (s)", "#RPCs", "result");

  for (const char* pname : kPlatforms) {
    auto opts = platform::StackOptionsFromString(pname);
    if (!opts.ok()) return UsageError(argv[0], opts.status());
    sim::Simulation sim(7);
    platform::Platform p(&sim, *opts, 1);
    Status s = workloads::SetupAnalyticsChain(&p, acfg);
    if (!s.ok()) {
      std::fprintf(stderr, "analytics setup failed: %s\n",
                   s.ToString().c_str());
      return 1;
    }
    p.Start();
    bool chaincode_q2 = std::string(pname) == "hyperledger";
    workloads::AnalyticsClient client(1, &p.network(), 0, acfg);

    uint64_t head = p.node(0).chain().head_height();
    auto record = [&](const char* q, uint64_t scan, double lat) {
      util::Json row = util::Json::Object();
      util::Json labels = util::Json::Object();
      labels.Set("platform", pname);
      labels.Set("query", q);
      labels.Set("blocks", std::to_string(scan));
      row.Set("labels", std::move(labels));
      row.Set("status", "Ok");
      util::Json metrics = util::Json::Object();
      metrics.Set("latency_seconds", lat);
      metrics.Set("rpcs", client.rpcs_issued());
      row.Set("metrics", std::move(metrics));
      rows.Push(std::move(row));
    };
    for (uint64_t scan : scans) {
      if (scan > head) continue;
      uint64_t from = head - scan;
      client.StartQ1(from, head);
      double lat = workloads::RunAnalyticsQuery(&sim, &client);
      std::printf("%-12s %-4s %10llu | %12.3f %10llu %14lld\n", pname, "Q1",
                  (unsigned long long)scan, lat,
                  (unsigned long long)client.rpcs_issued(),
                  (long long)client.result());
      record("Q1", scan, lat);
    }
    for (uint64_t scan : scans) {
      if (scan > head) continue;
      uint64_t from = head - scan;
      client.StartQ2(workloads::AnalyticsHotAccount(), from, head,
                     chaincode_q2);
      double lat = workloads::RunAnalyticsQuery(&sim, &client);
      std::printf("%-12s %-4s %10llu | %12.3f %10llu %14lld\n", pname, "Q2",
                  (unsigned long long)scan, lat,
                  (unsigned long long)client.rpcs_issued(),
                  (long long)client.result());
      record("Q2", scan, lat);
    }
  }

  if (!WriteSweepRows("fig13_analytics", args, std::move(rows))) return 1;
  return 0;
}
