// Figure 14 (Appendix B): the three blockchains versus H-Store on YCSB
// and Smallbank.
//
// Paper: H-Store reaches 142,702 tx/s (YCSB) and 21,596 tx/s (Smallbank,
// 6.6x lower due to distributed 2PC) with sub-millisecond latency, at
// least an order of magnitude above Hyperledger — the cost of Byzantine
// consensus. The blockchains, by contrast, lose only ~10% on Smallbank
// because every replica holds all state (no distributed transactions).

#include "baseline/hstore.h"
#include "common.h"

using namespace bb;
using namespace bb::bench;

namespace {

// YCSB over H-Store: single-key ops -> always single-partition.
baseline::HsTransaction YcsbTxn(Rng& rng) {
  baseline::HsTransaction t;
  baseline::KvOp op;
  op.is_write = rng.Bernoulli(0.5);
  op.key = "user" + std::to_string(rng.Uniform(100000));
  if (op.is_write) op.value = std::string(100, 'v');
  t.ops.push_back(std::move(op));
  return t;
}

// Smallbank over H-Store: multi-key transactions -> frequently 2PC.
baseline::HsTransaction SmallbankTxn(Rng& rng) {
  baseline::HsTransaction t;
  std::string a = "acct" + std::to_string(rng.Uniform(100000));
  std::string b = "acct" + std::to_string(rng.Uniform(100000));
  auto read = [](const std::string& k) {
    return baseline::KvOp{false, k, ""};
  };
  auto write = [](const std::string& k) {
    return baseline::KvOp{true, k, "100"};
  };
  double p = rng.NextDouble();
  if (p < 0.25) {  // sendPayment: two accounts
    t.ops = {read("c_" + a), write("c_" + a), read("c_" + b),
             write("c_" + b)};
  } else if (p < 0.40) {  // amalgamate: two accounts, three keys
    t.ops = {read("s_" + a), write("s_" + a), read("c_" + a),
             write("c_" + a), write("c_" + b)};
  } else if (p < 0.55) {  // getBalance
    t.ops = {read("s_" + a), read("c_" + a)};
  } else {  // single-account updates
    t.ops = {read("c_" + a), write("c_" + a)};
  }
  return t;
}

// Runs once saturated (throughput) and once at partial load (latency),
// like the paper's open-loop vs blocking driver modes.
double RunHStore(bool smallbank, double per_client_rate, double duration) {
  sim::Simulation sim(3);
  baseline::HStoreOptions opts;
  baseline::HStoreCluster cluster(&sim, opts);
  core::StatsCollector stats(8);
  std::vector<std::unique_ptr<baseline::HStoreClient>> clients;
  for (uint32_t i = 0; i < 8; ++i) {
    clients.push_back(std::make_unique<baseline::HStoreClient>(
        sim::NodeId(opts.num_sites + i), &cluster, i,
        smallbank ? SmallbankTxn : YcsbTxn, &stats, per_client_rate, duration,
        1000 + i));
  }
  for (auto& c : clients) c->Start();
  sim.RunUntil(duration + 5);
  return stats.Throughput(2, duration);
}

void ReportHStore(bool smallbank, double sat_rate, double duration,
                  double* tput_out) {
  double tput = RunHStore(smallbank, sat_rate, duration);
  // Latency at 40% load, where queueing is negligible (the paper's
  // blocking driver sees service latency, not queueing delay).
  sim::Simulation sim(4);
  baseline::HStoreOptions opts;
  baseline::HStoreCluster cluster(&sim, opts);
  core::StatsCollector stats(8);
  std::vector<std::unique_ptr<baseline::HStoreClient>> clients;
  for (uint32_t i = 0; i < 8; ++i) {
    clients.push_back(std::make_unique<baseline::HStoreClient>(
        sim::NodeId(opts.num_sites + i), &cluster, i,
        smallbank ? SmallbankTxn : YcsbTxn, &stats, tput * 0.4 / 8, duration,
        2000 + i));
  }
  for (auto& c : clients) c->Start();
  sim.RunUntil(duration + 5);
  std::printf("  %-10s H-Store: %10.0f tx/s peak, latency mean %.3f ms "
              "(p95 %.3f ms)\n",
              smallbank ? "Smallbank" : "YCSB", tput,
              stats.latencies().Mean() * 1e3,
              stats.latencies().Percentile(95) * 1e3);
  *tput_out = tput;
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args = ParseBenchArgs(argc, argv);
  double duration = args.full ? 60 : 20;

  PrintHeader("Figure 14: blockchains vs H-Store "
              "(paper: H-Store 142,702 / 21,596 tx/s)");
  double hs_ycsb = 0, hs_sb = 0;
  ReportHStore(false, 40'000, duration, &hs_ycsb);
  ReportHStore(true, 10'000, duration, &hs_sb);

  std::printf("\n");
  double chain_duration = args.full ? 180 : 70;
  double sat_rate[3] = {256, 64, 384};

  SweepRunner runner("fig14_hstore", args);
  struct Row {
    int pi;
    int wi;
  };
  std::vector<Row> rows;
  for (int pi = 0; pi < 3; ++pi) {
    for (int wi = 0; wi < 2; ++wi) {
      const char* w = wi == 0 ? "ycsb" : "smallbank";
      obs::RunSpec spec = BaseSpec(kPlatforms[pi]);
      spec.rate = sat_rate[pi];
      spec.duration = chain_duration;
      spec.workload = w;
      runner.Add(std::move(spec), {{"platform", kPlatforms[pi]},
                                   {"workload", WorkloadLabel(w)}});
      rows.push_back({pi, wi});
    }
  }

  double tput[3][2] = {};
  bool ok = runner.Run([&](size_t i, const SweepOutcome& o) {
    if (!o.status.ok()) return;
    tput[rows[i].pi][rows[i].wi] = o.report.throughput;
  });

  std::printf("%-12s | %12s %12s\n", "system", "YCSB tx/s", "Smallbank tx/s");
  for (int pi = 0; pi < 3; ++pi) {
    std::printf("%-12s | %12.1f %12.1f\n", kPlatforms[pi], tput[pi][0],
                tput[pi][1]);
  }
  std::printf("%-12s | %12.0f %12.0f\n", "h-store", hs_ycsb, hs_sb);
  return ok ? 0 : 1;
}
