// Ablation (paper §5, "Bringing database designs into blockchain"):
// sharding. The paper argues partitioning the blockchain H-Store-style
// could recover throughput, with cross-shard consistency as the open
// problem. This bench measures the coordination-free upper bound the
// argument rests on: K independent PBFT shards of fixed size, disjoint
// key ranges, single-shard transactions only — aggregate throughput
// should scale ~K x while per-shard latency stays flat, in contrast to
// Fig 7 where growing ONE consensus group of the same total size
// collapses.

#include "common.h"
#include "workloads/ycsb.h"

using namespace bb;
using namespace bb::bench;

namespace {

struct ShardResult {
  Status status = Status::Ok();
  double total_tput = 0;
  double lat_p50 = 0;
};

ShardResult RunSharded(const platform::PlatformOptions& options, size_t shards,
                       double duration) {
  const size_t kShardSize = 4;  // servers per shard
  const size_t kClientsPerShard = 4;
  const double kRate = 120;  // near one shard's saturation

  // All shards share one virtual clock; each is its own network,
  // consensus group and state — the paper's partitioned design.
  sim::Simulation sim(9);
  std::vector<std::unique_ptr<platform::Platform>> platforms;
  std::vector<std::unique_ptr<workloads::YcsbWorkload>> wls;
  std::vector<std::unique_ptr<core::Driver>> drivers;

  ShardResult res;
  for (size_t s = 0; s < shards; ++s) {
    platforms.push_back(std::make_unique<platform::Platform>(
        &sim, options, kShardSize, 100 + s));
    workloads::YcsbConfig yc;
    yc.record_count = 2000;  // disjoint per shard by construction
    wls.push_back(std::make_unique<workloads::YcsbWorkload>(yc));
    Status st = wls.back()->Setup(platforms.back().get());
    if (!st.ok()) {
      res.status = Status::Internal("shard setup failed: " + st.ToString());
      return res;
    }
    core::DriverConfig dc;
    dc.num_clients = kClientsPerShard;
    dc.request_rate = kRate;
    dc.duration = duration;
    dc.drain = 20;
    dc.warmup = 10;
    dc.seed = 7 + s;
    drivers.push_back(std::make_unique<core::Driver>(
        platforms.back().get(), wls.back().get(), dc));
  }
  for (auto& d : drivers) d->StartAll();
  sim.RunUntil(duration + 20);

  for (auto& d : drivers) {
    auto r = d->Report();
    res.total_tput += r.throughput;
    res.lat_p50 = std::max(res.lat_p50, r.latency_p50);
  }
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args = ParseBenchArgs(argc, argv);
  double duration = args.full ? 180 : 80;
  const size_t kShardSize = 4;
  std::vector<size_t> shard_counts = {1, 2, 4, 8};

  auto opts = platform::StackOptionsFromString("hyperledger");
  if (!opts.ok()) return UsageError(argv[0], opts.status());

  // Each shard-count point owns its Simulation, so the points fan out
  // across the pool like any other sweep.
  workloads::RegisterAllChaincodes();
  std::vector<ShardResult> results(shard_counts.size());
  size_t jobs = std::min(args.EffectiveJobs(), shard_counts.size());
  if (jobs <= 1) {
    for (size_t i = 0; i < shard_counts.size(); ++i) {
      results[i] = RunSharded(*opts, shard_counts[i], duration);
    }
  } else {
    util::ThreadPool pool(jobs);
    for (size_t i = 0; i < shard_counts.size(); ++i) {
      pool.Submit([&, i] {
        results[i] = RunSharded(*opts, shard_counts[i], duration);
      });
    }
    pool.Wait();
  }

  PrintHeader("Ablation: sharded PBFT — K independent 4-node shards, "
              "single-shard transactions");
  std::printf("%8s %8s | %16s %14s %12s\n", "shards", "servers",
              "total tput tx/s", "per-shard tx/s", "lat p50 (s)");
  bool ok = true;
  util::Json rows = util::Json::Array();
  for (size_t i = 0; i < shard_counts.size(); ++i) {
    size_t shards = shard_counts[i];
    const ShardResult& r = results[i];
    if (!r.status.ok()) {
      std::fprintf(stderr, "%s: shards=%zu: %s\n", argv[0], shards,
                   r.status.ToString().c_str());
      ok = false;
      continue;
    }
    std::printf("%8zu %8zu | %16.1f %14.1f %12.2f\n", shards,
                shards * kShardSize, r.total_tput,
                r.total_tput / double(shards), r.lat_p50);
    util::Json row = util::Json::Object();
    util::Json labels = util::Json::Object();
    labels.Set("shards", std::to_string(shards));
    row.Set("labels", std::move(labels));
    row.Set("status", "Ok");
    util::Json metrics = util::Json::Object();
    metrics.Set("total_throughput", r.total_tput);
    metrics.Set("per_shard_throughput", r.total_tput / double(shards));
    metrics.Set("latency_p50", r.lat_p50);
    row.Set("metrics", std::move(metrics));
    rows.Push(std::move(row));
  }
  std::printf(
      "\nCompare Fig 7: one 32-node PBFT group collapses, while 8 shards\n"
      "x 4 nodes scale aggregate throughput ~linearly. The open problem\n"
      "the paper names — Byzantine-tolerant cross-shard transactions —\n"
      "is exactly what this upper bound excludes.\n");

  if (!args.json_path.empty()) {
    util::Json doc = util::Json::Object();
    doc.Set("schema", "blockbench-sweep-v1");
    doc.Set("bench", "ablation_sharding");
    doc.Set("full", args.full);
    doc.Set("jobs", jobs);
    doc.Set("rows", std::move(rows));
    if (!WriteJsonFile("ablation_sharding", doc, args.json_path)) return 1;
  }
  return ok ? 0 : 1;
}
