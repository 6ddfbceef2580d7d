// MemTracker invariants: high-water marks under interleaved churn,
// virtual-time peak stamps, dump validation (tampered documents must be
// rejected, not rendered), byte-identical full dumps regardless of
// sweep parallelism, and dumps an attached tracer or recorder leaves
// alone.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench/common.h"
#include "obs/memtrack.h"
#include "obs/recorder.h"
#include "obs/trace.h"
#include "sim/simulation.h"
#include "util/json.h"

namespace bb::obs {
namespace {

TEST(MemTracker, HighWaterMarkUnderInterleavedChurn) {
  MemTracker mt;
  mt.Track(0, mem::kPoolSlots, 100);
  mt.Track(0, mem::kPoolSlots, 50);    // current 150 — the HWM
  mt.Untrack(0, mem::kPoolSlots, 120);
  mt.Track(0, mem::kPoolSlots, 60);    // current 90, below the old peak

  MemTracker::Counter c = mt.counter(0, mem::kPoolSlots);
  EXPECT_EQ(c.current, 90u);
  EXPECT_EQ(c.peak, 150u);
  EXPECT_EQ(c.allocs, 3u);
  EXPECT_EQ(c.frees, 1u);
}

TEST(MemTracker, ClusterPeakIsConcurrentNotSumOfNodePeaks) {
  // Touch both nodes first so the tracker's own obs.self charge (the
  // nodes_ slab, accounted to the global owner) is folded into the
  // baseline and the assertions below measure pure workload bytes.
  MemTracker mt;
  mt.Track(0, mem::kConsensus, 0, 0);
  mt.Track(1, mem::kConsensus, 0, 0);
  uint64_t base = mt.cluster().peak;

  // Node 0 peaks at 100 and releases before node 1 allocates: the two
  // HWMs never overlap in time, so the cluster HWM grows by 100, not 200.
  mt.Track(0, mem::kConsensus, 100);
  mt.Untrack(0, mem::kConsensus, 100);
  mt.Track(1, mem::kConsensus, 100);
  EXPECT_EQ(mt.counter(0, mem::kConsensus).peak, 100u);
  EXPECT_EQ(mt.counter(1, mem::kConsensus).peak, 100u);
  EXPECT_EQ(mt.cluster().peak, base + 100);

  // Overlapping allocations do add: node 0 comes back while node 1
  // still holds its bytes.
  mt.Track(0, mem::kConsensus, 50);
  EXPECT_EQ(mt.cluster().peak, base + 150);
}

TEST(MemTracker, PeakAtStampsFirstReachInVirtualTime) {
  sim::Simulation sim;
  MemTracker mt;
  mt.BindSim(&sim);
  sim.At(1.0, [&] { mt.Track(0, mem::kNetInflight, 40); });
  sim.At(2.0, [&] { mt.Untrack(0, mem::kNetInflight, 40); });
  // Re-reaching exactly the old HWM must not restamp it.
  sim.At(3.0, [&] { mt.Track(0, mem::kNetInflight, 40); });
  sim.At(4.0, [&] { mt.Track(0, mem::kNetInflight, 10); });
  sim.RunToCompletion();

  MemTracker::Counter c = mt.counter(0, mem::kNetInflight);
  EXPECT_EQ(c.peak, 50u);
  EXPECT_DOUBLE_EQ(c.peak_at, 4.0);
  EXPECT_DOUBLE_EQ(mt.cluster().peak_at, 4.0);

  // The 40-byte plateau was first reached at t=1, not at the t=3 rerun.
  sim::Simulation sim2;
  MemTracker mt2;
  mt2.BindSim(&sim2);
  sim2.At(1.0, [&] { mt2.Track(0, mem::kNetInflight, 40); });
  sim2.At(2.0, [&] { mt2.Untrack(0, mem::kNetInflight, 40); });
  sim2.At(3.0, [&] { mt2.Track(0, mem::kNetInflight, 40); });
  sim2.RunToCompletion();
  EXPECT_DOUBLE_EQ(mt2.counter(0, mem::kNetInflight).peak_at, 1.0);
}

TEST(MemTracker, SetChargesDeltasAgainstTheGauge) {
  MemTracker mt;
  mt.Set(2, mem::kStorageState, 500);
  mt.Set(2, mem::kStorageState, 200);  // shrink: one free of 300
  mt.Set(2, mem::kStorageState, 650);  // grow: one alloc of 450

  MemTracker::Counter c = mt.counter(2, mem::kStorageState);
  EXPECT_EQ(c.current, 650u);
  EXPECT_EQ(c.peak, 650u);
  EXPECT_EQ(c.allocs, 2u);
  EXPECT_EQ(c.frees, 1u);
}

TEST(MemTracker, UnboundGaugeIsANoop) {
  mem::Gauge gauge;  // default: no tracker attached
  EXPECT_FALSE(bool(gauge));
  gauge.Set(12345);  // must not crash, must not account anywhere
}

// Builds a small but fully populated tracker: two nodes plus the global
// owner, churn in several subsystems, so every validator cross-check has
// non-trivial numbers to chew on.
util::Json SampleDump() {
  MemTracker mt;
  mt.Track(MemTracker::kGlobalNode, mem::kSimEvents, 4096, 64);
  mt.Track(0, mem::kPoolSlots, 1000, 10);
  mt.Track(0, mem::kConsensus, 800);
  mt.Untrack(0, mem::kPoolSlots, 300, 3);
  mt.Track(1, mem::kPoolSlots, 900, 9);
  mt.Track(1, mem::kChainBlocks, 2048, 2);
  mt.Untrack(MemTracker::kGlobalNode, mem::kSimEvents, 1024, 16);
  mt.set_committed(42);
  return mt.ToJson();
}

TEST(MemDump, ValidatorAcceptsARealDump) {
  util::Json dump = SampleDump();
  Status s = ValidateMemDump(dump);
  EXPECT_TRUE(s.ok()) << s.message();
}

// A run that commits nothing has no bytes per committed transaction:
// both exports write null, where 0 would read as the best value, and
// the dump still validates and renders.
TEST(MemDump, NothingCommittedWritesNullBytesPerTx) {
  MemTracker mt;
  mt.Track(0, mem::kPoolSlots, 1000, 10);
  util::Json dump = mt.ToJson();
  ASSERT_NE(dump.Get("bytes_per_committed_tx"), nullptr);
  EXPECT_TRUE(dump.Get("bytes_per_committed_tx")->is_null());
  util::Json sweep = mt.ToSweepJson();
  ASSERT_NE(sweep.Get("bytes_per_committed_tx"), nullptr);
  EXPECT_TRUE(sweep.Get("bytes_per_committed_tx")->is_null());
  Status s = ValidateMemDump(dump);
  EXPECT_TRUE(s.ok()) << s.message();
  EXPECT_EQ(RenderMemAttribution(dump).find("per committed tx"),
            std::string::npos);

  mt.set_committed(4);
  EXPECT_EQ(mt.ToJson().Get("bytes_per_committed_tx")->AsDouble(),
            double(mt.cluster().peak) / 4);
  EXPECT_EQ(mt.ToSweepJson().Get("bytes_per_committed_tx")->AsDouble(),
            double(mt.cluster().peak) / 4);
}

TEST(MemDump, ValidatorRejectsWrongSchemaTag) {
  util::Json dump = SampleDump();
  dump.Set("schema", "blockbench-mem-v0");
  EXPECT_FALSE(ValidateMemDump(dump).ok());
}

TEST(MemDump, ValidatorRejectsTamperedSubsystemBytes) {
  util::Json dump = SampleDump();
  // Inflate one subsystem counter on the first node: the node total no
  // longer matches its subsystem column sums.
  const util::Json* nodes = dump.Get("nodes");
  ASSERT_NE(nodes, nullptr);
  util::Json patched_nodes = util::Json::Array();
  for (size_t i = 0; i < nodes->size(); ++i) {
    util::Json node = nodes->items()[i];
    if (i == 0) {
      const util::Json* subsys = node.Get("subsystems");
      ASSERT_NE(subsys, nullptr);
      util::Json patched = util::Json::Array();
      for (size_t s = 0; s < subsys->size(); ++s) {
        util::Json row = subsys->items()[s];
        if (s == 0) {
          row.Set("current", row.Get("current")->AsUint() + 7);
        }
        patched.Push(std::move(row));
      }
      node.Set("subsystems", std::move(patched));
    }
    patched_nodes.Push(std::move(node));
  }
  dump.Set("nodes", std::move(patched_nodes));
  Status s = ValidateMemDump(dump);
  EXPECT_FALSE(s.ok());
}

TEST(MemDump, ValidatorRejectsImpossibleClusterPeak) {
  util::Json dump = SampleDump();
  util::Json cluster = *dump.Get("cluster");
  // A concurrent HWM above the sum of all per-node HWMs cannot happen.
  cluster.Set("peak", uint64_t(1) << 40);
  dump.Set("cluster", std::move(cluster));
  EXPECT_FALSE(ValidateMemDump(dump).ok());
}

TEST(MemDump, ValidatorRejectsCurrentAbovePeak) {
  util::Json dump = SampleDump();
  util::Json cluster = *dump.Get("cluster");
  cluster.Set("current", cluster.Get("peak")->AsUint() + 1);
  dump.Set("cluster", std::move(cluster));
  EXPECT_FALSE(ValidateMemDump(dump).ok());
}

// Full blockbench-mem-v1 dumps from a parallel sweep must be
// byte-identical to the serial ones — each RunStack owns its Simulation
// and MemTracker, so worker scheduling cannot leak into the accounting.
std::vector<std::string> SweepDumps(size_t jobs) {
  bench::BenchArgs args;
  args.jobs = jobs;
  bench::SweepRunner runner("memtrack_test", args);
  runner.EnableMemTracking();
  for (const char* platform : {"parity", "hyperledger"}) {
    RunSpec spec = bench::BaseSpec(platform);
    spec.servers = 4;
    spec.clients = 2;
    spec.rate = 10;
    spec.duration = 10;
    spec.drain = 5;
    spec.ycsb_records = 200;
    runner.Add(std::move(spec), {{"platform", platform}});
  }
  std::vector<std::string> dumps;
  EXPECT_TRUE(runner.Run([](size_t, const bench::SweepOutcome&) {}));
  for (size_t i = 0; i < 2; ++i) {
    const MemTracker* mt = runner.memtracker(i);
    EXPECT_NE(mt, nullptr);
    dumps.push_back(mt != nullptr ? mt->ToJson().Dump(2) : "");
  }
  return dumps;
}

TEST(MemDump, SweepDumpsAreIdenticalAcrossJobs) {
  std::vector<std::string> serial = SweepDumps(1);
  std::vector<std::string> parallel = SweepDumps(8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "case " << i;
    auto parsed = util::Json::Parse(serial[i]);
    ASSERT_TRUE(parsed.ok());
    EXPECT_TRUE(ValidateMemDump(*parsed).ok());
  }
}

/// The mem dump of a 4-server ycsb run of `platform_name` with server 0
/// crashed at t=4, observed by the given sinks (either may be null).
util::Json ObservedMemDump(const char* platform_name, Tracer* tracer,
                           FlightRecorder* recorder) {
  MemTracker mt;
  RunSpec spec = bench::BaseSpec(platform_name);
  spec.servers = 4;
  spec.clients = 2;
  spec.rate = 20;
  spec.duration = 10;
  spec.drain = 5;
  spec.warmup = 2;
  spec.ycsb_records = 200;
  spec.crashes = {{0, 4.0}};
  workloads::RunSinks sinks;
  sinks.tracer = tracer;
  sinks.recorder = recorder;
  sinks.memtracker = &mt;
  auto run = workloads::RunStack::Create(spec, sinks);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  (*run)->Execute();
  return mt.ToJson();
}

/// The dump's subsystem entries, cluster-wide and per node, except
/// obs.self — the footprint an armed recorder legitimately adds.
std::vector<std::string> EntriesBesidesObsSelf(const util::Json& dump) {
  std::vector<std::string> out;
  auto add = [&out](const util::Json& subsystems, const std::string& where) {
    for (const util::Json& e : subsystems.items()) {
      if (e.Get("subsystem")->AsString() == "obs.self") continue;
      out.push_back(where + e.Dump(0));
    }
  };
  add(*dump.Get("subsystems"), "cluster ");
  for (const util::Json& node : dump.Get("nodes")->items()) {
    add(*node.Get("subsystems"),
        "node " + std::to_string(node.Get("node")->AsUint()) + " ");
  }
  return out;
}

// Observation must not change what it observes: with a tracer attached
// the mem dump is byte-identical to the unobserved run's, and with the
// flight recorder armed only obs.self (its rings) may differ.
TEST(MemDump, ObserversChangeNoMeasuredBytes) {
  workloads::RegisterAllChaincodes();
  for (const char* platform :
       {"hyperledger", "ethereum", "parity", "erisdb", "corda"}) {
    util::Json plain = ObservedMemDump(platform, nullptr, nullptr);
    Tracer tracer;
    util::Json traced = ObservedMemDump(platform, &tracer, nullptr);
    EXPECT_GT(tracer.num_events(), 0u);
    EXPECT_EQ(plain.Dump(2), traced.Dump(2)) << platform;
    FlightRecorder recorder;
    util::Json recorded = ObservedMemDump(platform, nullptr, &recorder);
    EXPECT_GT(recorder.recorded(1), 0u);
    EXPECT_EQ(EntriesBesidesObsSelf(plain), EntriesBesidesObsSelf(recorded))
        << platform;
  }
}

}  // namespace
}  // namespace bb::obs
