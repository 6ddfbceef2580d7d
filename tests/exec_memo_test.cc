// Execution memo tests. Every replica of a platform applies every
// committed block; the first replica to apply a block from a given
// pre-state root executes it and the others take its recorded outputs
// (platform/exec_memo.h). Taking an entry must leave every node's
// exported metrics and memory dump exactly as executing would have, so
// the first test pins both from a build that executed on every replica.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>

#include "core/driver.h"
#include "obs/memtrack.h"
#include "obs/metrics.h"
#include "platform/platform.h"
#include "platform/registry.h"
#include "util/sha256.h"
#include "workloads/smallbank.h"
#include "workloads/ycsb.h"

namespace bb {
namespace {

struct Scenario {
  const char* platform;
  const char* workload;  // "ycsb" or "smallbank"
  /// Optional fault schedule, given the platform before the run starts.
  std::function<void(sim::Simulation*, platform::Platform*)> faults;
  /// Optional change to the registry's options.
  std::function<void(platform::PlatformOptions*)> tune = nullptr;
  /// Smallbank's opening balance. A zero one lets balances, and so the
  /// stored values, grow as the run goes.
  int64_t smallbank_balance = 100'000;
};

struct Digests {
  std::string metrics;
  std::string mem;
  /// State commits the servers' stores refused, summed.
  uint64_t commit_failures = 0;
};

std::string HexDigest(const std::string& bytes) {
  return Sha256::Digest(Slice(bytes)).ToHex();
}

Digests RunScenario(const Scenario& sc) {
  auto opts = platform::PlatformRegistry::Instance().Make(sc.platform);
  EXPECT_TRUE(opts.ok()) << sc.platform;
  if (!opts.ok()) return {};
  if (sc.tune) sc.tune(&*opts);
  sim::Simulation sim(7);
  obs::MemTracker mt;
  sim.set_memtracker(&mt);
  platform::Platform p(&sim, *opts, 4);
  std::unique_ptr<core::WorkloadConnector> wl;
  if (std::string(sc.workload) == "smallbank") {
    workloads::SmallbankConfig cfg;
    cfg.num_accounts = 300;
    cfg.initial_balance = sc.smallbank_balance;
    wl = std::make_unique<workloads::SmallbankWorkload>(cfg);
  } else {
    workloads::YcsbConfig cfg;
    cfg.record_count = 300;
    wl = std::make_unique<workloads::YcsbWorkload>(cfg);
  }
  EXPECT_TRUE(wl->Setup(&p).ok()) << sc.platform;
  core::DriverConfig dc;
  dc.num_clients = 3;
  dc.request_rate = 15;
  dc.duration = 30;
  dc.drain = 15;
  dc.seed = 11;
  core::Driver d(&p, wl.get(), dc);
  if (sc.faults) sc.faults(&sim, &p);
  d.Run();
  EXPECT_GT(d.stats().total_committed(), 0u) << sc.platform;

  obs::MetricsRegistry reg;
  p.ExportMetrics(&reg);
  Digests out{HexDigest(reg.ToJson().Dump()), HexDigest(mt.ToJson().Dump())};
  for (size_t i = 0; i < p.num_servers(); ++i) {
    out.commit_failures += p.node(i).state_commit_failures();
  }
  return out;
}

struct PinnedDigests {
  Scenario scenario;
  const char* metrics_hex;
  const char* mem_hex;
  /// The scenario fills a store past its capacity.
  bool refuses_writes = false;
};

// Captured from the build before the execution memo existed, when every
// replica ran every transaction through its own execution layer; the
// two capacity cases from the build before replicas shared trie nodes,
// when every replica committed every block into its own MemKv; the
// bucket capacity case from the build before bucket commits were
// replayed, when every replica hashed every write into its own tree.
// The mem digests were re-captured once since, when nodes stopped
// scheduling a continuation after a handler that leaves the inbox empty:
// that moves only the sim.events alloc/free counts (and the cluster
// totals that sum them), never a metrics digest.
const PinnedDigests kPinned[] = {
    {{"ethereum", "ycsb", nullptr},
     "af3d94e5761c4a7663a4dc560c93218b9a7572dbf89d3d151f75ccaf14380344",
     "cc9f8bf701a367e11775827c0c795ea01449f0156971ad20f9db9f13bcb44c0e"},
    {{"ethereum", "smallbank", nullptr},
     "72322fb3f9f722a41753044fc857b05282d92d828800be9ad0fed190e4208d44",
     "efed957f0c389504c18ddfe485ec323915c550446d1241b43655f903f5b4f786"},
    {{"parity", "ycsb", nullptr},
     "15bca50485aad5ba70b06dbd342be063c5c502d2d238ed2c2b56ad14c7b77604",
     "3dd3ceeff250542c5800ac7e66a54afdab9a77f20cd7fc9d2b0cf1c2145f3ff1"},
    {{"parity", "smallbank", nullptr},
     "ef38928189d61d7dcdef00b0bc1065fb94f1a909f9ba434755a727b46eaca682",
     "90c040915162390a273e6fb8147e539f9ba33ca3abef77466a28003e833bbcf9"},
    {{"hyperledger", "ycsb", nullptr},
     "705729540533012041c2ecaf47646b114f6b570d1feb75403679f804e258ac4f",
     "26a0174808c28ef05043181557b5ce9d06b05b1ada5b532c0c380eabeed9cfd2"},
    {{"hyperledger", "smallbank", nullptr},
     "ead8b71c4c18642fe1f56c9298bcd8af9d22e96fc9ccd85a54c949a127d8caab",
     "ff88833ca6784a4b5dd583b534adfc750770993235e6e1074e351fd4b5c1c6d3"},
    {{"erisdb", "ycsb", nullptr},
     "460c52ca2fc838a883029b2ecc1e66c1c029f2ae10942f5ad7fa0445d7e64fc5",
     "b497c7f9d9c28e8ac15e6f0fdda12477d45c0b37bf1a30233907acf94382aae8"},
    {{"erisdb", "smallbank", nullptr},
     "f5d81b2dc6868e8e5a23b8916c1b05ac455166657c1851cd0f6a1a5b337de7de",
     "99540b742142aeff56f55c7fc7f405640cea6851ed999c3a6d741132cfded3bd"},
    {{"corda", "ycsb", nullptr},
     "55f507d7dd3d594c704be9d26eccc9fc699209ed26bc3fe8d76a167111fe1b8d",
     "2e2d94e374a41681832b7cf6caabd5be2a9ab4ad9bbae215493a9ebb11706c7c"},
    {{"corda", "smallbank", nullptr},
     "b4cc111ee62a2de8fc08aeb1b422a26538ba913b2ac0b9e898f79ba008b5d3fc",
     "c47eaa0bda835053e3f3526f5d81b2a49ecba9660b76d3a0f458e312d7ef880d"},
    // Server 0 (the PBFT primary) is down from t=10 to t=20 and catches
    // up by block sync.
    {{"hyperledger", "smallbank",
      [](sim::Simulation* sim, platform::Platform* p) {
        sim->At(10, [p] { p->network().Crash(0); });
        sim->At(20, [p] { p->network().Restart(0); });
      }},
     "f25b8af5b80a2b3518d9d7f02a492348f5176a683de6f854b37565d0bd18c377",
     "0257c95eed80a12357e1e6291b0684a614e7b95de904d7c6eb328b274e3f4451"},
    // Two PoW halves mine separate branches from t=8 to t=25.
    {{"ethereum", "ycsb",
      [](sim::Simulation* sim, platform::Platform* p) {
        sim->At(8, [p] { p->network().Partition({0, 1}); });
        sim->At(25, [p] { p->network().HealPartition(); });
      }},
     "60faa9f0d871b589847c227f7288ded6246311e5ec7a379fc52e87c402dacbe0",
     "9a3833a3f215b268248bca36048ecdddcddc0510daed9e0a80aa7398f5245dc2"},
    // Parity's in-memory store holds the 0.42 MB genesis trie but fills
    // up mid-run, so later blocks' state commits are refused.
    {{"parity", "ycsb", nullptr,
      [](platform::PlatformOptions* o) { o->state_mem_capacity = 900'000; }},
     "c51a0d2eb942b075d896b77acd67470f494531a1375f8afee3402a0b5c24485b",
     "2e5b8d6c4c17d92aa9e4c257fa19be62581d2cb16484badeff81f3c3b22ce7e0",
     true},
    // The same with a tighter store and a partition: the replicas' stores
    // diverge, so a replica at the recorder's root can lack the room for
    // a commit the recorder made, and must refuse the same write.
    {{"parity", "ycsb",
      [](sim::Simulation* sim, platform::Platform* p) {
        sim->At(8, [p] { p->network().Partition({0, 1}); });
        sim->At(25, [p] { p->network().HealPartition(); });
      },
      [](platform::PlatformOptions* o) { o->state_mem_capacity = 800'000; }},
     "6ab76d2da7dcdc28753c0d76c262d2ec34e6d2475d4d96a37737d4e9e77386de",
     "93b2109e4c5707b3b3770a2cd3e7b0c5af3f4d0879a121c07e6e072fbe527654",
     true},
    // Hyperledger's flat store holds the zero-balance genesis, but the
    // balances grow until commits are refused part-way: the writes
    // before the refused one stay in the bucket tree.
    {{"hyperledger", "smallbank", nullptr,
      [](platform::PlatformOptions* o) { o->state_mem_capacity = 70'300; },
      0},
     "da359c2e63fc0f9a87d2cdf0ee3604d760909f8014452699844e53fe801c5f82",
     "68916f2c5f571c2eda6dea79825b23cd08c4d7c3cfdc5731da80aac00ae17802",
     true},
};

TEST(NodeMetricsPinTest, EveryNodeMetricsAndMemDumpMatchPinned) {
  for (const PinnedDigests& pin : kPinned) {
    std::string tag = std::string(pin.scenario.platform) + "/" +
                      pin.scenario.workload +
                      (pin.scenario.faults ? "+faults" : "") +
                      (pin.scenario.tune ? "+tuned" : "");
    Digests got = RunScenario(pin.scenario);
    EXPECT_EQ(got.metrics, pin.metrics_hex) << tag << " metrics";
    EXPECT_EQ(got.mem, pin.mem_hex) << tag << " mem dump";
    EXPECT_EQ(got.commit_failures > 0, pin.refuses_writes) << tag;
  }
}

// --- Hit and miss rules ------------------------------------------------------

struct MemoRun {
  std::unique_ptr<sim::Simulation> sim;
  std::unique_ptr<platform::Platform> platform;
  std::unique_ptr<workloads::YcsbWorkload> workload;
  std::unique_ptr<core::Driver> driver;

  MemoRun(const char* name, size_t servers, double duration) {
    auto opts = platform::PlatformRegistry::Instance().Make(name);
    EXPECT_TRUE(opts.ok()) << name;
    sim = std::make_unique<sim::Simulation>(5);
    platform = std::make_unique<platform::Platform>(sim.get(), *opts, servers);
    workloads::YcsbConfig yc;
    yc.record_count = 200;
    workload = std::make_unique<workloads::YcsbWorkload>(yc);
    EXPECT_TRUE(workload->Setup(platform.get()).ok());
    core::DriverConfig dc;
    dc.num_clients = 2;
    dc.request_rate = 15;
    dc.duration = duration;
    dc.drain = 30;
    driver = std::make_unique<core::Driver>(platform.get(), workload.get(), dc);
  }

  uint64_t hits() const {
    uint64_t n = 0;
    for (size_t i = 0; i < platform->num_servers(); ++i) {
      n += platform->node(i).exec_memo_hits();
    }
    return n;
  }
  uint64_t misses() const {
    uint64_t n = 0;
    for (size_t i = 0; i < platform->num_servers(); ++i) {
      n += platform->node(i).exec_memo_misses();
    }
    return n;
  }
  /// Every server ends on the same head with the same state root.
  void ExpectConverged() const {
    platform::PlatformNode& first = platform->node(0);
    for (size_t i = 1; i < platform->num_servers(); ++i) {
      platform::PlatformNode& n = platform->node(i);
      EXPECT_EQ(n.chain().head(), first.chain().head()) << "node " << i;
      EXPECT_EQ(n.state().current_root(), first.state().current_root())
          << "node " << i;
    }
  }
};

TEST(ExecMemoTest, PbftReplicasTakeEveryBlockOnce) {
  MemoRun r("hyperledger", 4, 30);
  r.driver->Run();
  r.ExpectConverged();
  uint64_t blocks = r.platform->node(0).chain().head_height();
  ASSERT_GT(blocks, 0u);
  // Each block runs through one execution layer; the other three
  // replicas take it, and nothing is left behind.
  EXPECT_EQ(r.misses(), blocks);
  EXPECT_EQ(r.hits(), 3 * blocks);
  EXPECT_EQ(r.platform->exec_memo().size(), 0u);
  // Counts are of transactions applied, executed or taken.
  for (size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(r.platform->node(i).txs_executed(),
              r.platform->node(0).txs_executed());
  }
}

TEST(ExecMemoTest, PartitionedPowMinoritiesExecuteTheirOwnBranch) {
  MemoRun r("ethereum", 5, 60);
  r.sim->At(10, [&r] { r.platform->network().Partition({0, 1}); });
  r.sim->At(40, [&r] { r.platform->network().HealPartition(); });
  r.driver->Run();
  r.ExpectConverged();
  uint64_t orphans = r.platform->node(0).chain().orphaned_blocks();
  ASSERT_GT(orphans, 0u) << "the partition must fork the chain";
  // Blocks of the losing branch executed on their own, so more blocks
  // ran through an execution layer than the winning chain holds.
  EXPECT_GT(r.misses(), r.platform->node(0).chain().head_height());
  EXPECT_GT(r.platform->node(0).exec_memo_misses() +
                r.platform->node(1).exec_memo_misses(),
            0u);
  EXPECT_EQ(r.platform->exec_memo().size(), 0u);
}

TEST(ExecMemoTest, RestartedServerTakesEntriesWhileCatchingUp) {
  // Server 0, the view-0 primary, is down from t=15 to t=60; the others
  // change view and carry on without it.
  MemoRun r("hyperledger", 4, 80);
  uint64_t hits_at_restart = 0, behind_at_restart = 0;
  r.sim->At(15, [&r] { r.platform->network().Crash(0); });
  r.sim->At(60, [&] {
    platform::PlatformNode& n0 = r.platform->node(0);
    hits_at_restart = n0.exec_memo_hits();
    behind_at_restart =
        r.platform->node(1).chain().head_height() - n0.chain().head_height();
    EXPECT_GT(r.platform->exec_memo().size(), 0u)
        << "entries wait for the crashed server";
    r.platform->network().Restart(0);
  });
  r.driver->Run();
  r.ExpectConverged();
  ASSERT_GT(behind_at_restart, 0u);
  EXPECT_GE(r.platform->node(0).exec_memo_hits() - hits_at_restart,
            behind_at_restart);
  EXPECT_EQ(r.platform->exec_memo().size(), 0u);
}

TEST(ExecMemoTest, SingleServerRecordsNothing) {
  MemoRun r("parity", 1, 20);
  r.driver->Run();
  EXPECT_GT(r.driver->stats().total_committed(), 0u);
  EXPECT_GT(r.platform->node(0).txs_executed(), 0u);
  EXPECT_EQ(r.hits() + r.misses(), 0u);
  EXPECT_EQ(r.platform->exec_memo().size(), 0u);
}

}  // namespace
}  // namespace bb
