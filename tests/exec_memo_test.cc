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
// totals that sum them), never a metrics digest. They were re-captured
// again when a dump without a committed count (this test sets none)
// began writing bytes_per_committed_tx as null instead of 0: each old
// digest is the digest of the new dump with that one value put back.
const PinnedDigests kPinned[] = {
    {{"ethereum", "ycsb", nullptr},
     "af3d94e5761c4a7663a4dc560c93218b9a7572dbf89d3d151f75ccaf14380344",
     "9a19694b16a66119b011ed3050ded2ec4a0bb90a0f66c48936f0c4d9321eb140"},
    {{"ethereum", "smallbank", nullptr},
     "72322fb3f9f722a41753044fc857b05282d92d828800be9ad0fed190e4208d44",
     "776874814c8ef7956cf95cd34ee257ed91b22c5cb10fc8d43ed646a751e025ef"},
    {{"parity", "ycsb", nullptr},
     "15bca50485aad5ba70b06dbd342be063c5c502d2d238ed2c2b56ad14c7b77604",
     "9e675ef067067fc62a15a4d74b6703d4b7ae8027f9399c4ed7261fd3a4722006"},
    {{"parity", "smallbank", nullptr},
     "ef38928189d61d7dcdef00b0bc1065fb94f1a909f9ba434755a727b46eaca682",
     "5cb61a66c44e0b74b3f2c23cea70bfbad911896fe5adec9ced4a1dcbcf258aaf"},
    {{"hyperledger", "ycsb", nullptr},
     "705729540533012041c2ecaf47646b114f6b570d1feb75403679f804e258ac4f",
     "678206f91cf635e5d12ea122479e46016f323d0a6acfcda8c8ad2f3e15705c9a"},
    {{"hyperledger", "smallbank", nullptr},
     "ead8b71c4c18642fe1f56c9298bcd8af9d22e96fc9ccd85a54c949a127d8caab",
     "804b899a6e4e6f5adf5e0f461091c951d8b9669f0709ccb46bd4b0d1c0c6542d"},
    {{"erisdb", "ycsb", nullptr},
     "460c52ca2fc838a883029b2ecc1e66c1c029f2ae10942f5ad7fa0445d7e64fc5",
     "4d5ad751fd09c07d49a93a4a105de01283e016ab17bb22ca3818a71d31e0c00f"},
    {{"erisdb", "smallbank", nullptr},
     "f5d81b2dc6868e8e5a23b8916c1b05ac455166657c1851cd0f6a1a5b337de7de",
     "42f62856c0856cc008f35b884a4a7452489a804efe5f4f119b9659b280463137"},
    {{"corda", "ycsb", nullptr},
     "55f507d7dd3d594c704be9d26eccc9fc699209ed26bc3fe8d76a167111fe1b8d",
     "f086008dbbe8aabeb8ebfe0fc33c090ab40f2759ab01965529f4eb7926404431"},
    {{"corda", "smallbank", nullptr},
     "b4cc111ee62a2de8fc08aeb1b422a26538ba913b2ac0b9e898f79ba008b5d3fc",
     "9b37d7983546f32f2f78efe963fd4db1d525477bbeeef4b106b6d0db65ab95d4"},
    // Server 0 (the PBFT primary) is down from t=10 to t=20 and catches
    // up by block sync.
    {{"hyperledger", "smallbank",
      [](sim::Simulation* sim, platform::Platform* p) {
        sim->At(10, [p] { p->network().Crash(0); });
        sim->At(20, [p] { p->network().Restart(0); });
      }},
     "f25b8af5b80a2b3518d9d7f02a492348f5176a683de6f854b37565d0bd18c377",
     "a04904a703d18fb3f36a10958a84d5f0d1b5e5b85b080173a199b40fce567593"},
    // Two PoW halves mine separate branches from t=8 to t=25.
    {{"ethereum", "ycsb",
      [](sim::Simulation* sim, platform::Platform* p) {
        sim->At(8, [p] { p->network().Partition({0, 1}); });
        sim->At(25, [p] { p->network().HealPartition(); });
      }},
     "60faa9f0d871b589847c227f7288ded6246311e5ec7a379fc52e87c402dacbe0",
     "172d428f13920b695e2ccf6f937a2da041952c883279353fc547307ac4e0eca6"},
    // Parity's in-memory store holds the 0.42 MB genesis trie but fills
    // up mid-run, so later blocks' state commits are refused.
    {{"parity", "ycsb", nullptr,
      [](platform::PlatformOptions* o) { o->state_mem_capacity = 900'000; }},
     "c51a0d2eb942b075d896b77acd67470f494531a1375f8afee3402a0b5c24485b",
     "7cc583ca50411a4b0840e015b8274c21e3b533fd2b7237afee5a6eaf1c465ca7",
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
     "fec38513efda0acd9d89527918df26ea3c33857fcefd5d53dcee868150cb71c9",
     true},
    // Hyperledger's flat store holds the zero-balance genesis, but the
    // balances grow until commits are refused part-way: the writes
    // before the refused one stay in the bucket tree.
    {{"hyperledger", "smallbank", nullptr,
      [](platform::PlatformOptions* o) { o->state_mem_capacity = 70'300; },
      0},
     "da359c2e63fc0f9a87d2cdf0ee3604d760909f8014452699844e53fe801c5f82",
     "dfd202ed66eda6a1422e991c611e04e389dcb7ebb5be9be1a0f6c028e89df79a",
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
