// Sampler + Auditor tests: tick scheduling and counter-track emission,
// fork-tree reconstruction and invariant checking on synthetic ledger
// views, the golden partitioned 4-node PBFT audit (pinned by digest),
// and audit identity across sweep --jobs values for the partitioned
// Ethereum model (which must realize a double-digit fork share — the
// paper's Fig 10 double-spend window).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "bench/common.h"
#include "obs/auditor.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "platform/forensics.h"
#include "sim/network.h"
#include "sim/simulation.h"
#include "util/sha256.h"

namespace bb::obs {
namespace {

// --- Sampler -----------------------------------------------------------------

TEST(Sampler, TicksGaugesAndTags) {
  sim::Simulation sim(1);
  Sampler sampler(Sampler::Config{1.0, 0.0});
  double x = 0;
  sampler.AddGauge(0, "x", [&x] { return x; });
  sampler.AddTag(0, "state", [&x] { return x > 1 ? "high" : "low"; });
  sim.At(1.5, [&x] { x = 2; });
  sampler.Schedule(&sim, 3.0);
  sim.RunUntil(10.0);

  EXPECT_EQ(sampler.num_ticks(), 3u);  // t = 1, 2, 3
  EXPECT_EQ(sampler.num_gauges(), 1u);
  EXPECT_EQ(sampler.ValueAt(0, "x", 0), 0.0);
  EXPECT_EQ(sampler.ValueAt(0, "x", 1), 2.0);
  EXPECT_EQ(sampler.ValueAt(0, "x", 2), 2.0);
  EXPECT_EQ(sampler.ValueAt(0, "x", 3), -1.0);   // past the end
  EXPECT_EQ(sampler.ValueAt(1, "x", 0), -1.0);   // unknown node
  EXPECT_EQ(sampler.ValueAt(0, "y", 0), -1.0);   // unknown gauge

  util::Json doc = sampler.ToJson();
  ASSERT_NE(doc.Get("ticks"), nullptr);
  EXPECT_EQ(doc.Get("ticks")->size(), 3u);
  ASSERT_NE(doc.Get("series"), nullptr);
  EXPECT_EQ(doc.Get("series")->size(), 1u);
  ASSERT_NE(doc.Get("tags"), nullptr);
  EXPECT_EQ(doc.Get("tags")->items()[0].Get("values")->items()[1].AsString(),
            "high");
}

TEST(Sampler, EmitsCounterTracksWhenTraced) {
  sim::Simulation sim(1);
  Tracer tracer;
  sim.set_tracer(&tracer);
  Sampler sampler(Sampler::Config{1.0, 0.0});
  sampler.AddGauge(2, "pool.depth", [] { return 5.0; });
  sampler.Schedule(&sim, 2.0);
  sim.RunUntil(5.0);

  EXPECT_EQ(tracer.num_events(), 2u);
  std::string dump = tracer.DumpChromeTrace();
  EXPECT_NE(dump.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(dump.find("\"id\":\"2\""), std::string::npos);
  EXPECT_NE(dump.find("\"name\":\"pool.depth\""), std::string::npos);
  EXPECT_NE(dump.find("\"args\":{\"value\":5}"), std::string::npos);
  EXPECT_TRUE(util::Json::Parse(dump).ok());
}

TEST(Sampler, NoTracerMeansNoEvents) {
  sim::Simulation sim(1);
  Sampler sampler(Sampler::Config{0.5, 0.0});
  sampler.AddGauge(0, "x", [] { return 1.0; });
  sampler.Schedule(&sim, 2.0);
  sim.RunUntil(5.0);
  EXPECT_EQ(sampler.num_ticks(), 4u);  // sampling still happened
}

// --- Auditor on synthetic views ----------------------------------------------

AuditBlock MakeBlock(const std::string& hash, const std::string& parent,
                     uint64_t height, double ts, bool canonical) {
  AuditBlock b;
  b.hash = hash;
  b.parent = parent;
  b.height = height;
  b.timestamp = ts;
  b.canonical = canonical;
  return b;
}

NodeChainView MakeView(uint32_t node, std::vector<AuditBlock> blocks) {
  NodeChainView v;
  v.node = node;
  v.genesis = "g";
  for (const AuditBlock& b : blocks) {
    if (b.canonical && b.height >= v.head_height) {
      v.head_height = b.height;
      v.head = b.hash;
    }
  }
  v.blocks = std::move(blocks);
  return v;
}

TEST(Auditor, AgreedChainHasNoViolations) {
  Auditor auditor(AuditorConfig{});
  for (uint32_t n = 0; n < 2; ++n) {
    auditor.AddNode(MakeView(n, {MakeBlock("a1", "g", 1, 1.0, true),
                                 MakeBlock("a2", "a1", 2, 2.0, true),
                                 MakeBlock("a3", "a2", 3, 3.0, true)}));
  }
  AuditReport rep = auditor.Run();
  EXPECT_TRUE(rep.ok()) << rep.RenderTable();
  EXPECT_EQ(rep.distinct_blocks, 3u);
  EXPECT_EQ(rep.agreed_blocks, 3u);
  EXPECT_EQ(rep.forked_blocks, 0u);
  EXPECT_EQ(rep.fork_points, 0u);
  EXPECT_EQ(rep.branches, 0u);
  ASSERT_EQ(rep.nodes.size(), 2u);
  EXPECT_EQ(rep.nodes[1].divergence_depth, 0u);
}

TEST(Auditor, ForkBranchRealizesDoubleSpend) {
  // Node 0 follows a1-a2-a3; node 1 follows a1-b2-b3. Both know every
  // block — a resolved-in-flight partition fork, caught mid-divergence.
  AuditorConfig cfg;
  cfg.confirmation_depth = 0;  // immediate finality claimed
  Auditor auditor(cfg);
  auditor.AddNode(MakeView(0, {MakeBlock("a1", "g", 1, 1.0, true),
                               MakeBlock("a2", "a1", 2, 2.0, true),
                               MakeBlock("a3", "a2", 3, 3.0, true),
                               MakeBlock("b2", "a1", 2, 2.1, false),
                               MakeBlock("b3", "b2", 3, 3.1, false)}));
  auditor.AddNode(MakeView(1, {MakeBlock("a1", "g", 1, 1.0, true),
                               MakeBlock("b2", "a1", 2, 2.1, true),
                               MakeBlock("b3", "b2", 3, 3.1, true),
                               MakeBlock("a2", "a1", 2, 2.0, false),
                               MakeBlock("a3", "a2", 3, 3.0, false)}));
  AuditReport rep = auditor.Run();

  EXPECT_EQ(rep.distinct_blocks, 5u);
  EXPECT_EQ(rep.agreed_blocks, 3u);
  EXPECT_EQ(rep.forked_blocks, 2u);
  EXPECT_DOUBLE_EQ(rep.forked_pct, 40.0);
  EXPECT_EQ(rep.fork_points, 1u);        // a1 has two children
  EXPECT_EQ(rep.branches, 1u);           // b2-b3 off the agreed chain
  EXPECT_EQ(rep.max_branch_depth, 2u);
  EXPECT_EQ(rep.wasted_weight, 2u);
  ASSERT_EQ(rep.nodes.size(), 2u);
  EXPECT_EQ(rep.nodes[0].divergence_depth, 0u);
  EXPECT_EQ(rep.nodes[1].divergence_depth, 2u);

  // With claimed-immediate finality both invariants trip: two confirmed
  // blocks at height 2, and a branch deeper than the confirmation depth.
  EXPECT_FALSE(rep.ok());
  bool conflicting = false, confirmed_fork = false;
  for (const AuditViolation& v : rep.violations) {
    conflicting |= v.invariant == "conflicting_finality";
    confirmed_fork |= v.invariant == "confirmed_fork_depth";
  }
  EXPECT_TRUE(conflicting);
  EXPECT_TRUE(confirmed_fork);

  // A deep-enough confirmation depth absorbs the same fork.
  cfg.confirmation_depth = 5;
  AuditReport rep2;
  {
    Auditor a2(cfg);
    a2.AddNode(MakeView(0, {MakeBlock("a1", "g", 1, 1.0, true),
                            MakeBlock("a2", "a1", 2, 2.0, true),
                            MakeBlock("a3", "a2", 3, 3.0, true),
                            MakeBlock("b2", "a1", 2, 2.1, false),
                            MakeBlock("b3", "b2", 3, 3.1, false)}));
    a2.AddNode(MakeView(1, {MakeBlock("a1", "g", 1, 1.0, true),
                            MakeBlock("b2", "a1", 2, 2.1, true),
                            MakeBlock("b3", "b2", 3, 3.1, true),
                            MakeBlock("a2", "a1", 2, 2.0, false),
                            MakeBlock("a3", "a2", 3, 3.0, false)}));
    rep2 = a2.Run();
  }
  EXPECT_TRUE(rep2.ok()) << rep2.RenderTable();
}

TEST(Auditor, HeightContinuityViolation) {
  Auditor auditor(AuditorConfig{});
  auditor.AddNode(MakeView(0, {MakeBlock("a1", "g", 1, 1.0, true),
                               MakeBlock("a2", "a1", 3, 2.0, true)}));
  AuditReport rep = auditor.Run();
  bool found = false;
  for (const AuditViolation& v : rep.violations) {
    found |= v.invariant == "height_continuity";
  }
  EXPECT_TRUE(found) << rep.RenderTable();
}

TEST(Auditor, RecoveryGapAfterHeal) {
  AuditorConfig cfg;
  cfg.heal_time = 6.0;
  cfg.end_time = 20.0;
  Auditor auditor(cfg);
  auditor.AddNode(MakeView(0, {MakeBlock("a1", "g", 1, 1.0, true),
                               MakeBlock("a2", "a1", 2, 5.0, true),
                               MakeBlock("a3", "a2", 3, 12.0, true)}));
  AuditReport rep = auditor.Run();
  EXPECT_DOUBLE_EQ(rep.first_seal_after_heal, 12.0);
  EXPECT_DOUBLE_EQ(rep.recovery_gap, 6.0);
  EXPECT_TRUE(rep.ok()) << rep.RenderTable();
}

TEST(Auditor, ReportJsonIsWellFormedAndDeterministic) {
  AuditorConfig cfg;
  cfg.heal_time = 2.0;
  cfg.end_time = 10.0;
  Auditor auditor(cfg);
  auditor.AddNode(MakeView(0, {MakeBlock("a1", "g", 1, 1.0, true),
                               MakeBlock("b1", "g", 1, 1.5, false)}));
  auditor.AddNode(MakeView(1, {MakeBlock("a1", "g", 1, 1.0, true)}));
  std::string one = auditor.Run().ToJson(cfg).Dump(2);
  std::string two = auditor.Run().ToJson(cfg).Dump(2);
  EXPECT_EQ(one, two);
  auto doc = util::Json::Parse(one);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->Get("schema")->AsString(), "blockbench-audit-v1");
  EXPECT_EQ(doc->Get("fork_tree")->Get("distinct_blocks")->AsUint(), 2u);
  EXPECT_EQ(doc->Get("nodes")->size(), 2u);
}

// --- End-to-end audits -------------------------------------------------------

RunSpec BaseSpec(const char* platform_name) {
  RunSpec spec = bench::BaseSpec(platform_name);
  spec.servers = 4;
  spec.clients = 2;
  spec.rate = 10;
  spec.duration = 20;
  spec.drain = 10;
  spec.warmup = 2;
  spec.ycsb_records = 200;
  return spec;
}

/// Runs `spec` with the network split in half ({0, 1} | {2, 3}) during
/// [t_part, t_heal) and returns the audit report + its config.
std::pair<AuditReport, AuditorConfig> RunPartitioned(RunSpec spec,
                                                     double t_part,
                                                     double t_heal) {
  spec.partition_start = t_part;
  spec.partition_end = t_heal;
  auto run = workloads::RunStack::Create(spec);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  (*run)->Execute();
  AuditorConfig ac = (*run)->audit_config();
  return {platform::RunAudit((*run)->platform(), ac), ac};
}

// The golden partitioned PBFT audit: 4 nodes, quorum 3, a 2/2 split —
// neither side can commit, so the ledger must show ZERO forks, and the
// serialized report is pinned byte-for-byte by digest (any change is a
// conscious golden update: print the new report, re-verify, re-pin).
TEST(AuditGolden, PartitionedPbft4NodeByteForByte) {
  workloads::RegisterAllChaincodes();
  auto [rep, ac] = RunPartitioned(BaseSpec("hyperledger"), 5.0, 10.0);
  EXPECT_EQ(rep.forked_blocks, 0u);
  EXPECT_EQ(rep.branches, 0u);
  EXPECT_TRUE(rep.ok()) << rep.RenderTable();
  EXPECT_GE(rep.recovery_gap, 0.0) << "chain never resumed after heal";

  std::string json = rep.ToJson(ac).Dump(2);
  auto [rep2, ac2] = RunPartitioned(BaseSpec("hyperledger"), 5.0, 10.0);
  EXPECT_EQ(json, rep2.ToJson(ac2).Dump(2));  // reproducible before golden
  EXPECT_EQ(Sha256::Digest(json).ToHex(),
            "518f4ab5044b57cb0ae65c8a8b5ab478dbacedbeecc841a83c5dc25e38c548f9")
      << "report is:\n" << json;
}

// The partitioned Ethereum model must fork: both halves keep mining, the
// heal discards one branch wholesale — a double-digit share of all
// sealed blocks, branches deeper than the confirmation depth (the
// realized double-spend window), so the audit must NOT be clean.
TEST(AuditForensics, PartitionedPowForksDoubleDigit) {
  workloads::RegisterAllChaincodes();
  RunSpec spec = BaseSpec("ethereum");
  spec.duration = 60;
  spec.drain = 10;
  auto [rep, ac] = RunPartitioned(spec, 10.0, 50.0);
  EXPECT_GE(rep.forked_pct, 10.0) << rep.RenderTable();
  EXPECT_GT(rep.max_branch_depth, ac.confirmation_depth);
  EXPECT_FALSE(rep.ok());
  bool confirmed_fork = false;
  for (const AuditViolation& v : rep.violations) {
    confirmed_fork |= v.invariant == "confirmed_fork_depth";
  }
  EXPECT_TRUE(confirmed_fork) << rep.RenderTable();
  // Every sealed block is accounted for, on exactly one side.
  uint64_t per_node_known = 0;
  for (const auto& n : rep.nodes) per_node_known += n.known_blocks;
  EXPECT_GT(per_node_known, 0u);
  EXPECT_EQ(rep.agreed_blocks + rep.forked_blocks, rep.distinct_blocks);
}

// Fork-tree reconstruction must not depend on how many worker threads
// ran the sweep: the serialized audit of every case is byte-identical
// between --jobs=1 and --jobs=8.
TEST(AuditDeterminism, JobsOneVersusJobsEight) {
  workloads::RegisterAllChaincodes();
  auto run_sweep = [](size_t jobs) {
    auto audits = std::make_shared<std::vector<std::string>>(2);
    bench::BenchArgs args;
    args.jobs = jobs;
    bench::SweepRunner runner("audit_jobs_test", args);
    for (size_t ci = 0; ci < 2; ++ci) {
      bench::SweepCase c;
      c.spec = BaseSpec("ethereum");
      c.spec.duration = 40;
      c.spec.drain = 5;
      c.spec.rate = ci == 0 ? 10 : 20;
      c.spec.partition_start = 10.0;
      c.spec.partition_end = 30.0;
      c.after = [audits, ci](workloads::RunStack& run,
                             bench::SweepOutcome&) {
        AuditorConfig ac = run.audit_config();
        (*audits)[ci] =
            platform::RunAudit(run.platform(), ac).ToJson(ac).Dump(2);
      };
      runner.Add(std::move(c));
    }
    EXPECT_TRUE(runner.Run(nullptr));
    return *audits;
  };
  std::vector<std::string> serial = run_sweep(1);
  std::vector<std::string> parallel = run_sweep(8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "case " << i;
    EXPECT_GT(serial[i].size(), 100u);
  }
}

}  // namespace
}  // namespace bb::obs
