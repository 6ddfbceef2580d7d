// Observability subsystem tests: MetricsRegistry label normalization and
// merge semantics, Tracer lifecycle-milestone rules, the golden 4-node
// traces of all five engines, and trace identity across sweep --jobs values (the
// determinism contract of docs/OBSERVABILITY.md).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "bench/common.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "sim/network.h"
#include "util/sha256.h"

namespace bb::obs {
namespace {

// --- MetricsRegistry ---------------------------------------------------------

TEST(MetricsRegistry, LabelOrderNormalizes) {
  MetricsRegistry reg;
  reg.AddCounter("net.messages", {{"node", "1"}, {"type", "prepare"}}, 3);
  reg.AddCounter("net.messages", {{"type", "prepare"}, {"node", "1"}}, 4);
  EXPECT_EQ(reg.CounterValue("net.messages",
                             {{"node", "1"}, {"type", "prepare"}}),
            7u);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(MetricsRegistry, KeyFormat) {
  EXPECT_EQ(MetricsRegistry::Key("pool.depth", {{"b", "2"}, {"a", "1"}}),
            "pool.depth{a=1,b=2}");
  EXPECT_EQ(MetricsRegistry::Key("pool.depth", {}), "pool.depth");
}

TEST(MetricsRegistry, MissingAndKindMismatchLookups) {
  MetricsRegistry reg;
  reg.AddCounter("c", {}, 5);
  reg.SetGauge("g", {}, 1.5);
  EXPECT_EQ(reg.CounterValue("nope", {}), 0u);
  EXPECT_EQ(reg.GaugeValue("c", {}), 0.0);       // kind mismatch
  EXPECT_EQ(reg.FindHistogram("c", {}), nullptr);
  EXPECT_EQ(reg.CounterValue("g", {}), 0u);
  // A mismatched write is ignored rather than clobbering the instrument.
  reg.SetGauge("c", {}, 9.0);
  EXPECT_EQ(reg.CounterValue("c", {}), 5u);
}

TEST(MetricsRegistry, HistogramPointerStable) {
  MetricsRegistry reg;
  Histogram* h = reg.GetHistogram("lat", {{"node", "0"}});
  h->Add(1.0);
  for (int i = 0; i < 64; ++i) {
    reg.AddCounter("filler" + std::to_string(i), {});
  }
  EXPECT_EQ(h, reg.GetHistogram("lat", {{"node", "0"}}));
  EXPECT_EQ(h->count(), 1u);
}

TEST(MetricsRegistry, MergeSemantics) {
  MetricsRegistry a, b;
  a.AddCounter("c", {}, 2);
  a.SetGauge("g", {}, 1.0);
  a.GetHistogram("h", {})->Add(1.0);
  b.AddCounter("c", {}, 3);
  b.SetGauge("g", {}, 7.0);
  b.GetHistogram("h", {})->Add(3.0);
  b.AddCounter("only_b", {}, 1);
  a.Merge(b);
  EXPECT_EQ(a.CounterValue("c", {}), 5u);   // counters add
  EXPECT_EQ(a.GaugeValue("g", {}), 7.0);    // gauges take incoming
  ASSERT_NE(a.FindHistogram("h", {}), nullptr);
  EXPECT_EQ(a.FindHistogram("h", {})->count(), 2u);  // histograms merge
  EXPECT_EQ(a.CounterValue("only_b", {}), 1u);
}

// Merged histograms must answer percentile queries over the combined
// sample set, not either input's — p50/p95/p99 are the paper's headline
// latency numbers, so Merge getting this wrong corrupts every sharded /
// multi-node rollup.
TEST(MetricsRegistry, HistogramMergePercentiles) {
  MetricsRegistry a, b;
  // a holds 1..50, b holds 51..100 (deliberately disjoint ranges so a
  // merge that kept only one side is unmistakable).
  for (int v = 1; v <= 50; ++v) a.GetHistogram("lat", {})->Add(v);
  for (int v = 51; v <= 100; ++v) b.GetHistogram("lat", {})->Add(v);
  a.Merge(b);
  const Histogram* h = a.FindHistogram("lat", {});
  ASSERT_NE(h, nullptr);
  ASSERT_EQ(h->count(), 100u);
  // Linear interpolation between order statistics over 1..100.
  EXPECT_DOUBLE_EQ(h->Percentile(50), 50.5);
  EXPECT_DOUBLE_EQ(h->Percentile(95), 95.05);
  EXPECT_DOUBLE_EQ(h->Percentile(99), 99.01);
  EXPECT_DOUBLE_EQ(h->min(), 1.0);
  EXPECT_DOUBLE_EQ(h->max(), 100.0);
}

TEST(MetricsRegistry, HistogramMergeEmptyEdges) {
  // Empty into populated: a no-op for every percentile.
  MetricsRegistry populated, empty;
  populated.GetHistogram("h", {})->Add(2.0);
  populated.GetHistogram("h", {})->Add(4.0);
  empty.GetHistogram("h", {});  // exists, zero samples
  populated.Merge(empty);
  const Histogram* h = populated.FindHistogram("h", {});
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 2u);
  EXPECT_DOUBLE_EQ(h->Percentile(50), 3.0);
  // Populated into empty: takes the incoming distribution wholesale.
  MetricsRegistry fresh;
  fresh.GetHistogram("h", {});
  fresh.Merge(populated);
  h = fresh.FindHistogram("h", {});
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 2u);
  EXPECT_DOUBLE_EQ(h->Percentile(95), 3.9);
  EXPECT_DOUBLE_EQ(h->Percentile(99), 3.98);
  // Empty into empty: still answers 0, never divides by zero.
  MetricsRegistry e1, e2;
  e1.GetHistogram("h", {});
  e2.GetHistogram("h", {});
  e1.Merge(e2);
  h = e1.FindHistogram("h", {});
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 0u);
  EXPECT_DOUBLE_EQ(h->Percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(h->Percentile(99), 0.0);
}

TEST(MetricsRegistry, HistogramMergeSingleSampleEdges) {
  // One sample answers every percentile with itself (no interpolation
  // partner), before and after a merge with another singleton.
  MetricsRegistry a, b;
  a.GetHistogram("h", {})->Add(7.0);
  const Histogram* h = a.FindHistogram("h", {});
  EXPECT_DOUBLE_EQ(h->Percentile(0), 7.0);
  EXPECT_DOUBLE_EQ(h->Percentile(50), 7.0);
  EXPECT_DOUBLE_EQ(h->Percentile(99), 7.0);
  EXPECT_DOUBLE_EQ(h->Percentile(100), 7.0);
  b.GetHistogram("h", {})->Add(9.0);
  a.Merge(b);
  ASSERT_EQ(h->count(), 2u);
  EXPECT_DOUBLE_EQ(h->Percentile(50), 8.0);   // midpoint of {7, 9}
  EXPECT_DOUBLE_EQ(h->Percentile(95), 8.9);
  EXPECT_DOUBLE_EQ(h->Percentile(99), 8.98);
}

TEST(MetricsRegistry, ToJsonIsDeterministic) {
  MetricsRegistry reg;
  reg.SetGauge("z.last", {}, 1);
  reg.AddCounter("a.first", {{"node", "2"}}, 4);
  reg.GetHistogram("m.hist", {})->Add(2.0);
  std::string dump = reg.ToJson().Dump();
  // Key order: instruments serialize sorted by canonical key.
  size_t a = dump.find("a.first");
  size_t m = dump.find("m.hist");
  size_t z = dump.find("z.last");
  ASSERT_NE(a, std::string::npos);
  ASSERT_NE(m, std::string::npos);
  ASSERT_NE(z, std::string::npos);
  EXPECT_LT(a, m);
  EXPECT_LT(m, z);
}

// --- Tracer ------------------------------------------------------------------

/// Feeds the tracer lifecycle milestone `kind` of `tx` at time t.
void Milestone(Tracer* tr, uint64_t tx, EventKind kind, double t) {
  tr->Observe({.kind = kind, .t = t, .id = tx});
}

TEST(Tracer, MilestonesFirstWinsAndSpansTelescope) {
  Tracer tr;
  Milestone(&tr, 7, EventKind::kTxSubmit, 1.0);
  Milestone(&tr, 7, EventKind::kTxAdmit, 1.5);
  Milestone(&tr, 7, EventKind::kTxAdmit, 2.0);  // replica admit: ignored
  Milestone(&tr, 7, EventKind::kTxPropose, 3.0);
  Milestone(&tr, 7, EventKind::kTxCommit, 4.0);
  Milestone(&tr, 7, EventKind::kTxConfirm, 5.0);
  const Tracer::TxMilestones* ms = tr.FindTx(7);
  ASSERT_NE(ms, nullptr);
  EXPECT_EQ((*ms)[Tracer::kAdmit], 1.5);
  EXPECT_EQ((*ms)[Tracer::kConfirm], 5.0);
  // Four legs, each a b/e pair.
  EXPECT_EQ(tr.num_events(), 8u);
  EXPECT_EQ(tr.num_tx(), 1u);
  // The confirmed tx lands in the per-leg breakdown.
  ASSERT_EQ(tr.complete_txs(), 1u);
  EXPECT_EQ(tr.leg_latency(0).Mean(), 0.5);
  EXPECT_EQ(tr.leg_latency(3).Mean(), 1.0);
}

TEST(Tracer, ResubmitRestartsLifecycle) {
  Tracer tr;
  Milestone(&tr, 9, EventKind::kTxSubmit, 1.0);
  Milestone(&tr, 9, EventKind::kTxAdmit, 2.0);
  // Rejected and resubmitted: the record restarts so spans match the
  // latency measured from the last submission.
  Milestone(&tr, 9, EventKind::kTxSubmit, 10.0);
  const Tracer::TxMilestones* ms = tr.FindTx(9);
  ASSERT_NE(ms, nullptr);
  EXPECT_EQ((*ms)[Tracer::kSubmit], 10.0);
  EXPECT_EQ((*ms)[Tracer::kAdmit], -1.0);
}

TEST(Tracer, MilestoneWithoutSubmitStartsPartialRecord) {
  Tracer tr;
  Milestone(&tr, 3, EventKind::kTxCommit, 2.0);
  const Tracer::TxMilestones* ms = tr.FindTx(3);
  ASSERT_NE(ms, nullptr);
  EXPECT_EQ((*ms)[Tracer::kSubmit], -1.0);
  EXPECT_EQ((*ms)[Tracer::kCommit], 2.0);
  EXPECT_EQ(tr.num_events(), 0u);  // no adjacent milestone, no span
  // A confirm without every milestone stays out of the breakdown.
  Milestone(&tr, 3, EventKind::kTxConfirm, 3.0);
  EXPECT_EQ(tr.complete_txs(), 0u);
}

TEST(Tracer, EmptyTraceIsValidJson) {
  Tracer tr;
  std::string dump = tr.DumpChromeTrace();
  auto doc = util::Json::Parse(dump);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  ASSERT_NE(doc->Get("traceEvents"), nullptr);
}

// Send/recv events become flow events ('s'/'f') that carry the hex id that links a send span to its
// receive span in Perfetto, and the 'f' end binds to the enclosing
// slice ("bp":"e"). Each emits a zero-duration anchor 'X' first.
TEST(Tracer, FlowEventsRenderIdAndBindingPoint) {
  Tracer tr;
  tr.Observe({.kind = EventKind::kSend, .node = 0, .t = 1.0, .id = 42,
              .peer = 2});
  tr.Observe({.kind = EventKind::kRecv, .node = 2, .t = 1.5, .id = 42,
              .peer = 0});
  EXPECT_EQ(tr.num_events(), 4u);  // two anchors + 's' + 'f'
  std::string dump = tr.DumpChromeTrace();
  auto doc = util::Json::Parse(dump);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_NE(dump.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(dump.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(dump.find("\"id\":\"0x2a\""), std::string::npos);
  EXPECT_NE(dump.find("\"bp\":\"e\""), std::string::npos);
  // An unmatched 's' is legal (the message was dropped/crashed away);
  // it must still serialize as valid JSON.
  Tracer dropped;
  dropped.Observe({.kind = EventKind::kSend, .node = 1, .t = 2.0, .id = 7});
  auto doc2 = util::Json::Parse(dropped.DumpChromeTrace());
  ASSERT_TRUE(doc2.ok()) << doc2.status().ToString();
}

// --- Profiler ----------------------------------------------------------------

TEST(Profiler, SubsystemMapping) {
  using prof::SubsystemOf;
  EXPECT_EQ(SubsystemOf("consensus.pbft.prepare"), prof::kConsensus);
  EXPECT_EQ(SubsystemOf("serialize.msg_send"), prof::kSerialization);
  EXPECT_EQ(SubsystemOf("hash.merkle"), prof::kHashing);
  EXPECT_EQ(SubsystemOf("storage.trie_commit"), prof::kStorage);
  EXPECT_EQ(SubsystemOf("vm.execute_tx"), prof::kVm);
  EXPECT_EQ(SubsystemOf("sim.dispatch"), prof::kSimKernel);
  EXPECT_EQ(SubsystemOf("driver.run"), prof::kDriver);
  // Typos / unknown prefixes stay visible as "other", not dropped.
  EXPECT_EQ(SubsystemOf("consnsus.typo"), prof::kOther);
  EXPECT_EQ(SubsystemOf("nodots"), prof::kOther);
  // Prefix is length-matched, not prefix-matched.
  EXPECT_EQ(SubsystemOf("simx.thing"), prof::kOther);
}

TEST(Profiler, DisabledScopesAreNoOps) {
  ASSERT_EQ(prof::Current(), nullptr);
  {
    BB_PROF_SCOPE("driver.disabled");
    BB_PROF_ALLOC(1, 100);
    BB_PROF_COPY(100);
  }
  EXPECT_EQ(prof::Current(), nullptr);
}

// The lazy statement macros must not evaluate their operands when no
// profiler is attached — operands are often a SizeBytes() tree walk.
TEST(Profiler, DisabledMacrosDoNotEvaluateOperands) {
  ASSERT_EQ(prof::Current(), nullptr);
  int evaluations = 0;
  auto count_it = [&evaluations] { return uint64_t(++evaluations); };
  BB_PROF_ALLOC(count_it(), count_it());
  BB_PROF_COPY(count_it());
  EXPECT_EQ(evaluations, 0);
}

TEST(Profiler, NestedScopesAttributeSelfVsTotal) {
  prof::ThreadProfile tp;
  tp.Enter("driver.outer");
  tp.Enter("hash.inner");
  tp.Alloc(2, 64);
  tp.Copy(128);
  tp.Exit();
  tp.Exit();
  tp.Enter("driver.outer");  // second invocation, same node
  tp.Exit();
  ASSERT_EQ(tp.open_depth(), 0u);
  ASSERT_EQ(tp.nodes().size(), 2u);
  const auto& outer = tp.nodes()[0];
  const auto& inner = tp.nodes()[1];
  EXPECT_STREQ(outer.name, "driver.outer");
  EXPECT_EQ(outer.parent, -1);
  EXPECT_EQ(outer.count, 2u);
  EXPECT_STREQ(inner.name, "hash.inner");
  EXPECT_EQ(inner.parent, 0);
  EXPECT_EQ(inner.count, 1u);
  // Self excludes profiled children; the child's whole duration was
  // charged to it, so outer.self + inner.total == outer.total.
  EXPECT_LE(outer.self_ns, outer.total_ns);
  EXPECT_GE(outer.total_ns, inner.total_ns);
  EXPECT_EQ(outer.self_ns + inner.total_ns, outer.total_ns);
  // Alloc/copy charged to the innermost open scope.
  EXPECT_EQ(inner.alloc_count, 2u);
  EXPECT_EQ(inner.alloc_bytes, 64u);
  EXPECT_EQ(inner.copy_count, 1u);
  EXPECT_EQ(inner.copy_bytes, 128u);
  EXPECT_EQ(outer.alloc_count, 0u);
  // Subsystem rollup saw both buckets.
  EXPECT_EQ(tp.subsys_self_ns()[prof::kDriver], outer.self_ns);
  EXPECT_EQ(tp.subsys_self_ns()[prof::kHashing], inner.self_ns);
}

TEST(Profiler, AllocOutsideAnyScopeLandsInUnattributed) {
  prof::ThreadProfile tp;
  tp.Alloc(1, 32);
  ASSERT_EQ(tp.nodes().size(), 1u);
  EXPECT_STREQ(tp.nodes()[0].name, "other.unattributed");
  EXPECT_EQ(tp.nodes()[0].subsystem, prof::kOther);
  EXPECT_EQ(tp.nodes()[0].alloc_bytes, 32u);
}

TEST(Profiler, MergeFromMatchesNodesByParentAndName) {
  prof::ThreadProfile a, b;
  for (prof::ThreadProfile* tp : {&a, &b}) {
    tp->Enter("driver.outer");
    tp->Enter("hash.inner");
    tp->Exit();
    tp->Exit();
  }
  b.Enter("vm.only_b");
  b.Exit();
  a.MergeFrom(b);
  ASSERT_EQ(a.nodes().size(), 3u);  // outer, inner, only_b — no dupes
  EXPECT_EQ(a.nodes()[0].count, 2u);
  EXPECT_EQ(a.nodes()[1].count, 2u);
  EXPECT_STREQ(a.nodes()[2].name, "vm.only_b");
  EXPECT_EQ(a.nodes()[2].count, 1u);
  EXPECT_EQ(a.subsys_self_ns()[prof::kDriver],
            a.nodes()[0].self_ns);  // rollup accumulated too
}

// End-to-end export: a profiler with real (tiny) scopes must emit a
// document that passes its own validator, plus well-formed folded
// stacks and a sane attributed fraction.
TEST(Profiler, ExportsValidateAndFoldedFormat) {
  Profiler p;
  {
    Profiler::ThreadScope scope(&p);
    BB_PROF_SCOPE("driver.run");
    for (int i = 0; i < 100; ++i) {
      BB_PROF_SCOPE("hash.block_hash");
      BB_PROF_ALLOC(1, 8);
      BB_PROF_COPY(16);
    }
  }
  p.set_events(100);
  p.Stop();
  EXPECT_EQ(p.num_threads(), 1u);
  EXPECT_EQ(p.total_alloc_count(), 100u);
  EXPECT_EQ(p.total_copy_bytes(), 1600u);

  util::Json doc = p.ToJson();
  Status s = ValidateProfile(doc);
  EXPECT_TRUE(s.ok()) << s.ToString();
  double frac = AttributedFraction(doc);
  EXPECT_GT(frac, 0.0);
  EXPECT_LE(frac, 1.0);

  // Folded lines: "path;leaf self_us", ';'-joined, sorted by path.
  std::string folded = p.DumpFolded();
  EXPECT_NE(folded.find("driver.run;hash.block_hash "), std::string::npos);
  // Attribution + diff renderers accept the document.
  EXPECT_NE(RenderProfileAttribution(doc).find("hashing"),
            std::string::npos);
  std::string diff = RenderProfileDiff(doc, doc);
  EXPECT_NE(diff.find("wall:"), std::string::npos);

  // The sweep-embedded subset also validates structurally: subsystems
  // and counters only.
  util::Json sweep = p.ToSweepJson();
  EXPECT_NE(sweep.Get("subsystems"), nullptr);
  EXPECT_EQ(sweep.Get("scopes"), nullptr);
}

TEST(Profiler, ValidateProfileRejectsMalformedDocs) {
  auto parse = [](const char* text) {
    auto doc = util::Json::Parse(text);
    EXPECT_TRUE(doc.ok());
    return *doc;
  };
  EXPECT_FALSE(ValidateProfile(parse("{}")).ok());
  EXPECT_FALSE(
      ValidateProfile(parse("{\"schema\":\"wrong-schema\"}")).ok());
  EXPECT_FALSE(ValidateProfile(
                   parse("{\"schema\":\"blockbench-profile-v1\","
                         "\"duration_seconds\":-1}"))
                   .ok());
}

// --- End-to-end traces -------------------------------------------------------

RunSpec SmallSpec(const char* platform_name) {
  RunSpec spec = bench::BaseSpec(platform_name);
  spec.servers = 4;
  spec.clients = 2;
  spec.rate = 10;
  spec.duration = 10;
  spec.drain = 5;
  spec.warmup = 2;
  spec.ycsb_records = 200;
  return spec;
}

/// The fault a golden run injects: none, a crash of server 0 at t=3, or
/// the network split {0,1} | {2,3} during [3, 6).
enum class Fault { kNone, kCrash, kPartition };

std::string RunTrace(const char* platform_name, Fault fault) {
  Tracer tracer;
  RunSpec spec = SmallSpec(platform_name);
  if (fault == Fault::kCrash) {
    spec.crashes = {{0, 3.0}};
  } else if (fault == Fault::kPartition) {
    spec.partition_start = 3.0;
    spec.partition_end = 6.0;
  }
  workloads::RunSinks sinks;
  sinks.tracer = &tracer;
  auto run = workloads::RunStack::Create(spec, sinks);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  (*run)->Execute();
  return tracer.DumpChromeTrace();
}

// The golden 4-node traces, one per consensus engine: each full
// document is pinned by digest, so any change to event content,
// ordering or formatting is a conscious golden update (print the new
// digest and re-pin after verifying the trace in Perfetto). PBFT runs
// fault-free; the other engines each run through a crash or a
// partition so fault edges, fork switches and failed rounds are pinned
// too.
TEST(TraceGolden, Pbft4NodeByteForByte) {
  workloads::RegisterAllChaincodes();
  struct Case {
    const char* platform;
    Fault fault;
    const char* digest;
  };
  const Case kCases[] = {
      {"hyperledger", Fault::kNone,
       "4e7d56d2718fc8a0b4ef23bba0f63002257c4a12cec7df731d5e760a24a32c59"},
      {"ethereum", Fault::kPartition,
       "7608fc93107e6076789fa30dc13af0ace1fd1064b3f90f817e38cb837f2f56d4"},
      {"parity", Fault::kPartition,
       "c8755971efbcf23a7d5fd87018560e5545814b4e529445f661e1595c5ced260e"},
      {"erisdb", Fault::kCrash,
       "9aa3b7f07d881fd168024d6586404e24d9383a53caea0c8b034d75a16f48f362"},
      {"corda", Fault::kCrash,
       "b73e324dd17f10018d5c42541a3ce71710fea827797a3f75f232e6917a7ef779"},
  };
  for (const Case& c : kCases) {
    std::string trace = RunTrace(c.platform, c.fault);
    EXPECT_EQ(trace, RunTrace(c.platform, c.fault))  // reproducible
        << c.platform;
    EXPECT_EQ(Sha256::Digest(trace).ToHex(), c.digest)
        << c.platform << ": trace is " << trace.size() << " bytes";
  }
}

// A sweep must produce identical traces no matter how many worker
// threads execute it: each RunStack owns its simulation and tracer.
TEST(TraceDeterminism, JobsOneVersusJobsEight) {
  workloads::RegisterAllChaincodes();
  auto run_sweep = [](size_t jobs) {
    std::vector<std::unique_ptr<Tracer>> tracers;
    bench::BenchArgs args;
    args.jobs = jobs;
    bench::SweepRunner runner("obs_jobs_test", args);
    for (double rate : {5.0, 10.0, 20.0}) {
      bench::SweepCase c;
      c.spec = SmallSpec("hyperledger");
      c.spec.rate = rate;
      tracers.push_back(std::make_unique<Tracer>());
      c.sinks.tracer = tracers.back().get();
      runner.Add(std::move(c));
    }
    EXPECT_TRUE(runner.Run(nullptr));
    std::vector<std::string> traces;
    for (const auto& t : tracers) traces.push_back(t->DumpChromeTrace());
    return traces;
  };
  std::vector<std::string> serial = run_sweep(1);
  std::vector<std::string> parallel = run_sweep(8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "case " << i;
    EXPECT_GT(serial[i].size(), 1000u);  // traces are non-trivial
  }
}

}  // namespace
}  // namespace bb::obs
