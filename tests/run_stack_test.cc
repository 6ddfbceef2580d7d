// RunStack, the one builder of a run: every bbench workload builds and
// commits, a spec the builder cannot run is refused with a status, the
// audit config comes from the spec, and the build order puts a sampler
// tick before a fault edge at the same time. (The golden traces, dumps
// and audits pin the fault schedule itself.)
//
// RunSpecFuzz is a seeded mutation harness in the style of
// vm_fuzz_test.cc: mutants of a real blackbox dump (retyped fields, huge
// or negative numbers, dropped keys, truncated text) must each be
// rejected by ValidateBlackbox, or parse to a spec that RunStack either
// builds or refuses — never a crash.

#include <gtest/gtest.h>

#include <string>

#include "bench/common.h"
#include "obs/recorder.h"
#include "obs/sampler.h"
#include "util/random.h"
#include "workloads/contracts.h"
#include "workloads/run.h"

namespace bb::workloads {
namespace {

/// A 4-server, 2-client run of `platform`, short enough for a test.
obs::RunSpec SmallSpec(const std::string& platform) {
  obs::RunSpec spec = bench::BaseSpec(platform);
  spec.servers = 4;
  spec.clients = 2;
  spec.rate = 10;
  spec.duration = 10;
  spec.drain = 5;
  spec.warmup = 2;
  spec.ycsb_records = 200;
  spec.smallbank_accounts = 200;
  return spec;
}

TEST(RunStack, BuildsEveryWorkload) {
  RegisterAllChaincodes();
  for (const char* workload : {"ycsb", "smallbank", "etherid", "doubler",
                               "wavespresale", "donothing"}) {
    obs::RunSpec spec = SmallSpec("hyperledger");
    spec.workload = workload;
    auto run = RunStack::Create(spec);
    ASSERT_TRUE(run.ok()) << workload << ": " << run.status().ToString();
    EXPECT_GT((*run)->Execute().committed, 0u) << workload;
  }
}

TEST(RunStack, RefusesWhatItCannotRun) {
  RegisterAllChaincodes();
  struct Case {
    const char* what;
    void (*edit)(obs::RunSpec*);
  };
  const Case kCases[] = {
      {"unknown platform", [](obs::RunSpec* s) { s->platform = "pbft+x+evm"; }},
      {"diskkv without a data dir",
       [](obs::RunSpec* s) { s->platform = "pow+trie/diskkv+evm"; }},
      {"unknown workload", [](obs::RunSpec* s) { s->workload = "tpcc"; }},
      {"no servers", [](obs::RunSpec* s) { s->servers = 0; }},
      {"crash of a missing server",
       [](obs::RunSpec* s) { s->crashes = {{4, 1.0}}; }},
      {"crash before the start",
       [](obs::RunSpec* s) { s->crashes = {{1, -1.0}}; }},
      {"partition healing before it starts",
       [](obs::RunSpec* s) {
         s->partition_start = 5;
         s->partition_end = 4;
       }},
  };
  for (const Case& c : kCases) {
    obs::RunSpec spec = SmallSpec("hyperledger");
    c.edit(&spec);
    auto run = RunStack::Create(spec);
    ASSERT_FALSE(run.ok()) << c.what;
    EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument)
        << c.what << ": " << run.status().ToString();
  }
}

TEST(RunStack, AuditConfigFollowsTheSpec) {
  RegisterAllChaincodes();
  obs::RunSpec spec = SmallSpec("ethereum");
  spec.partition_start = 3;
  spec.partition_end = 6;
  auto run = RunStack::Create(spec);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  obs::AuditorConfig ac = (*run)->audit_config();
  EXPECT_EQ(ac.confirmation_depth,
            (*run)->platform().options().confirmation_depth);
  EXPECT_GT(ac.confirmation_depth, 0u);
  EXPECT_EQ(ac.heal_time, 6.0);
  EXPECT_EQ(ac.end_time, 15.0);
  EXPECT_EQ(ac.num_shards, 1u);

  obs::RunSpec sharded = SmallSpec("hyperledger@shards=2");
  auto run2 = RunStack::Create(sharded);
  ASSERT_TRUE(run2.ok()) << run2.status().ToString();
  EXPECT_EQ((*run2)->audit_config().heal_time, -1.0);
  EXPECT_EQ((*run2)->audit_config().num_shards, 2u);
}

// Sinks, platform, workload, driver, sampler, then faults: a tick at a
// crash's own time is scheduled first, so it still reads the server up.
TEST(RunStack, SamplerTicksBeforeAFaultAtTheSameTime) {
  RegisterAllChaincodes();
  obs::RunSpec spec = SmallSpec("hyperledger");
  spec.crashes = {{3, 5.0}};
  obs::Sampler sampler(obs::Sampler::Config{5.0, 0.0});
  RunSinks sinks;
  sinks.sampler = &sampler;
  auto run = RunStack::Create(spec, sinks);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  (*run)->Execute();
  ASSERT_GE(sampler.num_ticks(), 2u);
  EXPECT_EQ(sampler.ValueAt(3, "net.crashed", 0), 0.0);  // t = 5
  EXPECT_EQ(sampler.ValueAt(3, "net.crashed", 1), 1.0);  // t = 10
}

// --- Seeded mutation of blackbox dumps ---------------------------------------

/// The golden partitioned PBFT dump's run (blackbox_test.cc), recorded.
util::Json GoldenPbftDump() {
  obs::RunSpec spec = SmallSpec("hyperledger");
  spec.duration = 20;
  spec.drain = 10;
  spec.smallbank_accounts = 2000;
  spec.partition_start = 5;
  spec.partition_end = 10;
  obs::FlightRecorder rec;
  RunSinks sinks;
  sinks.recorder = &rec;
  auto run = RunStack::Create(spec, sinks);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  (*run)->Execute();
  return rec.ToJson(spec, obs::BlackboxTrigger{});
}

/// A copy of `j` with one node mutated: the descent stops at a random
/// depth, biased towards the run spec, and there either replaces the
/// value (another type, a huge or a negative number) or drops it from
/// its container.
util::Json Mutate(const util::Json& j, Rng& rng, bool at_root = true) {
  auto replacement = [&rng]() -> util::Json {
    switch (rng.Uniform(9)) {
      case 0: return util::Json("8");
      case 1: return util::Json(true);
      case 2: return util::Json();
      case 3: return util::Json::Array();
      case 4: return util::Json::Object();
      case 5: return util::Json(1e30);
      case 6: return util::Json(-1e30);
      case 7: return util::Json(18446744073709551616.0);
      default: return util::Json(-1);
    }
  };
  bool container = j.is_object() || j.is_array();
  if (!container || (!at_root && rng.Uniform(3) == 0)) return replacement();
  size_t n = j.size();
  if (n == 0) return replacement();
  size_t pick = rng.Uniform(n);
  if (at_root && j.is_object() && rng.Uniform(2) == 0) {
    for (size_t i = 0; i < n; ++i) {
      if (j.members()[i].first == "run") pick = i;
    }
  }
  bool drop = rng.Uniform(4) == 0;
  util::Json out = j.is_object() ? util::Json::Object() : util::Json::Array();
  for (size_t i = 0; i < n; ++i) {
    const util::Json& child =
        j.is_object() ? j.members()[i].second : j.items()[i];
    if (i == pick && drop) continue;
    util::Json v = i == pick ? Mutate(child, rng, false) : child;
    if (j.is_object()) {
      out.Set(j.members()[i].first, std::move(v));
    } else {
      out.Push(std::move(v));
    }
  }
  return out;
}

/// The contract for one mutant: rejected, or a spec the builder builds
/// or refuses. Returns whether the dump was accepted.
bool CheckMutant(const util::Json& doc) {
  if (!obs::ValidateBlackbox(doc).ok()) return false;
  auto spec = obs::RunSpec::FromJson(*doc.Get("run"));
  EXPECT_TRUE(spec.ok()) << "validated dump, unparseable spec: "
                         << doc.Get("run")->Dump(0);
  if (!spec.ok()) return true;
  auto run = RunStack::Create(*spec);
  (void)run;  // built or refused, both fine
  return true;
}

TEST(RunSpecFuzz, MutatedDumpsAreRejectedOrBuild) {
  RegisterAllChaincodes();
  util::Json golden = GoldenPbftDump();
  ASSERT_TRUE(obs::ValidateBlackbox(golden).ok());
  std::string text = golden.Dump(0);
  Rng rng(20261018);
  size_t accepted = 0, rejected = 0;
  for (int i = 0; i < 300; ++i) {
    if (i % 10 == 0) {
      // Truncated text: the parser refuses it, or (rarely) the cut
      // leaves a complete document that the validator then judges.
      auto doc = util::Json::Parse(text.substr(0, rng.Uniform(text.size())));
      if (!doc.ok()) {
        ++rejected;
        continue;
      }
      CheckMutant(*doc) ? ++accepted : ++rejected;
      continue;
    }
    CheckMutant(Mutate(golden, rng)) ? ++accepted : ++rejected;
  }
  // Both outcomes occur, so the harness exercises the builder too.
  EXPECT_GT(accepted, 10u);
  EXPECT_GT(rejected, 10u);
}

}  // namespace
}  // namespace bb::workloads
