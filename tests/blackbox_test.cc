// FlightRecorder tests: ring wrap/eviction semantics, RunSpec JSON
// round-trip, structural validation of blockbench-blackbox-v1 dumps,
// the golden 4-node black boxes of all five engines (pinned by digest),
// dump identity across sweep --jobs values, the replay-equivalence
// contract (a RunSpec-reconstructed run produces a byte-identical
// dump), and the message-seq breakpoint used by bbench --until.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "bench/common.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "sim/network.h"
#include "sim/simulation.h"
#include "util/sha256.h"

namespace bb::obs {
namespace {

// --- Ring semantics ----------------------------------------------------------

/// Feeds `rec` a consensus phase event.
void Phase(FlightRecorder* rec, uint32_t node, double t, const char* name,
           uint64_t id = 0) {
  rec->Observe({.kind = EventKind::kPhase,
                .node = node,
                .t = t,
                .id = id,
                .name = name});
}

TEST(FlightRecorder, RecordsAndIntrospects) {
  FlightRecorder rec(8);
  const char* prepare = sim::MsgKindName(sim::MsgKind::kPbftPrepare);
  rec.Observe({.kind = EventKind::kSend, .node = 0, .t = 1.0, .id = 7,
               .aux = 100, .peer = 1, .name = prepare});
  rec.Observe({.kind = EventKind::kRecv, .node = 1, .t = 1.5, .id = 7,
               .aux = 100, .peer = 0, .name = prepare});
  Phase(&rec, 0, 2.0, "pbft.view_change", 3);
  rec.Observe({.kind = EventKind::kCrash, .node = 1, .t = 2.5});
  // Tracer-only kinds leave no record.
  rec.Observe({.kind = EventKind::kTxSubmit, .node = 1, .t = 2.6, .id = 5});

  EXPECT_EQ(rec.num_nodes(), 2u);
  EXPECT_EQ(rec.recorded(0), 2u);
  EXPECT_EQ(rec.recorded(1), 2u);
  EXPECT_EQ(rec.evicted(0), 0u);

  const auto& send = rec.At(0, 0);
  EXPECT_EQ(send.kind, FlightRecorder::Kind::kSend);
  EXPECT_EQ(send.id, 7u);
  EXPECT_EQ(send.peer, 1u);
  EXPECT_EQ(rec.Name(send.name), "pbft_prepare");

  const auto& phase = rec.At(0, 1);
  EXPECT_EQ(phase.kind, FlightRecorder::Kind::kPhase);
  EXPECT_EQ(rec.Name(phase.name), "pbft.view_change");
  EXPECT_EQ(phase.id, 3u);

  const auto& crash = rec.At(1, 1);
  EXPECT_EQ(crash.kind, FlightRecorder::Kind::kCrash);
  EXPECT_EQ(rec.Name(crash.name), "crash");

  // A message refused at send is a send record then a drop record with
  // aux 0; one lost in flight is a drop record with aux 1.
  rec.Observe({.kind = EventKind::kRefused, .node = 2, .t = 3.0, .id = 8,
               .aux = 100, .peer = 3, .name = prepare});
  rec.Observe({.kind = EventKind::kDrop, .node = 3, .t = 3.2, .id = 9,
               .aux = 100, .peer = 2, .name = prepare});
  ASSERT_EQ(rec.ring_size(2), 2u);
  EXPECT_EQ(rec.At(2, 0).kind, FlightRecorder::Kind::kSend);
  EXPECT_EQ(rec.At(2, 0).aux, 100u);
  EXPECT_EQ(rec.At(2, 1).kind, FlightRecorder::Kind::kDrop);
  EXPECT_EQ(rec.At(2, 1).aux, 0u);
  EXPECT_EQ(rec.At(2, 1).peer, 3u);
  ASSERT_EQ(rec.ring_size(3), 1u);
  EXPECT_EQ(rec.At(3, 0).kind, FlightRecorder::Kind::kDrop);
  EXPECT_EQ(rec.At(3, 0).aux, 1u);
}

TEST(FlightRecorder, RingWrapsAndEvictsOldest) {
  FlightRecorder rec(4);
  for (int i = 0; i < 10; ++i) {
    Phase(&rec, 0, double(i), "tick", uint64_t(i));
  }
  EXPECT_EQ(rec.recorded(0), 10u);
  EXPECT_EQ(rec.evicted(0), 6u);
  EXPECT_EQ(rec.ring_size(0), 4u);
  // Survivors are the newest four, oldest-first: ids 6, 7, 8, 9.
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(rec.At(0, i).id, 6 + i) << "ring slot " << i;
    EXPECT_EQ(rec.At(0, i).t, double(6 + i));
  }
}

TEST(FlightRecorder, ExactlyFullRingDoesNotEvict) {
  FlightRecorder rec(4);
  for (int i = 0; i < 4; ++i) Phase(&rec, 0, double(i), "tick", uint64_t(i));
  EXPECT_EQ(rec.evicted(0), 0u);
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(rec.At(0, i).id, i);
  // One more push evicts exactly the oldest.
  Phase(&rec, 0, 4.0, "tick", 4);
  EXPECT_EQ(rec.evicted(0), 1u);
  EXPECT_EQ(rec.At(0, 0).id, 1u);
  EXPECT_EQ(rec.At(0, 3).id, 4u);
}

TEST(FlightRecorder, InternsNamesOnce) {
  FlightRecorder rec;
  for (int i = 0; i < 100; ++i) Phase(&rec, 0, double(i), "pbft.prepare");
  Phase(&rec, 1, 100.0, "pbft.commit");
  // Equal text behind a different pointer is the same name.
  std::string copy = "pbft.commit";
  Phase(&rec, 1, 101.0, copy.c_str());
  EXPECT_EQ(rec.num_names(), 2u);
  EXPECT_EQ(rec.At(1, 0).name, rec.At(1, 1).name);
}

TEST(FlightRecorder, ExportMetricsPublishesRingPressure) {
  FlightRecorder rec(4);
  for (int i = 0; i < 10; ++i) Phase(&rec, 0, double(i), "tick", uint64_t(i));
  Phase(&rec, 1, 0.0, "tick", 0);

  MetricsRegistry reg;
  rec.ExportMetrics(&reg);
  EXPECT_DOUBLE_EQ(reg.GaugeValue("recorder.ring_capacity", {}), 4.0);
  Labels n0{{"node", "0"}}, n1{{"node", "1"}};
  EXPECT_DOUBLE_EQ(reg.GaugeValue("recorder.ring_size", n0), 4.0);
  EXPECT_EQ(reg.CounterValue("recorder.recorded", n0), 10u);
  EXPECT_EQ(reg.CounterValue("recorder.evicted", n0), 6u);
  EXPECT_DOUBLE_EQ(reg.GaugeValue("recorder.ring_size", n1), 1.0);
  EXPECT_EQ(reg.CounterValue("recorder.evicted", n1), 0u);
}

// --- RunSpec round-trip ------------------------------------------------------

TEST(RunSpec, JsonRoundTrip) {
  RunSpec s;
  s.platform = "pbft+trie+evm@shards=2";
  s.workload = "smallbank";
  s.servers = 4;
  s.clients = 3;
  s.cross_shard = 0.25;
  s.rate = 55;
  s.duration = 33;
  s.warmup = 3;
  s.drain = 7;
  s.max_outstanding = 16;
  s.seed = 11;
  s.platform_seed = 22;
  s.driver_seed = 33;
  s.ycsb_records = 500;
  s.smallbank_accounts = 600;
  s.crashes = {{2, 10.5}, {3, 12.0}};
  s.partition_start = 5;
  s.partition_end = 15;
  s.delay = 0.01;
  s.corrupt = 0.001;

  auto back = RunSpec::FromJson(s.ToJson());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->platform, s.platform);
  EXPECT_EQ(back->workload, s.workload);
  EXPECT_EQ(back->servers, s.servers);
  EXPECT_EQ(back->clients, s.clients);
  EXPECT_EQ(back->cross_shard, s.cross_shard);
  EXPECT_EQ(back->rate, s.rate);
  EXPECT_EQ(back->duration, s.duration);
  EXPECT_EQ(back->warmup, s.warmup);
  EXPECT_EQ(back->drain, s.drain);
  EXPECT_EQ(back->max_outstanding, s.max_outstanding);
  EXPECT_EQ(back->seed, s.seed);
  EXPECT_EQ(back->platform_seed, s.platform_seed);
  EXPECT_EQ(back->driver_seed, s.driver_seed);
  EXPECT_EQ(back->ycsb_records, s.ycsb_records);
  EXPECT_EQ(back->smallbank_accounts, s.smallbank_accounts);
  EXPECT_EQ(back->crashes, s.crashes);
  EXPECT_EQ(back->partition_start, s.partition_start);
  EXPECT_EQ(back->partition_end, s.partition_end);
  EXPECT_EQ(back->delay, s.delay);
  EXPECT_EQ(back->corrupt, s.corrupt);
}

TEST(RunSpec, FromJsonRejectsMissingSeed) {
  RunSpec s;
  util::Json run = s.ToJson();
  util::Json stripped = util::Json::Object();
  for (const auto& [k, v] : run.members()) {
    if (k != "driver_seed") stripped.Set(k, v);
  }
  EXPECT_FALSE(RunSpec::FromJson(stripped).ok());
}

// A dump's spec is checked field by field: a wrong type, a count that is
// negative, fractional or zero servers, a malformed crash entry or a
// partition healing before it starts is rejected with the field's name.
TEST(RunSpec, FromJsonRejectsWrongTypes) {
  util::Json crash_not_array = util::Json::Array();
  crash_not_array.Push(5);
  util::Json crash_id_string = util::Json::Array();
  crash_id_string.Push("0");
  crash_id_string.Push(5.0);
  util::Json crash_string_id = util::Json::Array();
  crash_string_id.Push(std::move(crash_id_string));
  struct Case {
    const char* key;
    util::Json value;
  };
  const Case kCases[] = {
      {"platform", util::Json(8)},
      {"workload", util::Json()},
      {"servers", util::Json("8")},
      {"servers", util::Json(-4)},
      {"servers", util::Json(0)},
      {"clients", util::Json(2.5)},
      {"seed", util::Json("1")},
      {"driver_seed", util::Json(true)},
      {"ycsb_records", util::Json(-1)},
      {"rate", util::Json("fast")},
      {"duration", util::Json::Object()},
      {"crashes", util::Json("none")},
      {"crashes", crash_not_array},
      {"crashes", crash_string_id},
      {"partition_start", util::Json(10)},  // partition_end stays -1
  };
  util::Json good = RunSpec{}.ToJson();
  ASSERT_TRUE(RunSpec::FromJson(good).ok());
  for (const Case& c : kCases) {
    util::Json bad = good;
    bad.Set(c.key, c.value);
    auto spec = RunSpec::FromJson(bad);
    ASSERT_FALSE(spec.ok()) << c.key << " = " << c.value.Dump(0);
    std::string field =
        std::string(c.key) == "partition_start" ? "partition_end" : c.key;
    EXPECT_NE(spec.status().ToString().find(field), std::string::npos)
        << spec.status().ToString();
  }
  // Every count and seed must be a whole number a double holds exactly.
  for (const char* key :
       {"servers", "clients", "seed", "platform_seed", "driver_seed",
        "max_outstanding", "ycsb_records", "smallbank_accounts"}) {
    for (double v : {1e30, -1.0, 0.5, 18446744073709551616.0}) {
      util::Json bad = good;
      bad.Set(key, v);
      auto spec = RunSpec::FromJson(bad);
      ASSERT_FALSE(spec.ok()) << key << " = " << v;
      EXPECT_NE(spec.status().ToString().find(key), std::string::npos)
          << spec.status().ToString();
    }
  }
}

// --- End-to-end dumps --------------------------------------------------------

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

/// Runs `spec` with the recorder armed and dumps the black box.
util::Json RecordedDump(const RunSpec& spec, FlightRecorder* rec) {
  workloads::RunSinks sinks;
  sinks.recorder = rec;
  auto run = workloads::RunStack::Create(spec, sinks);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  if (!run.ok()) return util::Json();
  (*run)->Execute();
  BlackboxTrigger trig{"explicit", "", "golden test"};
  return rec->ToJson(spec, trig);
}

/// Runs `platform_name` with the network split in half ({0, 1} | {2, 3})
/// during [5, 10) and dumps the black box.
util::Json PartitionedDump(const char* platform_name, FlightRecorder* rec) {
  RunSpec spec = BaseSpec(platform_name);
  spec.partition_start = 5.0;
  spec.partition_end = 10.0;
  return RecordedDump(spec, rec);
}

util::Json PartitionedPbftDump(FlightRecorder* rec) {
  return PartitionedDump("hyperledger", rec);
}

/// Runs `platform_name` with server 0 crashed at t=5 (never restarted,
/// as bbench --crash does) and dumps the black box.
util::Json CrashedDump(const char* platform_name, FlightRecorder* rec) {
  RunSpec spec = BaseSpec(platform_name);
  spec.crashes = {{0, 5.0}};
  return RecordedDump(spec, rec);
}

// The golden black boxes, one per consensus engine: each dump must
// validate, carry consensus/fault/commit records, and serialize
// byte-for-byte to the pinned digest (any change is a conscious golden
// update: print the new dump, re-verify, re-pin). This pins the whole
// recording pipeline — hook placement, record layout, name interning,
// slice traversal and JSON shape at once. PBFT, PoW and PoA run through
// a partition; Tendermint and Raft lose server 0 to a crash.
TEST(BlackboxGolden, PartitionedPbft4NodeByteForByte) {
  workloads::RegisterAllChaincodes();
  FlightRecorder rec;
  util::Json dump = PartitionedPbftDump(&rec);
  ASSERT_TRUE(ValidateBlackbox(dump).ok())
      << ValidateBlackbox(dump).ToString();

  // Every server recorded something; partition edges reached every node.
  ASSERT_EQ(rec.num_nodes(), 6u);  // 4 servers + 2 clients
  for (uint32_t n = 0; n < 4; ++n) EXPECT_GT(rec.recorded(n), 0u);

  std::string json = dump.Dump(2);
  FlightRecorder rec2;
  util::Json dump2 = PartitionedPbftDump(&rec2);
  EXPECT_EQ(json, dump2.Dump(2));  // reproducible before golden
  EXPECT_EQ(Sha256::Digest(json).ToHex(),
            "c6df644d110bb703494662d4e7006fbad64672d8dd92bff93be2e25cb2640f8d")
      << "dump starts:\n" << json.substr(0, 2000);

  struct Case {
    const char* platform;
    bool crash;  // else partitioned
    const char* digest;
  };
  const Case kCases[] = {
      {"ethereum", false,
       "55bc98a91a43309aa0b241c69aabd60315d4a04c968d177f4f87694e69862eb3"},
      {"parity", false,
       "b171c2a09f10ccb5325d4b21d8115482b340088f7f498f204ed332a14ee43a60"},
      {"erisdb", true,
       "7bfcc165ae04d24a46239b040cc47fdcb76c5e0df010f2dd1f43861a69449e43"},
      {"corda", true,
       "13084426c4148c716e1ca2170688172ac652e1e4ceb2cd77308abba870a36536"},
  };
  for (const Case& c : kCases) {
    auto dump_of = [&c](FlightRecorder* r) {
      return c.crash ? CrashedDump(c.platform, r)
                     : PartitionedDump(c.platform, r);
    };
    FlightRecorder a, b;
    util::Json da = dump_of(&a);
    ASSERT_TRUE(ValidateBlackbox(da).ok())
        << c.platform << ": " << ValidateBlackbox(da).ToString();
    for (uint32_t n = 0; n < 4; ++n) EXPECT_GT(a.recorded(n), 0u);
    std::string j = da.Dump(2);
    EXPECT_EQ(j, dump_of(&b).Dump(2)) << c.platform;  // reproducible
    EXPECT_EQ(Sha256::Digest(j).ToHex(), c.digest)
        << c.platform << ": dump is " << j.size() << " bytes";
  }
}

// Replay equivalence at the harness level: rebuild the run from the
// dumped RunSpec alone (as bbench --replay does from the file) and the
// re-run must produce a byte-identical black box.
TEST(Blackbox, ReplayFromRunSpecIsByteIdentical) {
  workloads::RegisterAllChaincodes();
  FlightRecorder rec;
  util::Json dump = PartitionedPbftDump(&rec);
  auto spec = RunSpec::FromJson(*dump.Get("run"));
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();

  FlightRecorder replay_rec;
  EXPECT_EQ(dump.Dump(2), RecordedDump(*spec, &replay_rec).Dump(2));
}

// Dump identity across sweep --jobs values: the same partitioned cases
// run serially and on 8 worker threads must serialize byte-identical
// black boxes — nothing wall-clock- or scheduling-dependent may leak
// into a dump.
TEST(Blackbox, DumpIdenticalAcrossSweepJobs) {
  workloads::RegisterAllChaincodes();
  auto sweep = [](size_t jobs) {
    bench::BenchArgs args;
    args.jobs = jobs;
    bench::SweepRunner runner("blackbox_jobs_test", args);
    auto recs = std::make_shared<
        std::vector<std::unique_ptr<FlightRecorder>>>();
    for (const char* platform : {"hyperledger", "ethereum"}) {
      recs->push_back(std::make_unique<FlightRecorder>());
      bench::SweepCase c;
      c.spec = BaseSpec(platform);
      c.spec.duration = 15;
      c.spec.drain = 5;
      c.spec.partition_start = 4.0;
      c.spec.partition_end = 8.0;
      c.sinks.recorder = recs->back().get();
      runner.Add(std::move(c));
    }
    EXPECT_TRUE(runner.Run(nullptr));
    std::vector<std::string> dumps;
    RunSpec spec;  // defaults: identity only needs a fixed spec
    BlackboxTrigger trig;
    for (auto& r : *recs) dumps.push_back(r->ToJson(spec, trig).Dump(2));
    return dumps;
  };
  std::vector<std::string> serial = sweep(1);
  std::vector<std::string> parallel = sweep(8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "case " << i;
  }
}

// --- Replay breakpoint -------------------------------------------------------

// The recorder's message-seq breakpoint must stop the simulation right
// after the matching send, and the truncated run's records must be a
// prefix of the full run's (the bbench --until contract).
TEST(Blackbox, BreakSeqStopsSimulationDeterministically) {
  workloads::RegisterAllChaincodes();
  auto run_until = [](uint64_t break_seq, FlightRecorder* rec) {
    RunSpec spec = BaseSpec("hyperledger");
    rec->set_break_seq(break_seq);
    workloads::RunSinks sinks;
    sinks.recorder = rec;
    auto run = workloads::RunStack::Create(spec, sinks);
    ASSERT_TRUE(run.ok());
    (*run)->driver().StartAll();
    (*run)->sim().RunUntil(spec.duration + spec.drain);
    if (break_seq > 0) {
      EXPECT_TRUE((*run)->sim().stop_requested());
      EXPECT_LT((*run)->sim().Now(), spec.duration);
    }
  };
  FlightRecorder full;
  run_until(0, &full);
  FlightRecorder truncated;
  run_until(200, &truncated);

  ASSERT_GT(truncated.num_nodes(), 0u);
  for (uint32_t n = 0; n < truncated.num_nodes(); ++n) {
    ASSERT_LE(truncated.recorded(n), full.recorded(n));
    ASSERT_EQ(truncated.evicted(n), 0u) << "truncated run wrapped";
    for (size_t i = 0; i < truncated.ring_size(n); ++i) {
      const auto& a = truncated.At(n, i);
      const auto& b = full.At(n, i);
      ASSERT_EQ(a.t, b.t) << "node " << n << " record " << i;
      ASSERT_EQ(a.kind, b.kind);
      ASSERT_EQ(a.id, b.id);
      ASSERT_EQ(truncated.Name(a.name), full.Name(b.name));
    }
  }
}

// --- Validation --------------------------------------------------------------

TEST(Blackbox, ValidatorRejectsTampering) {
  workloads::RegisterAllChaincodes();
  FlightRecorder rec(64);
  RunSpec spec = BaseSpec("hyperledger");
  spec.duration = 10;
  spec.drain = 5;
  workloads::RunSinks sinks;
  sinks.recorder = &rec;
  auto run = workloads::RunStack::Create(spec, sinks);
  ASSERT_TRUE(run.ok());
  (*run)->Execute();
  BlackboxTrigger trig;
  util::Json good = rec.ToJson(spec, trig);
  ASSERT_TRUE(ValidateBlackbox(good).ok())
      << ValidateBlackbox(good).ToString();

  util::Json bad_schema = rec.ToJson(spec, trig);
  bad_schema.Set("schema", "blockbench-blackbox-v999");
  EXPECT_FALSE(ValidateBlackbox(bad_schema).ok());

  util::Json no_run = rec.ToJson(spec, trig);
  no_run.Set("run", util::Json::Object());
  EXPECT_FALSE(ValidateBlackbox(no_run).ok());

  util::Json bad_ring = rec.ToJson(spec, trig);
  bad_ring.Set("ring_capacity", 0);
  EXPECT_FALSE(ValidateBlackbox(bad_ring).ok());
}

}  // namespace
}  // namespace bb::obs
