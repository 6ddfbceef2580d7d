// SweepRunner determinism and error handling: a parallel sweep must
// produce byte-identical report rows to the serial one (each RunStack
// owns its Simulation, so thread scheduling can't leak into results),
// rows must stream in case order, and bad configs must surface as
// Status instead of aborting the process.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.h"
#include "util/json.h"

namespace bb::bench {
namespace {

/// A 4-server, 2-client YCSB run of `platform`, short enough for a test.
obs::RunSpec SmallSpec(const char* platform) {
  obs::RunSpec spec = BaseSpec(platform);
  spec.servers = 4;
  spec.clients = 2;
  spec.rate = 10;
  spec.duration = 10;
  spec.drain = 5;
  spec.warmup = 2;
  spec.ycsb_records = 200;
  return spec;
}

// Small, fast sweep: 6 points across two platforms and three loads.
SweepRunner MakeRunner(const BenchArgs& args) {
  SweepRunner runner("sweep_test", args);
  for (const char* platform : {"corda", "hyperledger"}) {
    for (double rate : {5.0, 10.0, 20.0}) {
      obs::RunSpec spec = SmallSpec(platform);
      spec.rate = rate;
      runner.Add(std::move(spec), {{"platform", platform},
                                   {"rate", std::to_string(int(rate))}});
    }
  }
  return runner;
}

std::vector<std::string> FormattedRows(size_t jobs) {
  BenchArgs args;
  args.jobs = jobs;
  SweepRunner runner = MakeRunner(args);
  std::vector<std::string> rows;
  bool ok = runner.Run([&](size_t i, const SweepOutcome& o) {
    EXPECT_EQ(i, rows.size());  // rows stream in case order
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%zu|%.6f|%.6f|%.6f|%llu|%llu|%llu", i,
                  o.report.throughput, o.report.latency_mean,
                  o.report.latency_p99, (unsigned long long)o.report.submitted,
                  (unsigned long long)o.report.committed,
                  (unsigned long long)o.report.rejected);
    rows.push_back(buf);
  });
  EXPECT_TRUE(ok);
  return rows;
}

TEST(SweepRunnerTest, ParallelMatchesSerialByteForByte) {
  std::vector<std::string> serial = FormattedRows(1);
  std::vector<std::string> parallel = FormattedRows(8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "row " << i;
  }
}

TEST(SweepRunnerTest, BadPlatformNameIsAnError) {
  auto run = workloads::RunStack::Create(SmallSpec("no-such-platform"));
  EXPECT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument)
      << run.status().ToString();
}

TEST(SweepRunnerTest, BadConfigFailsTheRunWithoutAborting) {
  BenchArgs args;
  args.jobs = 1;
  SweepRunner runner("sweep_test_bad", args);
  SweepCase c;
  c.spec.duration = 1;
  c.options.emplace().block_tx_limit = 0;  // never Validate()-clean
  runner.Add(std::move(c));
  bool row_seen = false;
  bool ok = runner.Run([&](size_t, const SweepOutcome& o) {
    row_seen = true;
    EXPECT_FALSE(o.status.ok());
  });
  EXPECT_FALSE(ok);
  EXPECT_TRUE(row_seen);
}

TEST(SweepRunnerTest, HooksRunAndSeeThePlatform) {
  BenchArgs args;
  args.jobs = 2;
  SweepRunner runner("sweep_test_hooks", args);
  for (int i = 0; i < 2; ++i) {
    SweepCase c;
    c.spec = SmallSpec("corda");
    c.after = [](workloads::RunStack& run, SweepOutcome& out) {
      EXPECT_GT(out.report.submitted, 0u);
      out.values["blocks"] =
          double(run.platform().node(0).chain().main_chain_blocks());
    };
    runner.Add(std::move(c));
  }
  EXPECT_TRUE(runner.Run(nullptr));
  const auto& o = runner.outcomes();
  EXPECT_GT(o[0].values.at("blocks"), 0);
  // Identical configs, identical runs.
  EXPECT_EQ(o[0].values.at("blocks"), o[1].values.at("blocks"));
}

/// Parses the document at `path` and removes the file.
Result<util::Json> TakeJson(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::NotFound(path);
  std::string text;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());
  return util::Json::Parse(text);
}

TEST(SweepRunnerTest, JsonOutputParsesAndMatchesSchema) {
  std::string path = ::testing::TempDir() + "/sweep_test.json";
  BenchArgs args;
  args.jobs = 2;
  args.json_path = path;
  SweepRunner runner = MakeRunner(args);
  ASSERT_TRUE(runner.Run(nullptr));

  auto doc = TakeJson(path);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  ASSERT_TRUE(doc->is_object());
  EXPECT_EQ(doc->Get("schema")->AsString(), "blockbench-sweep-v1");
  EXPECT_EQ(doc->Get("bench")->AsString(), "sweep_test");
  const util::Json* rows = doc->Get("rows");
  ASSERT_NE(rows, nullptr);
  ASSERT_EQ(rows->items().size(), 6u);
  for (const util::Json& row : rows->items()) {
    EXPECT_EQ(row.Get("status")->AsString(), "Ok");
    ASSERT_NE(row.Get("metrics"), nullptr);
    EXPECT_GE(row.Get("metrics")->Get("throughput")->AsDouble(), 0.0);
    ASSERT_NE(row.Get("sim"), nullptr);
    EXPECT_GT(row.Get("sim")->Get("events")->AsUint(), 0u);
  }
}

// A row that committed nothing has no latency: its latency metrics are
// null, where 0 would read as the best value on the axis.
TEST(SweepRunnerTest, NothingCommittedWritesNullLatencies) {
  std::string path = ::testing::TempDir() + "/sweep_test_empty.json";
  BenchArgs args;
  args.jobs = 1;
  args.json_path = path;
  SweepRunner runner("sweep_test_empty", args);
  obs::RunSpec stalled = SmallSpec("hyperledger");
  stalled.crashes = {{2, 0.0}, {3, 0.0}};  // 2 of 4 PBFT servers: no quorum
  runner.Add(std::move(stalled), {{"run", "stalled"}});
  runner.Add(SmallSpec("hyperledger"), {{"run", "live"}});
  ASSERT_TRUE(runner.Run(nullptr));
  ASSERT_EQ(runner.outcomes()[0].report.committed, 0u);
  ASSERT_GT(runner.outcomes()[1].report.committed, 0u);

  auto doc = TakeJson(path);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const auto& rows = doc->Get("rows")->items();
  ASSERT_EQ(rows.size(), 2u);
  for (const char* key :
       {"latency_mean", "latency_p50", "latency_p95", "latency_p99"}) {
    SCOPED_TRACE(key);
    ASSERT_NE(rows[0].Get("metrics")->Get(key), nullptr);
    EXPECT_TRUE(rows[0].Get("metrics")->Get(key)->is_null());
    EXPECT_TRUE(rows[1].Get("metrics")->Get(key)->is_number());
  }
  EXPECT_EQ(rows[0].Get("metrics")->Get("throughput")->AsDouble(), 0.0);
}

}  // namespace
}  // namespace bb::bench
