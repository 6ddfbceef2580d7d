// The figure table, checked without running it: every entry has a grid
// of cases, a run function or both, builds its cases in quick and full
// mode, every case resolves to a platform the builder accepts and a spec
// that round-trips, labels tell cases apart, and what the printers and
// checks look up by label exists. Small runs check that an unmet shape
// check fails the figure, and how a run function's rows are written and
// which flags such a figure refuses.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <string>

#include "bench/figures.h"
#include "platform/registry.h"

namespace bb::bench {
namespace {

bool EveryCaseHas(const std::vector<SweepCase>& cases, const char* key) {
  return std::all_of(cases.begin(), cases.end(), [&](const SweepCase& c) {
    return std::any_of(c.labels.begin(), c.labels.end(),
                       [&](const auto& kv) { return kv.first == key; });
  });
}

size_t Matching(const std::vector<SweepCase>& cases, const Labels& want) {
  return size_t(std::count_if(cases.begin(), cases.end(),
                              [&](const SweepCase& c) {
    return std::all_of(want.begin(), want.end(), [&](const auto& kv) {
      return std::find(c.labels.begin(), c.labels.end(), kv) !=
             c.labels.end();
    });
  }));
}

TEST(FigureTable, NamesAreUniqueAndFound) {
  std::set<std::string> names;
  for (const Figure& f : Figures()) {
    EXPECT_TRUE(names.insert(f.name).second) << f.name;
    EXPECT_EQ(FindFigure(f.name), &f);
  }
  EXPECT_GE(names.size(), 24u);
  EXPECT_EQ(FindFigure("fig99_nosuch"), nullptr);
}

TEST(FigureTable, EveryEntryHasCasesOrARunFunction) {
  for (const Figure& f : Figures()) {
    SCOPED_TRACE(f.name);
    EXPECT_TRUE(f.cases != nullptr || f.run != nullptr);
    // Only fig14_hstore has both: its chain grid and the H-Store rows.
    EXPECT_EQ(f.cases != nullptr && f.run != nullptr,
              std::string(f.name) == "fig14_hstore");
  }
}

TEST(FigureTable, EveryCaseResolvesAndIsLabelledUniquely) {
  for (const Figure& f : Figures()) {
    if (f.cases == nullptr) continue;
    for (bool full : {false, true}) {
      SCOPED_TRACE(std::string(f.name) + (full ? " --full" : ""));
      std::vector<SweepCase> cases = f.cases(full);
      EXPECT_FALSE(cases.empty());
      std::set<Labels> seen;
      for (const SweepCase& c : cases) {
        SCOPED_TRACE(c.spec.platform);
        // RunStack::Create resolves spec.platform, or validates the
        // options a case edited from it.
        auto options = platform::StackOptionsFromString(c.spec.platform);
        EXPECT_TRUE(options.ok()) << options.status().ToString();
        if (c.options) {
          EXPECT_TRUE(c.options->Validate().ok());
        }
        auto spec = obs::RunSpec::FromJson(c.spec.ToJson());
        EXPECT_TRUE(spec.ok()) << spec.status().ToString();
        EXPECT_FALSE(c.labels.empty());
        EXPECT_TRUE(seen.insert(c.labels).second);
      }
    }
  }
}

TEST(FigureTable, TablesAndChecksNameLabelsTheCasesCarry) {
  for (const Figure& f : Figures()) {
    SCOPED_TRACE(f.name);
    EXPECT_TRUE(!f.columns.empty() || !f.series.empty() || !f.pivots.empty());
    // A run function's rows print through the columns only.
    EXPECT_TRUE(f.run == nullptr || !f.columns.empty());
    if (f.cases == nullptr) continue;
    for (bool full : {false, true}) {
      std::vector<SweepCase> cases = f.cases(full);
      for (const SeriesTable& t : f.series) {
        EXPECT_TRUE(t.split == nullptr || EveryCaseHas(cases, t.split));
      }
      for (const Pivot& p : f.pivots) {
        EXPECT_TRUE(EveryCaseHas(cases, p.rows));
        EXPECT_TRUE(EveryCaseHas(cases, p.cols));
        EXPECT_FALSE(p.values.empty());
      }
      for (const Check& c : f.checks) {
        EXPECT_EQ(Matching(cases, c.num), 1u) << c.what;
        EXPECT_EQ(Matching(cases, c.den), 1u) << c.what;
      }
    }
  }
}

// Two runs of one small spec: the throughput ratio between them is 1.
std::vector<SweepCase> TwoIdenticalRuns(bool) {
  std::vector<SweepCase> cases(2);
  for (size_t i = 0; i < 2; ++i) {
    cases[i].spec = BaseSpec("corda");
    cases[i].spec.servers = cases[i].spec.clients = 4;
    cases[i].spec.workload = "donothing";
    cases[i].spec.rate = 10;
    cases[i].spec.warmup = 2;
    cases[i].spec.duration = 10;
    cases[i].spec.drain = 5;
    cases[i].labels = {{"run", std::to_string(i)}};
  }
  return cases;
}

TEST(FigureTable, AShapeCheckBelowItsBoundFailsTheRun) {
  Figure fig{.name = "check_test",
             .title = "check test",
             .cases = TwoIdenticalRuns,
             .checks = {{"run 1 over run 0", {{"run", "1"}}, {{"run", "0"}},
                         1.5}}};
  BenchArgs args;
  args.jobs = 1;
  EXPECT_EQ(RunFigure(fig, args), 1);
  fig.checks.front().min = 1.0;
  EXPECT_EQ(RunFigure(fig, args), 0);
}

/// The "seconds" a run function's row measured.
Column Seconds() {
  return {"s", "%.1f", [](const SweepOutcome& o) {
            auto it = o.values.find("seconds");
            return it == o.values.end() ? NAN : it->second;
          }};
}

// Two rows of a run function: one Ok, one out of memory after 7 writes.
Status TwoRows(bool, std::vector<Row>* rows) {
  rows->push_back({{{"n", "1"}}, "Ok", {{"seconds", 0.5}, {"bytes", 64}}, {}});
  rows->push_back({{{"n", "2"}}, "OOM", {{"written", 7}}, {}});
  return Status::Ok();
}

Status Fails(bool, std::vector<Row>* rows) {
  rows->push_back({{{"n", "1"}}, "Ok", {{"seconds", 0.5}}, {}});
  return Status::Internal("stack failed");
}

TEST(FigureTable, RunFunctionRowsAreSweepRows) {
  Figure fig{.name = "rows_test",
             .title = "rows test",
             .run = TwoRows,
             .columns = {Seconds()}};
  BenchArgs args;
  args.json_path = ::testing::TempDir() + "/rows_test.json";
  ASSERT_EQ(RunFigure(fig, args), 0);
  std::FILE* f = std::fopen(args.json_path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string text;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  std::remove(args.json_path.c_str());
  auto doc = util::Json::Parse(text);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->Get("schema")->AsString(), "blockbench-sweep-v1");
  EXPECT_EQ(doc->Get("bench")->AsString(), "rows_test");
  const auto& rows = doc->Get("rows")->items();
  ASSERT_EQ(rows.size(), 2u);
  // An Ok row's numbers are its metrics, in order.
  EXPECT_EQ(rows[0].Dump(),
            R"({"labels":{"n":"1"},"status":"Ok",)"
            R"("metrics":{"seconds":0.5,"bytes":64}})");
  // Any other row's sit beside its status.
  EXPECT_EQ(rows[1].Dump(),
            R"({"labels":{"n":"2"},"status":"OOM","written":7})");
}

TEST(FigureTable, AFailedRunFunctionFailsTheFigure) {
  Figure fig{.name = "fails_test", .title = "fails test", .run = Fails,
             .columns = {Seconds()}};
  EXPECT_EQ(RunFigure(fig, BenchArgs{}), 1);
}

// A run function's rows are not RunStack runs: there is nothing to
// profile or account, so the flags are refused rather than ignored.
TEST(FigureTable, ARunFunctionRefusesProfileAndMem) {
  Figure fig{.name = "refuses_test", .title = "refuses test", .run = TwoRows,
             .columns = {Seconds()}};
  BenchArgs profile;
  profile.profile_prefix = ::testing::TempDir() + "/refused";
  EXPECT_EQ(RunFigure(fig, profile), 2);
  BenchArgs mem;
  mem.mem_prefix = ::testing::TempDir() + "/refused";
  EXPECT_EQ(RunFigure(fig, mem), 2);
}

}  // namespace
}  // namespace bb::bench
