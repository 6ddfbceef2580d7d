// The figure table, checked without running it: every entry builds its
// cases in quick and full mode, every case resolves to a platform the
// builder accepts and a spec that round-trips, labels tell cases apart,
// and what the printers and checks look up by label exists. One small
// run checks that an unmet shape check fails the figure.

#include <gtest/gtest.h>

#include <algorithm>
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
  EXPECT_GE(names.size(), 18u);
  EXPECT_EQ(FindFigure("fig99_nosuch"), nullptr);
}

TEST(FigureTable, EveryCaseResolvesAndIsLabelledUniquely) {
  for (const Figure& f : Figures()) {
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

}  // namespace
}  // namespace bb::bench
