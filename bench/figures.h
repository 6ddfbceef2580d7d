// The paper's sweep figures as data. Each entry names a figure (its
// sweep JSON's "bench" field), builds its grid of SweepCases from
// BaseSpec, and says what to print: one row per case, series and pivot
// tables over what the cases' after hooks measured, a ledger audit per
// case, and the shapes the run must show. `bbench figure NAME` runs one:
//
//   bbench figure fig7_scalability [--full] [--jobs=N] [--json=PATH]
//                 [--profile=PREFIX] [--mem=PREFIX]
//
// The figures that are not grids of runs (fig11, fig12, fig13_analytics,
// fig14_hstore and two ablations) stay bespoke mains in bench/.

#ifndef BLOCKBENCH_BENCH_FIGURES_H_
#define BLOCKBENCH_BENCH_FIGURES_H_

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common.h"

namespace bb::bench {

using Labels = std::vector<std::pair<std::string, std::string>>;

/// One printed number: its header, the printf format that sets its
/// precision, and where it comes from. A NaN value prints as "-".
struct Column {
  const char* name;
  const char* format;
  std::function<double(const SweepOutcome&)> value;
};

/// Series the after hooks recorded (SweepOutcome::series), x down the
/// side and one column per case and series. With `split`, each value of
/// that label gets its own table.
struct SeriesTable {
  const char* title;  // null: none
  const char* x;      // header of the x column
  std::vector<std::pair<const char*, const char*>> series;  // name, format
  const char* split = nullptr;
};

/// One line per value of the `rows` label and one column per value of
/// the `cols` label and value column. Where several cases share a cell,
/// the one with the largest first value fills it (Fig 5(a)'s peak).
struct Pivot {
  const char* title;  // null: none
  const char* rows;
  const char* cols;
  std::vector<Column> values;
};

/// A shape the run must show, or it exits 1: the case labelled `num`
/// reaches at least `min` times the throughput of the case labelled
/// `den` (checked when `den` committed anything).
struct Check {
  const char* what;
  Labels num, den;
  double min;
};

struct Figure {
  const char* name;  // the sweep JSON's "bench" field
  const char* title;
  std::vector<SweepCase> (*cases)(bool full);
  std::vector<Column> columns = {};  // one row per case, after its labels
  std::vector<SeriesTable> series = {};
  std::vector<Pivot> pivots = {};
  /// Audit each case's ledger; a violation dumps the case's black box
  /// to <prefix>-<labels>.blackbox.json (prefix: the name up to '_').
  bool audit = false;
  /// Track memory in every case, even without --mem.
  bool mem = false;
  std::vector<Check> checks = {};
};

/// Every figure, in the order `bbench` lists them.
const std::vector<Figure>& Figures();
/// The figure called `name`, or null.
const Figure* FindFigure(const std::string& name);
/// Runs `fig` and prints its tables; the exit code for main() (0 ok,
/// 1 a failed case, output write, black-box dump or check).
int RunFigure(const Figure& fig, const BenchArgs& args);

}  // namespace bb::bench

#endif  // BLOCKBENCH_BENCH_FIGURES_H_
