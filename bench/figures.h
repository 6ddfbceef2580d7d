// The paper's figures as data. Each entry names a figure (its sweep
// JSON's "bench" field), builds its grid of SweepCases from BaseSpec
// and/or measures rows of its own with a run function, and says what to
// print: one row per case or row, series and pivot tables over what the
// cases' after hooks measured, a ledger audit per case, and the shapes
// the run must show. `bbench figure NAME` runs one:
//
//   bbench figure fig7_scalability [--full] [--jobs=N] [--json=PATH]
//                 [--profile=PREFIX] [--mem=PREFIX]
//
// Run functions measure what is not a grid of RunStack runs: real VM
// executions (fig11), real trie and store I/O (fig12, the statetree
// ablation), queries over a preloaded chain (fig13_analytics) and the
// H-Store baseline (fig14_hstore, beside its grid of chain runs).

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
  /// The grid of RunStack runs; null for a figure that only measures
  /// rows of its own.
  std::vector<SweepCase> (*cases)(bool full) = nullptr;
  /// Measures rows that are not RunStack runs, one at a time on the
  /// calling thread whatever --jobs says (several of them time their
  /// work, and in parallel would measure contention), before the grid
  /// runs. Its rows print in the figure's columns (a row's metrics and
  /// values are read as SweepOutcome::values; a row that is not Ok
  /// carries its status as a label) and pivots, and follow the grid's
  /// rows in the sweep JSON. A failure fails the figure. Such a figure
  /// rejects --profile and --mem.
  Status (*run)(bool full, std::vector<Row>* rows) = nullptr;
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
/// 1 a failed case or run function, output write, black-box dump or
/// check; 2 --profile or --mem given to a figure with a run function).
int RunFigure(const Figure& fig, const BenchArgs& args);

}  // namespace bb::bench

#endif  // BLOCKBENCH_BENCH_FIGURES_H_
