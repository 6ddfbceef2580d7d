// bbreport: one reader for every artifact a BLOCKBENCH run leaves
// behind. The first argument picks the subcommand:
//
//   bbreport bench    google-benchmark output and blockbench-sweep-v1
//                     documents; same-run microbenchmark ratio gates
//   bbreport trace    Chrome/Perfetto traces (bbench --trace): where
//                     commit latency goes
//   bbreport audit    blockbench-audit-v1 reports (bbench --audit) and
//                     the scenario expectations of the fault experiments
//   bbreport prof     blockbench-profile-v1 documents (--profile): where
//                     the wall clock went
//   bbreport blackbox blockbench-blackbox-v1 flight-recorder dumps: the
//                     post-mortem and the command that replays it
//   bbreport mem      blockbench-mem-v1 dumps and memory sweeps (--mem):
//                     where the logical bytes live, how they scale
//
// Every subcommand runs the same way: its flag table is parsed once (and
// generates its usage text), then each input is loaded, validated,
// rendered and gated in turn; gates over all inputs run after the last
// one. prof and mem also take --diff BEFORE AFTER. Errors go to stderr
// as "bbreport SUB: ...". Full usage: docs/OBSERVABILITY.md.
//
// Exit codes: 0 ok, 1 read/validation/gate failure, 2 usage, 4 audit
// expectation failed.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "obs/memtrack.h"
#include "obs/profiler.h"
#include "obs/recorder.h"
#include "obs/trace.h"
#include "report_common.h"
#include "util/histogram.h"
#include "util/json.h"

using bb::Status;
using bb::obs::Tracer;
using bb::util::Json;

namespace {

// --- Flags ---------------------------------------------------------------

/// One row of a subcommand's flag table. A row without a metavar is a
/// switch ("--diff"); one with a metavar takes "--name=VALUE", which
/// `valid` checks at parse time. Value flags may repeat: gates collect
/// every value, scalars read the last one.
struct FlagDef {
  const char* name;
  const char* metavar;
  bool (*valid)(const std::string&);
  const char* help;
};

struct Args {
  std::vector<std::string> inputs;
  std::map<std::string, std::vector<std::string>> flags;  // name -> values

  bool Has(const std::string& name) const { return flags.count(name) > 0; }
  double Num(const std::string& name, double fallback) const {
    auto it = flags.find(name);
    return it == flags.end() ? fallback
                             : std::strtod(it->second.back().c_str(), nullptr);
  }
  std::vector<std::string> All(const std::string& name) const {
    auto it = flags.find(name);
    return it == flags.end() ? std::vector<std::string>{} : it->second;
  }
};

/// Strict non-negative double ("1.03"); false on garbage.
bool ParseNumber(const std::string& s, double* out) {
  char* end = nullptr;
  *out = std::strtod(s.c_str(), &end);
  return !s.empty() && *end == '\0' && std::isfinite(*out) && *out >= 0;
}

bool IsNumber(const std::string& s) {
  double d;
  return ParseNumber(s, &d);
}

bool IsPositive(const std::string& s) {
  double d;
  return ParseNumber(s, &d) && d > 0;
}

bool IsPercent(const std::string& s) {
  double d;
  return ParseNumber(s, &d) && d > 0 && d <= 100;
}

// --- --gate-* spec grammar ---------------------------------------------------
//
// Two spec shapes:
//   * "NUM/DEN:BOUND"        two benchmark names and a ratio bound
//   * "FILE:SEL:BOUND"       a committed snapshot + one row selector
// Row selectors are "key=value" pairs against a sweep row's labels
// object; comma-separate pairs ("platform=hyperledger,n=16") to require
// all of them.

/// "NUM_NAME/DEN_NAME:BOUND". Benchmark names may themselves contain
/// '/' (google-benchmark args, e.g. BM_Sha256/64), so split at the
/// '/' that starts the denominator's "BM_" prefix; fall back to the
/// first '/' for names that don't follow the convention.
struct RatioGateSpec {
  std::string num, den;
  double bound = 0;
};

bool ParseRatioGateSpec(const std::string& v, RatioGateSpec* g) {
  size_t slash = v.rfind("/BM_");
  if (slash == std::string::npos) slash = v.find('/');
  size_t colon = v.rfind(':');
  if (slash == std::string::npos || colon == std::string::npos ||
      colon < slash || slash == 0) {
    return false;
  }
  g->num = v.substr(0, slash);
  g->den = v.substr(slash + 1, colon - slash - 1);
  return !g->num.empty() && !g->den.empty() &&
         ParseNumber(v.substr(colon + 1), &g->bound) && g->bound > 0;
}

bool IsRatioGate(const std::string& s) {
  RatioGateSpec g;
  return ParseRatioGateSpec(s, &g);
}

/// "FILE:SEL:BOUND" — current inputs vs a committed snapshot's row.
struct BaselineGateSpec {
  std::string file;
  std::string sel;
  double bound = 0;
};

bool ParseBaselineGateSpec(const std::string& v, BaselineGateSpec* g) {
  size_t last_colon = v.rfind(':');
  if (last_colon == std::string::npos) return false;
  std::string rest = v.substr(0, last_colon);
  size_t sel_colon = rest.rfind(':');
  if (sel_colon == std::string::npos) return false;
  g->file = rest.substr(0, sel_colon);
  g->sel = rest.substr(sel_colon + 1);
  return !g->file.empty() && !g->sel.empty() &&
         ParseNumber(v.substr(last_colon + 1), &g->bound) && g->bound > 0;
}

bool IsBaselineGate(const std::string& s) {
  BaselineGateSpec g;
  return ParseBaselineGateSpec(s, &g);
}

/// True when the sweep row's labels object satisfies every
/// comma-separated "key=value" pair of the selector.
bool RowMatchesLabels(const Json& row, const std::string& sel) {
  const Json* labels = row.Get("labels");
  if (labels == nullptr) return false;
  size_t start = 0;
  while (start <= sel.size()) {
    size_t comma = sel.find(',', start);
    std::string pair = sel.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    size_t eq = pair.find('=');
    if (eq == std::string::npos) return false;
    const Json* v = labels->Get(pair.substr(0, eq));
    if (v == nullptr || !v->is_string() || v->AsString() != pair.substr(eq + 1)) {
      return false;
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return true;
}

/// mem.peak_node_bytes of the first sweep row matching `sel`; negative
/// when no row matches or the field is absent.
double RowPeakNodeBytes(const Json& rows, const std::string& sel) {
  for (const Json& row : rows.items()) {
    const Json* mem = row.Get("mem");
    if (!RowMatchesLabels(row, sel) || mem == nullptr) continue;
    const Json* v = mem->Get("peak_node_bytes");
    if (v != nullptr && v->is_number()) return v->AsDouble();
  }
  return -1;
}

/// Validates one blockbench-sweep-v1 document beyond "it parsed": every
/// row needs labels and a status, and successful rows need their
/// metrics block.
Status ValidateSweep(const Json& doc) {
  const Json* rows = doc.Get("rows");
  if (rows == nullptr || !rows->is_array()) {
    return Status::InvalidArgument("sweep document without rows");
  }
  for (size_t i = 0; i < rows->items().size(); ++i) {
    const Json& row = rows->items()[i];
    if (!row.is_object() || row.Get("labels") == nullptr ||
        row.Get("status") == nullptr) {
      return Status::InvalidArgument("row " + std::to_string(i) +
                                     " missing labels/status");
    }
    const Json* status = row.Get("status");
    if (status->is_string() && status->AsString() == "Ok" &&
        row.Get("metrics") == nullptr) {
      return Status::InvalidArgument("OK row " + std::to_string(i) +
                                     " without metrics");
    }
  }
  return Status::Ok();
}

// --- The per-subcommand steps of the input loop ------------------------------

/// One subcommand's steps; Run() drives them over the inputs.
class Report {
 public:
  Report(const Args& args, std::string tool)
      : args_(args), tool_(std::move(tool)) {}
  Report(const Report&) = delete;
  Report& operator=(const Report&) = delete;
  virtual ~Report() = default;

  /// A usage error in the flag combination; empty when there is none.
  virtual std::string FlagConflict() const { return ""; }
  /// Schema check of one parsed document (the caller names the path).
  virtual Status Validate(const Json& doc) = 0;
  /// Prints one valid document and applies its own gates; returns the
  /// exit code they ask for (0 ok; 1 stops the loop).
  virtual int Render(const Json& doc, const std::string& path) = 0;
  /// Gates over every input, after the last one rendered.
  virtual int Finish() { return 0; }

  /// Prints `msg` under the subcommand's error prefix; returns 1.
  int Fail(const std::string& msg) const {
    std::fprintf(stderr, "%s: %s\n", tool_.c_str(), msg.c_str());
    return 1;
  }

 protected:

  /// Prints the pass line (stdout) or the FAILED line (stderr) and
  /// returns whether the gate held. `is_floor` selects "value must stay
  /// >= bound" (coverage floors) over "value must stay <= bound"
  /// (overhead / growth ceilings).
  bool Gate(const std::string& label, double value, double bound,
            bool is_floor = false) const {
    bool ok = is_floor ? value >= bound : value <= bound;
    if (ok) {
      std::printf("%s: gate %s = %.4f (%s %.4f) OK\n", tool_.c_str(),
                  label.c_str(), value, is_floor ? "min" : "max", bound);
    } else {
      std::fprintf(stderr, "%s: gate FAILED: %s = %.4f %s %.4f\n",
                   tool_.c_str(), label.c_str(), value,
                   is_floor ? "below" : "exceeds", bound);
    }
    return ok;
  }

  const Args& args_;
  const std::string tool_;
};

// --- bench -------------------------------------------------------------------
//
// Validates google-benchmark --benchmark_out files (detected by their
// "benchmarks" array) and blockbench-sweep-v1 documents (their "rows").
// --gate-ratio compares two microbenchmarks of the same run instead of a
// committed snapshot, which keeps it meaningful across machines (see
// docs/BENCHMARKING.md). A file written with --benchmark_repetitions
// carries one entry per repetition; the gate divides repetition i of NUM
// by repetition i of DEN, which random interleaving runs in the same
// round, and reads the median of those ratios. Without repetitions it
// divides the two benchmarks' first cpu_time.

class BenchReport : public Report {
 public:
  using Report::Report;

  Status Validate(const Json& doc) override {
    const Json* benchmarks = doc.Get("benchmarks");
    if (benchmarks == nullptr) {
      if (doc.Get("rows") != nullptr) return ValidateSweep(doc);
      return Status::InvalidArgument(
          "neither a sweep document (rows) nor google-benchmark output "
          "(benchmarks)");
    }
    if (!benchmarks->is_array()) {
      return Status::InvalidArgument("no benchmarks array");
    }
    for (const Json& b : benchmarks->items()) {
      if (!b.is_object() || b.Get("name") == nullptr) {
        return Status::InvalidArgument("benchmark entry without name");
      }
    }
    return Status::Ok();
  }

  int Render(const Json& doc, const std::string& path) override {
    const Json* benchmarks = doc.Get("benchmarks");
    if (benchmarks == nullptr) {
      std::printf("%s: %s: %zu sweep rows\n", tool_.c_str(), path.c_str(),
                  doc.Get("rows")->items().size());
      return 0;
    }
    for (const Json& b : benchmarks->items()) {
      const Json* cpu = b.Get("cpu_time");
      if (cpu == nullptr || !cpu->is_number()) continue;
      const Json* type = b.Get("run_type");
      const Json* rep = b.Get("repetition_index");
      if (type != nullptr && type->is_string() &&
          type->AsString() == "iteration" && rep != nullptr &&
          rep->is_number()) {
        reps_[b.Get("name")->AsString()].emplace(int64_t(rep->AsDouble()),
                                                 cpu->AsDouble());
      }
      cpu_.emplace(b.Get("name")->AsString(), cpu->AsDouble());
    }
    std::printf("%s: %s: %zu microbenchmarks\n", tool_.c_str(), path.c_str(),
                benchmarks->items().size());
    return 0;
  }

  int Finish() override {
    for (const std::string& spec : args_.All("--gate-ratio")) {
      RatioGateSpec g;
      ParseRatioGateSpec(spec, &g);
      auto num = cpu_.find(g.num), den = cpu_.find(g.den);
      if (num == cpu_.end() || den == cpu_.end()) {
        return Fail("gate benchmark missing: " +
                    (num == cpu_.end() ? g.num : g.den));
      }
      // (NUM, DEN) cpu_time pairs: one per repetition index both ran,
      // else the first sightings.
      std::vector<std::pair<double, double>> pairs;
      const auto& den_reps = reps_[g.den];
      for (const auto& [rep, num_cpu] : reps_[g.num]) {
        auto den_cpu = den_reps.find(rep);
        if (den_cpu != den_reps.end()) {
          pairs.emplace_back(num_cpu, den_cpu->second);
        }
      }
      if (pairs.empty()) pairs.emplace_back(num->second, den->second);
      std::vector<double> ratios;
      for (const auto& [num_cpu, den_cpu] : pairs) {
        if (den_cpu <= 0) {
          return Fail("gate denominator " + g.den + " has cpu_time 0");
        }
        ratios.push_back(num_cpu / den_cpu);
      }
      std::sort(ratios.begin(), ratios.end());
      const size_t mid = ratios.size() / 2;
      double ratio = ratios.size() % 2 == 1
                         ? ratios[mid]
                         : (ratios[mid - 1] + ratios[mid]) / 2;
      if (!Gate(g.num + "/" + g.den, ratio, g.bound)) return 1;
    }
    return 0;
  }

 private:
  // Benchmark name -> cpu_time of its first sighting.
  std::map<std::string, double> cpu_;
  // Benchmark name -> repetition index -> cpu_time (first sighting).
  std::map<std::string, std::map<int64_t, double>> reps_;
};

// --- trace -------------------------------------------------------------------
//
// Validation is structural: every event needs a known phase ('X', 'i',
// 'b', 'e', 'C', 'M', 's', 'f'), complete spans need a non-negative
// duration, every async 'b' needs a matching 'e' with the same
// (cat, name, id) at a later-or-equal timestamp, every counter sample
// ('C', the sampler's gauge tracks) needs an id and numeric-only args,
// and every flow finish ('f', the cross-node message arrows) needs a
// prior start ('s') with the same (cat, id) — an unmatched 's' is legal
// (the message was dropped in flight).
//
// Reporting decomposes the commit latency of every complete transaction
// (all four lifecycle legs present) into per-leg mean AND p95 — the
// mean legs telescope to exactly the client-measured mean latency; the
// p95 column makes tail regressions attributable to a specific leg.
// Named consensus spans ('X') are summarized per (cat, name).

constexpr size_t kNumLegs = Tracer::kNumTxSpans;

int LegIndex(const std::string& name) {
  for (size_t i = 0; i < kNumLegs; ++i) {
    if (name == Tracer::TxSpanName(i)) return int(i);
  }
  return -1;
}

struct SpanStats {
  uint64_t count = 0;
  double total_us = 0;
};

struct CounterStats {
  uint64_t samples = 0;
  std::map<std::string, uint64_t> tracks;  // id -> samples on that track
  double min = 0, max = 0;
};

struct TraceSummary {
  uint64_t events = 0, complete_spans = 0, instants = 0, async_pairs = 0;
  uint64_t counter_samples = 0;
  uint64_t flow_starts = 0, flow_ends = 0;
  std::map<std::string, SpanStats> x_spans;  // "cat/name" -> stats
  std::map<std::string, CounterStats> counters;  // "cat/name" -> stats
  // tx id -> per-leg duration in µs (-1 until seen).
  std::map<std::string, std::array<double, kNumLegs>> tx_legs;
};

Status Analyze(const Json& doc, TraceSummary* out) {
  const Json* events = doc.Get("traceEvents");
  if (events == nullptr || !events->is_array()) {
    return Status::InvalidArgument("no traceEvents array");
  }
  // Open async 'b' events: (cat, name, id) -> start ts.
  std::map<std::string, double> open_async;
  // Flow starts seen so far, keyed (cat, id) — flows bind across names
  // ("net.send" starts what "net.recv" finishes).
  std::unordered_set<std::string> flow_open;
  for (size_t i = 0; i < events->items().size(); ++i) {
    const Json& e = events->items()[i];
    std::string at = "event " + std::to_string(i);
    if (!e.is_object()) return Status::InvalidArgument(at + " not an object");
    const Json* ph = e.Get("ph");
    const Json* name = e.Get("name");
    if (ph == nullptr || !ph->is_string() || ph->AsString().size() != 1) {
      return Status::InvalidArgument(at + " has no phase");
    }
    if (name == nullptr || !name->is_string()) {
      return Status::InvalidArgument(at + " has no name");
    }
    char p = ph->AsString()[0];
    if (p == 'M') continue;  // metadata carries no timestamp
    ++out->events;
    const Json* ts = e.Get("ts");
    if (ts == nullptr || !ts->is_number()) {
      return Status::InvalidArgument(at + " has no timestamp");
    }
    const Json* cat = e.Get("cat");
    std::string key = (cat != nullptr ? cat->AsString() : "") + "/" +
                      name->AsString();
    switch (p) {
      case 'X': {
        const Json* dur = e.Get("dur");
        if (dur == nullptr || !dur->is_number() || dur->AsDouble() < 0) {
          return Status::InvalidArgument(at + " ('" + name->AsString() +
                                         "') has no valid duration");
        }
        SpanStats& s = out->x_spans[key];
        ++s.count;
        s.total_us += dur->AsDouble();
        ++out->complete_spans;
        break;
      }
      case 'i':
        ++out->instants;
        break;
      case 'C': {
        // Counter track: needs an id (node) and numeric-only args —
        // these are the obs::Sampler's gauge samples.
        const Json* id = e.Get("id");
        if (id == nullptr || !id->is_string()) {
          return Status::InvalidArgument(at + " counter without id");
        }
        const Json* args = e.Get("args");
        if (args == nullptr || !args->is_object() || args->size() == 0) {
          return Status::InvalidArgument(at + " counter without args");
        }
        double value = 0;
        for (const auto& [k, v] : args->members()) {
          if (!v.is_number()) {
            return Status::InvalidArgument(at + " counter arg '" + k +
                                           "' is not numeric");
          }
          value = v.AsDouble();
        }
        CounterStats& c = out->counters[key];
        if (c.samples == 0) {
          c.min = c.max = value;
        } else {
          c.min = std::min(c.min, value);
          c.max = std::max(c.max, value);
        }
        ++c.samples;
        ++c.tracks[id->AsString()];
        ++out->counter_samples;
        break;
      }
      case 'b':
      case 'e': {
        const Json* id = e.Get("id");
        if (id == nullptr || !id->is_string()) {
          return Status::InvalidArgument(at + " async event without id");
        }
        std::string akey = key + "/" + id->AsString();
        if (p == 'b') {
          if (!open_async.emplace(akey, ts->AsDouble()).second) {
            return Status::InvalidArgument(at + " duplicate async begin " +
                                           akey);
          }
        } else {
          auto it = open_async.find(akey);
          if (it == open_async.end()) {
            return Status::InvalidArgument(at + " async end without begin " +
                                           akey);
          }
          double dur_us = ts->AsDouble() - it->second;
          if (dur_us < 0) {
            return Status::InvalidArgument(at + " async span " + akey +
                                           " ends before it begins");
          }
          open_async.erase(it);
          ++out->async_pairs;
          int leg = LegIndex(name->AsString());
          if (leg >= 0) {
            auto [li, inserted] = out->tx_legs.emplace(
                id->AsString(), std::array<double, kNumLegs>{});
            if (inserted) li->second.fill(-1);
            li->second[size_t(leg)] = dur_us;
          }
        }
        break;
      }
      case 's':
      case 'f': {
        const Json* id = e.Get("id");
        if (id == nullptr || !id->is_string()) {
          return Status::InvalidArgument(at + " flow event without id");
        }
        std::string fkey =
            (cat != nullptr ? cat->AsString() : "") + "/" + id->AsString();
        if (p == 's') {
          // Re-used ids are illegal: each message seq starts one flow.
          if (!flow_open.insert(fkey).second) {
            return Status::InvalidArgument(at + " duplicate flow start " +
                                           fkey);
          }
          ++out->flow_starts;
        } else {
          if (flow_open.erase(fkey) == 0) {
            return Status::InvalidArgument(at + " flow finish without start " +
                                           fkey);
          }
          const Json* bp = e.Get("bp");
          if (bp == nullptr || bp->AsString() != "e") {
            return Status::InvalidArgument(at +
                                           " flow finish without bp:\"e\"");
          }
          ++out->flow_ends;
        }
        break;
      }
      default:
        return Status::InvalidArgument(at + " has unknown phase '" +
                                       ph->AsString() + "'");
    }
  }
  if (!open_async.empty()) {
    return Status::InvalidArgument(
        std::to_string(open_async.size()) +
        " async span(s) never closed, first: " + open_async.begin()->first);
  }
  return Status::Ok();
}

class TraceReport : public Report {
 public:
  using Report::Report;

  Status Validate(const Json& doc) override {
    t_ = TraceSummary{};
    return Analyze(doc, &t_);
  }

  int Render(const Json&, const std::string& path) override {
    std::printf("%s: %llu events OK (%llu spans, %llu instants, %llu async "
                "pairs, %llu counter samples, %llu/%llu flows, %zu txs)\n",
                path.c_str(), (unsigned long long)t_.events,
                (unsigned long long)t_.complete_spans,
                (unsigned long long)t_.instants,
                (unsigned long long)t_.async_pairs,
                (unsigned long long)t_.counter_samples,
                (unsigned long long)t_.flow_ends,
                (unsigned long long)t_.flow_starts, t_.tx_legs.size());

    std::array<double, kNumLegs> leg_total{};
    std::array<bb::Histogram, kNumLegs> leg_hist;
    bb::Histogram tx_totals;
    for (const auto& [id, legs] : t_.tx_legs) {
      bool all = true;
      for (double d : legs) all = all && d >= 0;
      if (!all) continue;
      double total = 0;
      for (size_t i = 0; i < kNumLegs; ++i) {
        leg_total[i] += legs[i];
        leg_hist[i].Add(legs[i]);
        total += legs[i];
      }
      tx_totals.Add(total);
    }
    uint64_t complete = tx_totals.count();
    if (complete > 0) {
      double total_mean_us = 0;
      for (double d : leg_total) total_mean_us += d / double(complete);
      double total_p95_us = tx_totals.Percentile(95);
      std::printf("\ncritical path of commit latency (%llu complete txs):\n",
                  (unsigned long long)complete);
      // Mean legs telescope to the mean commit latency exactly; the p95
      // column is each leg's own tail (p95 legs do not sum to the total
      // p95 — slow txs are rarely slow in every leg at once).
      for (size_t i = 0; i < kNumLegs; ++i) {
        double mean_us = leg_total[i] / double(complete);
        double p95_us = leg_hist[i].Percentile(95);
        std::printf("  %-15s mean %10.4f ms  %5.1f%%   p95 %10.4f ms\n",
                    Tracer::TxSpanName(i), mean_us / 1e3,
                    total_mean_us > 0 ? 100.0 * mean_us / total_mean_us : 0.0,
                    p95_us / 1e3);
      }
      std::printf("  %-15s mean %10.4f ms          p95 %10.4f ms\n", "total",
                  total_mean_us / 1e3, total_p95_us / 1e3);
    }

    if (!t_.x_spans.empty()) {
      std::printf("\nnamed spans:\n");
      for (const auto& [key, s] : t_.x_spans) {
        std::printf("  %-24s count %8llu  mean %10.4f ms\n", key.c_str(),
                    (unsigned long long)s.count,
                    s.count > 0 ? s.total_us / double(s.count) / 1e3 : 0.0);
      }
    }

    if (!t_.counters.empty()) {
      std::printf("\ncounter tracks (sampler gauges):\n");
      for (const auto& [key, c] : t_.counters) {
        std::printf("  %-24s %zu track(s)  %6llu samples  min %g  max %g\n",
                    key.c_str(), c.tracks.size(),
                    (unsigned long long)c.samples, c.min, c.max);
      }
    }
    return 0;
  }

 private:
  TraceSummary t_;  // of the document last validated
};

// --- audit -------------------------------------------------------------------
//
// Structural validation always runs: schema tag, required sections,
// fork-tree arithmetic (distinct = agreed + forked), per-node summaries
// consistent with the tree, series arrays of equal length. The
// expectation flags then encode what a scenario SHOULD have produced;
// a failed expectation exits 4 once every report is summarized.

const Json* Need(const Json& doc, const char* key, Json::Type type,
                 Status* status) {
  const Json* v = doc.Get(key);
  if (v == nullptr || v->type() != type) {
    *status = Status::InvalidArgument(std::string("missing or mistyped '") +
                                      key + "'");
    return nullptr;
  }
  return v;
}

Status ValidateAudit(const Json& doc) {
  Status status = Status::Ok();
  const Json* schema = Need(doc, "schema", Json::Type::kString, &status);
  if (schema == nullptr) return status;
  if (schema->AsString() != "blockbench-audit-v1") {
    return Status::InvalidArgument("unexpected schema '" + schema->AsString() +
                                   "'");
  }
  const Json* tree = Need(doc, "fork_tree", Json::Type::kObject, &status);
  const Json* nodes = Need(doc, "nodes", Json::Type::kArray, &status);
  const Json* series = Need(doc, "series", Json::Type::kObject, &status);
  const Json* inv = Need(doc, "invariants", Json::Type::kObject, &status);
  if (tree == nullptr || nodes == nullptr || series == nullptr ||
      inv == nullptr) {
    return status;
  }
  for (const char* key : {"distinct_blocks", "agreed_blocks", "forked_blocks",
                          "forked_pct", "fork_points", "branches",
                          "max_branch_depth", "wasted_weight"}) {
    if (Need(*tree, key, Json::Type::kNumber, &status) == nullptr) {
      return status;
    }
  }
  uint64_t distinct = tree->Get("distinct_blocks")->AsUint();
  uint64_t agreed = tree->Get("agreed_blocks")->AsUint();
  uint64_t forked = tree->Get("forked_blocks")->AsUint();
  if (agreed + forked != distinct) {
    return Status::InvalidArgument(
        "fork-tree arithmetic broken (agreed " + std::to_string(agreed) +
        " + forked " + std::to_string(forked) + " != distinct " +
        std::to_string(distinct) + ")");
  }
  if (nodes->size() == 0) {
    return Status::InvalidArgument("empty nodes section");
  }
  for (size_t i = 0; i < nodes->items().size(); ++i) {
    const Json& n = nodes->items()[i];
    std::string at = "node " + std::to_string(i);
    for (const char* key : {"node", "head_height", "known_blocks",
                            "canonical_blocks", "forked_blocks", "reorgs",
                            "divergence_depth"}) {
      if (n.Get(key) == nullptr || !n.Get(key)->is_number()) {
        return Status::InvalidArgument(at + " missing '" + key + "'");
      }
    }
    uint64_t known = n.Get("known_blocks")->AsUint();
    if (known > distinct) {
      return Status::InvalidArgument(
          at + " knows more blocks than the global tree holds");
    }
    if (n.Get("canonical_blocks")->AsUint() +
            n.Get("forked_blocks")->AsUint() != known) {
      return Status::InvalidArgument(at + " block accounting broken");
    }
  }
  const Json* sealed = series->Get("sealed");
  const Json* forked_bins = series->Get("forked");
  if (sealed == nullptr || !sealed->is_array() || forked_bins == nullptr ||
      !forked_bins->is_array() ||
      sealed->size() != forked_bins->size()) {
    return Status::InvalidArgument(
        "series arrays missing or of unequal length");
  }
  const Json* violations = inv->Get("violations");
  const Json* ok = doc.Get("ok");
  if (violations == nullptr || !violations->is_array() || ok == nullptr ||
      !ok->is_bool()) {
    return Status::InvalidArgument("invariants section malformed");
  }
  if (ok->AsBool() != (violations->size() == 0)) {
    return Status::InvalidArgument("'ok' contradicts the violations list");
  }
  return Status::Ok();
}

class AuditReport : public Report {
 public:
  using Report::Report;

  std::string FlagConflict() const override {
    return args_.Has("--fail-on-violation") && args_.Has("--expect-violation")
               ? "--fail-on-violation and --expect-violation conflict"
               : "";
  }

  Status Validate(const Json& doc) override { return ValidateAudit(doc); }

  int Render(const Json& doc, const std::string& path) override {
    const Json* tree = doc.Get("fork_tree");
    size_t violations = doc.Get("invariants")->Get("violations")->size();
    double forked_pct = tree->Get("forked_pct")->AsDouble();
    const Json* rec = doc.Get("recovery");
    double gap = rec != nullptr && rec->Get("gap_seconds") != nullptr
                     ? rec->Get("gap_seconds")->AsDouble()
                     : -1;
    std::printf("%s: %llu blocks, %llu forked (%.1f%%), max branch depth "
                "%llu, %zu violation(s)",
                path.c_str(),
                (unsigned long long)tree->Get("distinct_blocks")->AsUint(),
                (unsigned long long)tree->Get("forked_blocks")->AsUint(),
                forked_pct,
                (unsigned long long)tree->Get("max_branch_depth")->AsUint(),
                violations);
    if (gap >= 0) std::printf(", recovery gap %.1f s", gap);
    std::printf("\n");

    int rc = 0;
    auto unmet = [&](const std::string& what) {
      Fail(path + ": " + what);
      rc = 4;
    };
    if (args_.Has("--fail-on-violation") && violations > 0) {
      unmet(std::to_string(violations) + " safety violation(s) recorded");
    }
    if (args_.Has("--expect-violation") && violations == 0) {
      unmet("expected a safety violation, found none — the scenario did "
            "not bite");
    }
    char bound[96];
    double min_pct = args_.Num("--min-forked-pct", -1);
    if (min_pct >= 0 && forked_pct < min_pct) {
      std::snprintf(bound, sizeof(bound), "%.2f below expected minimum %.2f",
                    forked_pct, min_pct);
      unmet(std::string("forked_pct ") + bound);
    }
    double max_pct = args_.Num("--max-forked-pct", -1);
    if (max_pct >= 0 && forked_pct > max_pct) {
      std::snprintf(bound, sizeof(bound), "%.2f above expected maximum %.2f",
                    forked_pct, max_pct);
      unmet(std::string("forked_pct ") + bound);
    }
    if (args_.Has("--require-recovery") && gap < 0) {
      unmet("no post-heal recovery recorded");
    }
    return rc;
  }
};

// --- prof --------------------------------------------------------------------

class ProfReport : public Report {
 public:
  using Report::Report;

  Status Validate(const Json& doc) override {
    return bb::obs::ValidateProfile(doc);
  }

  int Render(const Json& doc, const std::string& path) override {
    double duration = doc.Get("duration_seconds")->AsDouble();
    uint64_t threads =
        doc.Get("threads") != nullptr ? doc.Get("threads")->AsUint() : 0;
    std::printf("%s: OK (%.3fs wall, %llu thread%s)\n", path.c_str(),
                duration, (unsigned long long)threads,
                threads == 1 ? "" : "s");
    std::fputs(bb::obs::RenderProfileAttribution(doc).c_str(), stdout);
    double min_attributed = args_.Num("--min-attributed", -1);
    if (min_attributed > 0 &&
        !Gate(path + " attributed%", 100.0 * bb::obs::AttributedFraction(doc),
              min_attributed, /*is_floor=*/true)) {
      return 1;
    }
    std::printf("\n");
    return 0;
  }
};

// --- blackbox ----------------------------------------------------------------
//
// For every dump: the trigger and run summary, the newest 40 records of
// the per-node interleaved timeline (causal-slice records marked '*'),
// the first height at which two nodes' committed chains diverge (the
// violation's footprint), and the bbench --replay command that re-runs
// the recorded configuration deterministically.

constexpr size_t kBlackboxTimeline = 40;

class BlackboxReport : public Report {
 public:
  using Report::Report;

  Status Validate(const Json& doc) override {
    return bb::obs::ValidateBlackbox(doc);
  }

  int Render(const Json& doc, const std::string& path) override {
    std::printf("%s: OK\n%s", path.c_str(),
                bb::obs::RenderBlackboxSummary(doc).c_str());
    std::string timeline =
        bb::obs::RenderBlackboxTimeline(doc, kBlackboxTimeline);
    std::printf("\n%s", timeline.c_str());
    std::string divergence = bb::obs::FirstDivergence(doc);
    if (!divergence.empty()) {
      std::printf("\nfirst divergence: %s\n", divergence.c_str());
    } else {
      std::printf("\nfirst divergence: none (all commits agree)\n");
    }
    std::printf("replay: bbench --replay=%s\n", path.c_str());
    return 0;
  }
};

// --- mem ---------------------------------------------------------------------
//
// Inputs are mem dumps (validated, attributed, --gate-peak-bytes) or
// blockbench-sweep-v1 documents whose rows carry "mem" blocks and
// "platform"/"n" labels (fig_memscale). --gate-scaling fits
// log(mem.peak_node_bytes) against log(n) per platform by least squares
// and fails when a platform's exponent exceeds the bound; the
// quorum-broadcast BFT platforms are expected super-linear and exempt.
// --gate-vs-baseline compares the peak_node_bytes of one selected row
// against a committed snapshot.

/// Platform labels the scaling gate reports but never fails.
const char* const kScalingExempt[] = {"hyperledger", "fabric", "erisdb"};

/// (n, bytes) points per platform label for one mem-block metric,
/// harvested from every sweep row carrying a mem block. Ordered map:
/// deterministic output.
using ScalingPoints = std::map<std::string, std::vector<std::pair<double, double>>>;

void CollectScalingPoints(const Json& rows, const char* key,
                          ScalingPoints* points) {
  for (const Json& row : rows.items()) {
    const Json* labels = row.Get("labels");
    const Json* mem = row.Get("mem");
    if (labels == nullptr || mem == nullptr) continue;
    const Json* platform = labels->Get("platform");
    const Json* n = labels->Get("n");
    const Json* peak = mem->Get(key);
    if (platform == nullptr || !platform->is_string() || n == nullptr ||
        peak == nullptr || !peak->is_number()) {
      continue;
    }
    double nodes = n->is_number() ? n->AsDouble()
                                  : std::atof(n->AsString().c_str());
    if (nodes > 0 && peak->AsDouble() > 0) {
      (*points)[platform->AsString()].emplace_back(nodes, peak->AsDouble());
    }
  }
}

/// Least-squares slope of log(peak) over log(n) — the growth exponent
/// (1 = linear, 2 = quadratic). NAN with fewer than two distinct sizes.
double FitExponent(const std::vector<std::pair<double, double>>& pts) {
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (const auto& [n, peak] : pts) {
    double x = std::log(n), y = std::log(peak);
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  double count = double(pts.size());
  double var = sxx - sx * sx / count;
  if (!(var > 1e-12)) return std::nan("");
  return (sxy - sx * sy / count) / var;
}

class MemReport : public Report {
 public:
  using Report::Report;

  Status Validate(const Json& doc) override {
    return doc.Get("rows") != nullptr ? ValidateSweep(doc)
                                      : bb::obs::ValidateMemDump(doc);
  }

  int Render(const Json& doc, const std::string& path) override {
    if (const Json* rows = doc.Get("rows")) {
      // Rows without a mem block (the sweep ran without --mem) are
      // skipped, which the gates in Finish() then report as missing
      // rather than silently passing.
      size_t with_mem = 0;
      for (const Json& row : rows->items()) {
        if (row.Get("mem") != nullptr) ++with_mem;
      }
      std::printf("%s: %s: %zu sweep rows, %zu with mem blocks\n",
                  tool_.c_str(), path.c_str(), rows->items().size(), with_mem);
      CollectScalingPoints(*rows, "peak_node_bytes", &scaling_points_);
      CollectScalingPoints(*rows, "cluster_peak", &cluster_scaling_points_);
      sweeps_.push_back(*rows);
      return 0;
    }
    std::printf("%s: OK\n", path.c_str());
    std::fputs(bb::obs::RenderMemAttribution(doc).c_str(), stdout);
    double gate_peak_bytes = args_.Num("--gate-peak-bytes", -1);
    if (gate_peak_bytes > 0) {
      const Json* cluster = doc.Get("cluster");
      double peak = cluster != nullptr && cluster->Get("peak") != nullptr
                        ? cluster->Get("peak")->AsDouble()
                        : -1;
      if (!Gate(path + " cluster peak bytes", peak, gate_peak_bytes)) return 1;
    }
    std::printf("\n");
    return 0;
  }

  int Finish() override {
    if (args_.Has("--gate-scaling") && ScalingGate() != 0) return 1;
    for (const std::string& spec : args_.All("--gate-vs-baseline")) {
      BaselineGateSpec g;
      ParseBaselineGateSpec(spec, &g);
      auto doc = bb::tools::LoadJson(g.file);
      if (!doc.ok()) return Fail("baseline: " + doc.status().ToString());
      const Json* rows = doc->Get("rows");
      if (rows == nullptr) {
        return Fail("baseline " + g.file + " has no sweep rows");
      }
      double baseline = RowPeakNodeBytes(*rows, g.sel);
      double current = -1;
      for (const Json& sweep : sweeps_) {
        current = RowPeakNodeBytes(sweep, g.sel);
        if (current >= 0) break;
      }
      if (baseline <= 0 || current < 0) {
        return Fail("baseline gate rows missing: " + g.sel + " in " + g.file);
      }
      if (!Gate("peak-vs-baseline " + g.sel + " (" + g.file + ")",
                current / baseline, g.bound)) {
        return 1;
      }
    }
    return 0;
  }

 private:
  int ScalingGate() const {
    if (scaling_points_.empty()) {
      return Fail("--gate-scaling found no sweep rows with mem blocks and "
                  "platform/n labels");
    }
    for (const auto& [platform, pts] : scaling_points_) {
      double exp = FitExponent(pts);
      if (std::isnan(exp)) {
        return Fail("scaling fit needs >= 2 cluster sizes for " + platform +
                    " (got " + std::to_string(pts.size()) + " points)");
      }
      // The cluster-wide exponent (~ per-node exponent + 1) is where
      // quorum-broadcast protocols show their O(N^2) curve; printed for
      // every platform, never gated.
      auto cit = cluster_scaling_points_.find(platform);
      double cluster_exp = cit != cluster_scaling_points_.end()
                               ? FitExponent(cit->second)
                               : std::nan("");
      bool exempt = std::find(std::begin(kScalingExempt),
                              std::end(kScalingExempt),
                              platform) != std::end(kScalingExempt);
      std::printf("%s: scaling %s: peak_node_bytes ~ N^%.2f, "
                  "cluster_peak ~ N^%.2f over %zu points%s\n",
                  tool_.c_str(), platform.c_str(), exp, cluster_exp,
                  pts.size(), exempt ? " (exempt)" : "");
      if (!exempt && !Gate("scaling exponent " + platform, exp,
                           args_.Num("--gate-scaling", -1))) {
        return 1;
      }
    }
    return 0;
  }

  ScalingPoints scaling_points_;          // per-node peak vs N (the gate)
  ScalingPoints cluster_scaling_points_;  // cluster peak vs N (informational)
  std::vector<Json> sweeps_;  // rows of every sweep input, for the baselines
};

// --- --diff BEFORE AFTER (prof, mem) -----------------------------------------

/// A subcommand's diff mode: both inputs pass `validate`, then `render`
/// prints their deltas under "TITLE: BEFORE -> AFTER".
struct DiffSpec {
  const char* title = nullptr;  // nullptr: no --diff
  Status (*validate)(const Json&) = nullptr;
  std::string (*render)(const Json&, const Json&) = nullptr;
};

class DiffReport : public Report {
 public:
  DiffReport(const Args& args, std::string tool, const DiffSpec& spec)
      : Report(args, std::move(tool)), spec_(spec) {}

  Status Validate(const Json& doc) override { return spec_.validate(doc); }

  int Render(const Json& doc, const std::string&) override {
    docs_.push_back(doc);
    return 0;
  }

  int Finish() override {
    std::printf("%s: %s -> %s\n", spec_.title, args_.inputs[0].c_str(),
                args_.inputs[1].c_str());
    std::fputs(spec_.render(docs_[0], docs_[1]).c_str(), stdout);
    return 0;
  }

 private:
  const DiffSpec& spec_;
  std::vector<Json> docs_;  // BEFORE, AFTER
};

// --- Subcommand table, usage, driver -----------------------------------------

struct Sub {
  const char* name;
  const char* operands;  // the positional inputs, for the usage line
  std::vector<FlagDef> flags;
  DiffSpec diff;
  std::unique_ptr<Report> (*make)(const Args&, std::string);
};

template <typename R>
std::unique_ptr<Report> Make(const Args& args, std::string tool) {
  return std::make_unique<R>(args, std::move(tool));
}

const FlagDef kDiffFlag = {
    "--diff", nullptr, nullptr,
    "compare exactly two inputs, BEFORE AFTER: per-subsystem deltas, "
    "largest absolute delta first"};

const Sub kSubs[] = {
    {"bench", "FILE.json...",
     {{"--gate-ratio", "NUM/DEN:MAX", IsRatioGate,
       "fail when the cpu_time ratio of two benchmarks of the same run "
       "exceeds MAX (with repetitions, the median of the ratios of "
       "repetitions with equal index; repeatable)"}},
     {}, Make<BenchReport>},
    {"trace", "TRACE.json...", {}, {}, Make<TraceReport>},
    {"audit", "REPORT.json...",
     {{"--fail-on-violation", nullptr, nullptr,
       "exit 4 when a report records any safety-invariant violation"},
      {"--expect-violation", nullptr, nullptr,
       "exit 4 when a report records none (the scenario did not bite)"},
      {"--min-forked-pct", "X", IsNumber, "exit 4 when forked_pct < X"},
      {"--max-forked-pct", "X", IsNumber, "exit 4 when forked_pct > X"},
      {"--require-recovery", nullptr, nullptr,
       "exit 4 when no post-heal recovery gap is recorded"}},
     {}, Make<AuditReport>},
    {"prof", "PROFILE.json...",
     {{"--min-attributed", "PCT", IsPercent,
       "fail when under PCT% of the wall time is attributed to named "
       "subsystems"},
      kDiffFlag},
     {"profile diff", bb::obs::ValidateProfile, bb::obs::RenderProfileDiff},
     Make<ProfReport>},
    {"blackbox", "DUMP.json...", {}, {}, Make<BlackboxReport>},
    {"mem", "DUMP.mem.json|SWEEP.json...",
     {{"--gate-peak-bytes", "N", IsPositive,
       "fail when a dump's cluster-wide concurrent peak exceeds N bytes"},
      {"--gate-scaling", "MAXEXP", IsPositive,
       "fail when a sweep platform's per-node peak grows faster than "
       "N^MAXEXP (hyperledger, fabric and erisdb exempt)"},
      {"--gate-vs-baseline", "FILE:SEL:MAX", IsBaselineGate,
       "fail when the SEL row's per-node peak over the snapshot FILE's "
       "exceeds MAX (repeatable)"},
      kDiffFlag},
     {"mem diff", bb::obs::ValidateMemDump, bb::obs::RenderMemDiff},
     Make<MemReport>},
};

/// Prints `msg` and the usage text (of `only`, or of every subcommand
/// when null) to stderr; returns the usage exit code.
int Usage(const Sub* only, const std::string& msg) {
  std::fprintf(stderr, "%s\n", msg.c_str());
  const char* lead = "usage:";
  for (const Sub& sub : kSubs) {
    if (only != nullptr && only != &sub) continue;
    std::fprintf(stderr, "%s bbreport %s%s %s\n", lead, sub.name,
                 sub.flags.empty() ? "" : " [flags]", sub.operands);
    lead = "      ";
    if (only == nullptr) continue;
    for (const FlagDef& f : sub.flags) {
      std::string spelled = f.name;
      if (f.metavar != nullptr) spelled += std::string("=") + f.metavar;
      std::fprintf(stderr, "  %-32s %s\n", spelled.c_str(), f.help);
    }
  }
  return 2;
}

/// Splits argv (after the subcommand) into inputs and table flags;
/// returns the usage error, empty when there is none.
std::string ParseArgs(const Sub& sub, int argc, char** argv, Args* args) {
  for (int i = 2; i < argc; ++i) {
    std::string s = argv[i];
    if (s.rfind("--", 0) != 0) {
      args->inputs.push_back(s);
      continue;
    }
    size_t eq = s.find('=');
    std::string name = s.substr(0, eq);
    const FlagDef* def = nullptr;
    for (const FlagDef& f : sub.flags) {
      if (name == f.name) def = &f;
    }
    bool takes_value = eq != std::string::npos;
    if (def == nullptr || (def->metavar != nullptr) != takes_value) {
      return "unknown flag " + s;
    }
    std::string value = takes_value ? s.substr(eq + 1) : "";
    if (def->valid != nullptr && !def->valid(value)) {
      return "bad " + name + " value " + value;
    }
    args->flags[name].push_back(value);
  }
  if (args->inputs.empty()) return "no input files";
  if (args->Has("--diff") &&
      (args->inputs.size() != 2 || args->flags.size() != 1)) {
    return "--diff takes exactly BEFORE AFTER and no other flag";
  }
  return "";
}

int Run(const Sub& sub, int argc, char** argv) {
  const std::string tool = std::string("bbreport ") + sub.name;
  Args args;
  std::string error = ParseArgs(sub, argc, argv, &args);
  std::unique_ptr<Report> report;
  if (args.Has("--diff")) {
    report = std::make_unique<DiffReport>(args, tool, sub.diff);
  } else {
    report = sub.make(args, tool);
  }
  if (error.empty()) error = report->FlagConflict();
  if (!error.empty()) return Usage(&sub, tool + ": " + error);

  int rc = 0;
  for (const std::string& path : args.inputs) {
    auto doc = bb::tools::LoadJson(path);
    if (!doc.ok()) return report->Fail(doc.status().ToString());
    Status s = report->Validate(*doc);
    if (!s.ok()) return report->Fail(path + ": " + s.ToString());
    int code = report->Render(*doc, path);
    if (code == 1) return 1;
    rc = std::max(rc, code);
  }
  return rc != 0 ? rc : report->Finish();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage(nullptr, "bbreport: no subcommand");
  for (const Sub& sub : kSubs) {
    if (sub.name == std::string(argv[1])) return Run(sub, argc, argv);
  }
  return Usage(nullptr, std::string("bbreport: unknown subcommand ") + argv[1]);
}
