// mem_report: validates blockbench-mem-v1 dumps (written by
// bbench --mem / the bench binaries' --mem=PREFIX) and prints where the
// simulated cluster's logical bytes live; also fits and gates how
// per-node memory scales with cluster size.
//
//   mem_report DUMP.mem.json...
//       Validate each dump (schema shape plus the cross-sum tamper
//       checks) and print its subsystem attribution table.
//
//   mem_report --diff BEFORE.json AFTER.json
//       Per-subsystem peak deltas, largest absolute delta first — the
//       memory analogue of prof_report --diff.
//
//   mem_report --gate-peak-bytes=N DUMP.mem.json...
//       Fail when any dump's cluster-wide concurrent peak exceeds N.
//
//   mem_report --gate-scaling=MAXEXP SWEEP.json...
//       Read blockbench-sweep-v1 documents whose rows carry "mem"
//       blocks and "platform"/"n" labels (bench_fig_memscale), fit
//       log(mem.peak_node_bytes) against log(n) per platform by least
//       squares, and fail when a non-exempt platform's exponent
//       exceeds MAXEXP. Quorum-broadcast BFT platforms are expected
//       super-linear and exempt by default (--scaling-exempt).
//
//   mem_report --scaling-exempt=LIST
//       Comma-separated platform labels the scaling gate skips
//       (default: hyperledger,fabric,erisdb).
//
//   mem_report --gate-vs-baseline=FILE:SEL:MAX SWEEP.json...
//       Compare mem.peak_node_bytes of the row matching SEL (comma-
//       separated key=value label pairs, e.g. platform=hyperledger,n=16)
//       against the committed snapshot FILE; fail when current/baseline
//       exceeds MAX.
//
// Exit codes: 0 all files valid (and gates met), 1 validation/read/gate
// failure, 2 usage.

#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "obs/memtrack.h"
#include "report_common.h"
#include "util/json.h"

using bb::util::Json;

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: mem_report [--gate-peak-bytes=N] DUMP.mem.json...\n"
      "       mem_report --diff BEFORE.json AFTER.json\n"
      "       mem_report [--gate-scaling=MAXEXP] [--scaling-exempt=LIST]\n"
      "                  [--gate-vs-baseline=FILE:SEL:MAX]... SWEEP.json...\n");
  return 2;
}

bb::Result<Json> LoadDump(const std::string& path) {
  auto doc = bb::tools::LoadJson(path);
  if (!doc.ok()) return doc.status();
  bb::Status s = bb::obs::ValidateMemDump(*doc);
  if (!s.ok()) return bb::Status::InvalidArgument(path + ": " + s.ToString());
  return *doc;
}

bool InList(const std::string& csv, const std::string& item) {
  size_t start = 0;
  while (start <= csv.size()) {
    size_t comma = csv.find(',', start);
    std::string tok = csv.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (tok == item) return true;
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return false;
}

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

}  // namespace

int main(int argc, char** argv) {
  bool diff = false;
  double gate_peak_bytes = -1;
  double gate_scaling = -1;
  std::string scaling_exempt = "hyperledger,fabric,erisdb";
  std::vector<bb::tools::BaselineGateSpec> baseline_gates;
  std::vector<std::string> inputs;
  for (int i = 1; i < argc; ++i) {
    std::string s = argv[i];
    if (s == "--diff") {
      diff = true;
    } else if (s.rfind("--gate-peak-bytes=", 0) == 0) {
      if (!bb::tools::ParsePositiveDouble(
              s.substr(sizeof("--gate-peak-bytes=") - 1), &gate_peak_bytes)) {
        std::fprintf(stderr, "mem_report: bad --gate-peak-bytes value %s\n",
                     s.c_str());
        return Usage();
      }
    } else if (s.rfind("--gate-scaling=", 0) == 0) {
      if (!bb::tools::ParsePositiveDouble(
              s.substr(sizeof("--gate-scaling=") - 1), &gate_scaling)) {
        std::fprintf(stderr, "mem_report: bad --gate-scaling value %s\n",
                     s.c_str());
        return Usage();
      }
    } else if (s.rfind("--scaling-exempt=", 0) == 0) {
      scaling_exempt = s.substr(sizeof("--scaling-exempt=") - 1);
    } else if (s.rfind("--gate-vs-baseline=", 0) == 0) {
      bb::tools::BaselineGateSpec g;
      if (!bb::tools::ParseBaselineGateSpec(
              s.substr(sizeof("--gate-vs-baseline=") - 1), &g)) {
        std::fprintf(stderr, "mem_report: bad gate spec %s\n", s.c_str());
        return Usage();
      }
      baseline_gates.push_back(std::move(g));
    } else if (s.rfind("--", 0) == 0) {
      std::fprintf(stderr, "mem_report: unknown flag %s\n", s.c_str());
      return Usage();
    } else {
      inputs.push_back(s);
    }
  }

  if (diff) {
    if (inputs.size() != 2 || gate_peak_bytes > 0 || gate_scaling > 0 ||
        !baseline_gates.empty()) {
      return Usage();
    }
    auto before = LoadDump(inputs[0]);
    auto after = LoadDump(inputs[1]);
    for (const auto* r : {&before, &after}) {
      if (!r->ok()) {
        std::fprintf(stderr, "mem_report: %s\n",
                     r->status().ToString().c_str());
        return 1;
      }
    }
    std::printf("mem diff: %s -> %s\n", inputs[0].c_str(), inputs[1].c_str());
    std::fputs(bb::obs::RenderMemDiff(*before, *after).c_str(), stdout);
    return 0;
  }

  if (inputs.empty()) return Usage();

  ScalingPoints scaling_points;          // per-node peak vs N (the gate)
  ScalingPoints cluster_scaling_points;  // cluster peak vs N (informational)
  // Sweep rows matching a baseline selector, searched across all inputs.
  std::vector<Json> sweep_rows_docs;
  for (const std::string& path : inputs) {
    auto doc = bb::tools::LoadJson(path);
    if (!doc.ok()) {
      std::fprintf(stderr, "mem_report: %s\n", doc.status().ToString().c_str());
      return 1;
    }
    if (doc->Get("rows") != nullptr) {
      // A sweep document: harvest scaling points and keep the rows for
      // the baseline gates. Rows without a mem block are skipped (the
      // sweep ran without --mem), which the gates below then report as
      // missing rather than silently passing.
      size_t with_mem = 0;
      const Json& rows = *doc->Get("rows");
      for (const Json& row : rows.items()) {
        if (row.Get("mem") != nullptr) ++with_mem;
      }
      std::printf("mem_report: %s: %zu sweep rows, %zu with mem blocks\n",
                  path.c_str(), rows.items().size(), with_mem);
      CollectScalingPoints(rows, "peak_node_bytes", &scaling_points);
      CollectScalingPoints(rows, "cluster_peak", &cluster_scaling_points);
      sweep_rows_docs.push_back(rows);
      continue;
    }
    auto dump = LoadDump(path);
    if (!dump.ok()) {
      std::fprintf(stderr, "mem_report: %s\n",
                   dump.status().ToString().c_str());
      return 1;
    }
    std::printf("%s: OK\n", path.c_str());
    std::fputs(bb::obs::RenderMemAttribution(*dump).c_str(), stdout);
    if (gate_peak_bytes > 0) {
      const Json* cluster = dump->Get("cluster");
      double peak = cluster != nullptr && cluster->Get("peak") != nullptr
                        ? cluster->Get("peak")->AsDouble()
                        : -1;
      if (!bb::tools::CheckGate("mem_report", path + " cluster peak bytes",
                                peak, gate_peak_bytes)) {
        return 1;
      }
    }
    std::printf("\n");
  }

  if (gate_scaling > 0) {
    if (scaling_points.empty()) {
      std::fprintf(stderr,
                   "mem_report: --gate-scaling found no sweep rows with mem "
                   "blocks and platform/n labels\n");
      return 1;
    }
    for (const auto& [platform, pts] : scaling_points) {
      double exp = FitExponent(pts);
      if (std::isnan(exp)) {
        std::fprintf(stderr,
                     "mem_report: scaling fit needs >= 2 cluster sizes for "
                     "%s (got %zu points)\n",
                     platform.c_str(), pts.size());
        return 1;
      }
      // The cluster-wide exponent (~ per-node exponent + 1) is where
      // quorum-broadcast protocols show their O(N^2) curve; printed for
      // every platform, never gated.
      auto cit = cluster_scaling_points.find(platform);
      double cluster_exp =
          cit != cluster_scaling_points.end() ? FitExponent(cit->second)
                                              : std::nan("");
      std::printf(
          "mem_report: scaling %s: peak_node_bytes ~ N^%.2f, "
          "cluster_peak ~ N^%.2f over %zu points%s\n",
          platform.c_str(), exp, cluster_exp, pts.size(),
          InList(scaling_exempt, platform) ? " (exempt)" : "");
      if (InList(scaling_exempt, platform)) continue;
      if (!bb::tools::CheckGate("mem_report",
                                "scaling exponent " + platform, exp,
                                gate_scaling)) {
        return 1;
      }
    }
  }

  for (const bb::tools::BaselineGateSpec& g : baseline_gates) {
    auto doc = bb::tools::LoadJson(g.file);
    if (!doc.ok()) {
      std::fprintf(stderr, "mem_report: baseline: %s\n",
                   doc.status().ToString().c_str());
      return 1;
    }
    const Json* rows = doc->Get("rows");
    if (rows == nullptr) {
      std::fprintf(stderr, "mem_report: baseline %s has no sweep rows\n",
                   g.file.c_str());
      return 1;
    }
    double baseline =
        bb::tools::SweepRowMetric(*rows, g.sel, "mem", "peak_node_bytes");
    double current = -1;
    for (const Json& sweep : sweep_rows_docs) {
      current = bb::tools::SweepRowMetric(sweep, g.sel, "mem",
                                          "peak_node_bytes");
      if (current >= 0) break;
    }
    if (baseline <= 0 || current < 0) {
      std::fprintf(stderr, "mem_report: baseline gate rows missing: %s in %s\n",
                   g.sel.c_str(), g.file.c_str());
      return 1;
    }
    if (!bb::tools::CheckGate(
            "mem_report",
            "peak-vs-baseline " + g.sel + " (" + g.file + ")",
            current / baseline, g.bound)) {
      return 1;
    }
  }
  return 0;
}
