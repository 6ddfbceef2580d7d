// Shared boilerplate for the report tools (audit_report, trace_report,
// prof_report, bench_report, blackbox_report) and for bbench --replay:
// slurp-and-parse of JSON documents plus the common argv split into
// known flags and positional inputs. Header-only so the tools stay
// single-translation-unit binaries.

#ifndef BLOCKBENCH_TOOLS_REPORT_COMMON_H_
#define BLOCKBENCH_TOOLS_REPORT_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "util/json.h"
#include "util/status.h"

namespace bb::tools {

inline Result<std::string> ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("cannot open " + path);
  }
  std::string text;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  return text;
}

/// Read + parse one JSON document; the error message carries the path.
inline Result<util::Json> LoadJson(const std::string& path) {
  auto text = ReadFile(path);
  if (!text.ok()) return text.status();
  auto doc = util::Json::Parse(*text);
  if (!doc.ok()) {
    return Status::InvalidArgument(path + ": " + doc.status().ToString());
  }
  return doc;
}

/// The arg-split every report tool repeats: everything not starting with
/// "--" is a positional input; flags must be an exact match in
/// `known_bool` or a "NAME=" prefix match in `known_kv`. Returns false
/// (and fills *bad_flag) on an unknown flag. Value extraction stays with
/// the util::Flag* helpers; this only rejects typos and collects inputs.
inline bool SplitArgs(int argc, char** argv,
                      const std::vector<std::string>& known_bool,
                      const std::vector<std::string>& known_kv,
                      std::vector<std::string>* inputs,
                      std::string* bad_flag) {
  for (int i = 1; i < argc; ++i) {
    std::string s = argv[i];
    if (s.rfind("--", 0) != 0) {
      inputs->push_back(s);
      continue;
    }
    bool known = false;
    for (const std::string& k : known_bool) {
      if (s == k) {
        known = true;
        break;
      }
    }
    for (const std::string& k : known_kv) {
      if (s.rfind(k + "=", 0) == 0) {
        known = true;
        break;
      }
    }
    if (!known) {
      if (bad_flag != nullptr) *bad_flag = s;
      return false;
    }
  }
  return true;
}

// --- --gate-* flag grammar ---------------------------------------------------
//
// Every report tool gates with the same two spec shapes; parsing them
// here keeps bench_report / prof_report / mem_report byte-for-byte
// consistent on selectors and bounds:
//   * "NUM/DEN:BOUND"        two benchmark names and a ratio bound
//   * "FILE:SEL:BOUND"       a committed snapshot + one row selector
// Row selectors are "key=value" pairs against a sweep row's labels
// object; comma-separate pairs ("platform=hyperledger,n=16") to require
// all of them.

/// Strict positive double ("1.03"); false on garbage or <= 0.
inline bool ParsePositiveDouble(const std::string& s, double* out) {
  char* end = nullptr;
  *out = std::strtod(s.c_str(), &end);
  return end != nullptr && *end == '\0' && !s.empty() && *out > 0;
}

/// "NUM_NAME/DEN_NAME:BOUND". Benchmark names may themselves contain
/// '/' (google-benchmark args, e.g. BM_Sha256/64), so split at the
/// '/' that starts the denominator's "BM_" prefix; fall back to the
/// first '/' for names that don't follow the convention.
struct RatioGateSpec {
  std::string num, den;
  double bound = 0;
};

inline bool ParseRatioGateSpec(const std::string& v, RatioGateSpec* g) {
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
         ParsePositiveDouble(v.substr(colon + 1), &g->bound);
}

/// "FILE:SEL:BOUND" — current inputs vs a committed snapshot's row.
struct BaselineGateSpec {
  std::string file;
  std::string sel;
  double bound = 0;
};

inline bool ParseBaselineGateSpec(const std::string& v, BaselineGateSpec* g) {
  size_t last_colon = v.rfind(':');
  if (last_colon == std::string::npos) return false;
  std::string rest = v.substr(0, last_colon);
  size_t sel_colon = rest.rfind(':');
  if (sel_colon == std::string::npos) return false;
  g->file = rest.substr(0, sel_colon);
  g->sel = rest.substr(sel_colon + 1);
  return !g->file.empty() && !g->sel.empty() &&
         ParsePositiveDouble(v.substr(last_colon + 1), &g->bound);
}

/// True when the sweep row's labels object satisfies every
/// comma-separated "key=value" pair of the selector.
inline bool RowMatchesLabels(const util::Json& row, const std::string& sel) {
  const util::Json* labels = row.Get("labels");
  if (labels == nullptr) return false;
  size_t start = 0;
  while (start <= sel.size()) {
    size_t comma = sel.find(',', start);
    std::string pair = sel.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    size_t eq = pair.find('=');
    if (eq == std::string::npos) return false;
    const util::Json* v = labels->Get(pair.substr(0, eq));
    if (v == nullptr || !v->is_string() || v->AsString() != pair.substr(eq + 1)) {
      return false;
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return true;
}

/// Numeric rows[i].SECTION.KEY of the first row matching `sel`;
/// negative when no row matches or the field is absent.
inline double SweepRowMetric(const util::Json& rows, const std::string& sel,
                             const std::string& section,
                             const std::string& key) {
  for (const util::Json& row : rows.items()) {
    if (!RowMatchesLabels(row, sel)) continue;
    const util::Json* sec = row.Get(section);
    if (sec == nullptr) continue;
    const util::Json* v = sec->Get(key);
    if (v != nullptr && v->is_number()) return v->AsDouble();
  }
  return -1;
}

/// Prints the pass line (stdout) or the FAILED line (stderr) in the
/// shared gate format and returns whether the gate held. `is_floor`
/// selects "value must stay >= bound" (speedup floors) over the default
/// "value must stay <= bound" (overhead / growth ceilings).
inline bool CheckGate(const char* tool, const std::string& label, double value,
                      double bound, bool is_floor = false) {
  bool ok = is_floor ? value >= bound : value <= bound;
  if (ok) {
    std::printf("%s: gate %s = %.4f (%s %.4f) OK\n", tool, label.c_str(),
                value, is_floor ? "min" : "max", bound);
  } else {
    std::fprintf(stderr, "%s: gate FAILED: %s = %.4f %s %.4f\n", tool,
                 label.c_str(), value, is_floor ? "below" : "exceeds", bound);
  }
  return ok;
}

}  // namespace bb::tools

#endif  // BLOCKBENCH_TOOLS_REPORT_COMMON_H_
