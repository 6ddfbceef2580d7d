// bench_report: validates benchmark JSON files and gates same-run
// microbenchmark ratios. Two input formats are recognised:
//   * "blockbench-sweep-v1" documents written by the bench binaries'
//     --json flag (macro sweeps; detected by their "rows" array), and
//   * google-benchmark --benchmark_out=... output from bench_components
//     (microbenchmarks; detected by their "benchmarks" array).
// Anything else — unreadable files, parse errors, missing keys — is a
// hard error with a non-zero exit, which is what the CI perf-smoke job
// keys off: a run that produced malformed output must fail the gate.
//
//   bench_report micro.json sweep1.json ...
//
// --gate-ratio=NUM_NAME/DEN_NAME:MAX (repeatable) compares the cpu_time
// of two microbenchmarks from the same run and fails (non-zero exit)
// when NUM/DEN exceeds MAX. Comparing two benchmarks of one run instead
// of a committed snapshot keeps the gate meaningful across machines —
// see docs/BENCHMARKING.md.

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "report_common.h"
#include "util/json.h"

using bb::util::Json;

namespace {

/// Validates one sweep document beyond "it parsed": every row needs
/// labels and a status, and successful rows need their metrics block.
bb::Status ValidateSweep(const Json& doc, const std::string& path) {
  const Json* rows = doc.Get("rows");
  if (rows == nullptr || !rows->is_array()) {
    return bb::Status::InvalidArgument(path + ": sweep document without rows");
  }
  for (size_t i = 0; i < rows->items().size(); ++i) {
    const Json& row = rows->items()[i];
    if (!row.is_object() || row.Get("labels") == nullptr ||
        row.Get("status") == nullptr) {
      return bb::Status::InvalidArgument(
          path + ": row " + std::to_string(i) + " missing labels/status");
    }
    const Json* status = row.Get("status");
    if (status->is_string() && status->AsString() == "Ok" &&
        row.Get("metrics") == nullptr) {
      return bb::Status::InvalidArgument(
          path + ": OK row " + std::to_string(i) + " without metrics");
    }
  }
  return bb::Status::Ok();
}

// Spec grammar and selector matching live in report_common.h, shared
// with prof_report and mem_report.
using bb::tools::RatioGateSpec;

bb::Status ValidateMicro(const Json& doc, const std::string& path) {
  const Json* benchmarks = doc.Get("benchmarks");
  if (benchmarks == nullptr || !benchmarks->is_array()) {
    return bb::Status::InvalidArgument(path + ": no benchmarks array");
  }
  for (const Json& b : benchmarks->items()) {
    if (!b.is_object() || b.Get("name") == nullptr) {
      return bb::Status::InvalidArgument(path + ": benchmark entry without name");
    }
  }
  return bb::Status::Ok();
}

}  // namespace

int main(int argc, char** argv) {
  const char* usage =
      "usage: bench_report [--gate-ratio=NUM_NAME/DEN_NAME:MAX]... "
      "FILE.json...\n";
  std::vector<std::string> inputs;
  std::vector<RatioGateSpec> gates;
  for (int i = 1; i < argc; ++i) {
    std::string s = argv[i];
    if (s.rfind("--", 0) == 0) {
      if (s.rfind("--gate-ratio=", 0) == 0) {
        RatioGateSpec g;
        if (!bb::tools::ParseRatioGateSpec(
                s.substr(sizeof("--gate-ratio=") - 1), &g)) {
          std::fprintf(stderr, "bench_report: bad gate spec %s\n", s.c_str());
          std::fprintf(stderr, "%s", usage);
          return 2;
        }
        gates.push_back(std::move(g));
        continue;
      }
      std::fprintf(stderr, "bench_report: unknown flag %s\n", s.c_str());
      std::fprintf(stderr, "%s", usage);
      return 2;
    }
    inputs.push_back(s);
  }
  if (inputs.empty()) {
    std::fprintf(stderr, "bench_report: no input files\n");
    std::fprintf(stderr, "%s", usage);
    return 2;
  }

  // First sighting of each microbenchmark name -> cpu_time, for the
  // ratio gates.
  std::map<std::string, double> bench_cpu;
  for (const std::string& path : inputs) {
    auto doc = bb::tools::LoadJson(path);
    if (!doc.ok()) {
      std::fprintf(stderr, "bench_report: %s\n",
                   doc.status().ToString().c_str());
      return 1;
    }
    if (doc->Get("benchmarks") != nullptr) {
      bb::Status s = ValidateMicro(*doc, path);
      if (!s.ok()) {
        std::fprintf(stderr, "bench_report: %s\n", s.ToString().c_str());
        return 1;
      }
      for (const Json& b : doc->Get("benchmarks")->items()) {
        const Json* name = b.Get("name");
        const Json* cpu = b.Get("cpu_time");
        if (name != nullptr && cpu != nullptr && cpu->is_number()) {
          bench_cpu.emplace(name->AsString(), cpu->AsDouble());
        }
      }
      std::printf("bench_report: %s: %zu microbenchmarks\n", path.c_str(),
                  doc->Get("benchmarks")->items().size());
    } else if (doc->Get("rows") != nullptr) {
      bb::Status s = ValidateSweep(*doc, path);
      if (!s.ok()) {
        std::fprintf(stderr, "bench_report: %s\n", s.ToString().c_str());
        return 1;
      }
      std::printf("bench_report: %s: %zu sweep rows\n", path.c_str(),
                  doc->Get("rows")->items().size());
    } else {
      std::fprintf(stderr,
                   "bench_report: %s: neither a sweep document (rows) nor "
                   "google-benchmark output (benchmarks)\n",
                   path.c_str());
      return 1;
    }
  }

  for (const RatioGateSpec& g : gates) {
    auto num = bench_cpu.find(g.num);
    auto den = bench_cpu.find(g.den);
    if (num == bench_cpu.end() || den == bench_cpu.end()) {
      std::fprintf(stderr, "bench_report: gate benchmark missing: %s\n",
                   (num == bench_cpu.end() ? g.num : g.den).c_str());
      return 1;
    }
    if (den->second <= 0) {
      std::fprintf(stderr, "bench_report: gate denominator %s has cpu_time 0\n",
                   g.den.c_str());
      return 1;
    }
    if (!bb::tools::CheckGate("bench_report", g.num + "/" + g.den,
                              num->second / den->second, g.bound)) {
      return 1;
    }
  }

  return 0;
}
