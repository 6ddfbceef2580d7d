// prof_report: validates blockbench-profile-v1 documents (written by
// bench --profile / bbench --profile) and prints where the wall clock
// went.
//
//   prof_report PROFILE.json...
//       Validate each profile and print its subsystem attribution
//       table (self seconds, % of run wall time, allocs, bytes copied).
//
//   prof_report --diff BEFORE.json AFTER.json
//       Attribute a throughput regression or win: per-subsystem self
//       time / allocation / copy deltas, largest absolute delta first,
//       so a profile-diff can ride along with every performance PR.
//
//   prof_report --min-attributed=PCT PROFILE.json...
//       Additionally require that at least PCT% of each profile's wall
//       time is attributed to named (non-"other") subsystems — the CI
//       check that instrumentation coverage has not rotted.
//
// Exit codes: 0 all files valid (and gates met), 1 validation/read/gate
// failure, 2 usage.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "obs/profiler.h"
#include "report_common.h"
#include "util/json.h"

using bb::util::Json;

namespace {

bb::Result<Json> LoadProfile(const std::string& path) {
  auto doc = bb::tools::LoadJson(path);
  if (!doc.ok()) return doc.status();
  bb::Status s = bb::obs::ValidateProfile(*doc);
  if (!s.ok()) {
    return bb::Status::InvalidArgument(path + ": " + s.ToString());
  }
  return *doc;
}

int Usage() {
  std::fprintf(stderr,
               "usage: prof_report [--min-attributed=PCT] PROFILE.json...\n"
               "       prof_report --diff BEFORE.json AFTER.json\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool diff = false;
  double min_attributed = -1;
  std::vector<std::string> inputs;
  for (int i = 1; i < argc; ++i) {
    std::string s = argv[i];
    if (s == "--diff") {
      diff = true;
    } else if (s.rfind("--min-attributed=", 0) == 0) {
      if (!bb::tools::ParsePositiveDouble(
              s.substr(sizeof("--min-attributed=") - 1), &min_attributed) ||
          min_attributed > 100) {
        std::fprintf(stderr, "prof_report: bad --min-attributed value %s\n",
                     s.c_str());
        return Usage();
      }
    } else if (s.rfind("--", 0) == 0) {
      std::fprintf(stderr, "prof_report: unknown flag %s\n", s.c_str());
      return Usage();
    } else {
      inputs.push_back(s);
    }
  }

  if (diff) {
    if (inputs.size() != 2 || min_attributed > 0) return Usage();
    auto before = LoadProfile(inputs[0]);
    auto after = LoadProfile(inputs[1]);
    for (const auto* r : {&before, &after}) {
      if (!r->ok()) {
        std::fprintf(stderr, "prof_report: %s\n",
                     r->status().ToString().c_str());
        return 1;
      }
    }
    std::printf("profile diff: %s -> %s\n", inputs[0].c_str(),
                inputs[1].c_str());
    std::fputs(bb::obs::RenderProfileDiff(*before, *after).c_str(), stdout);
    return 0;
  }

  if (inputs.empty()) return Usage();
  for (const std::string& path : inputs) {
    auto doc = LoadProfile(path);
    if (!doc.ok()) {
      std::fprintf(stderr, "prof_report: %s\n",
                   doc.status().ToString().c_str());
      return 1;
    }
    double duration = doc->Get("duration_seconds")->AsDouble();
    uint64_t threads =
        doc->Get("threads") != nullptr ? doc->Get("threads")->AsUint() : 0;
    std::printf("%s: OK (%.3fs wall, %llu thread%s)\n", path.c_str(),
                duration, (unsigned long long)threads,
                threads == 1 ? "" : "s");
    std::fputs(bb::obs::RenderProfileAttribution(*doc).c_str(), stdout);
    if (min_attributed > 0) {
      double pct = 100.0 * bb::obs::AttributedFraction(*doc);
      if (!bb::tools::CheckGate("prof_report", path + " attributed%", pct,
                                min_attributed, /*is_floor=*/true)) {
        return 1;
      }
    }
    std::printf("\n");
  }
  return 0;
}
