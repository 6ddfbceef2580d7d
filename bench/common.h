// Shared harness for the figure benchmarks: each sweep point is an
// obs::RunSpec that workloads::RunStack builds and runs, and the points
// fan out across a thread pool (each RunStack owns its Simulation, so
// points never share state). `bbench figure NAME` (the figure table in
// bench/figures.cc) understands:
//   --full         the long (paper-scale) sweep
//   --jobs=N       worker threads (default: hardware concurrency)
//   --json=PATH    machine-readable results (schema: blockbench-sweep-v1,
//                  see docs/BENCHMARKING.md)
//   --profile=PREFIX  wall-clock profile per sweep point: writes
//                  PREFIX-<i>.prof.json (blockbench-profile-v1) and
//                  PREFIX-<i>.folded (flamegraph format), and embeds a
//                  "wall_profile" section in each sweep-v1 row
//   --mem=PREFIX   memory accounting per sweep point: writes
//                  PREFIX-<i>.mem.json (blockbench-mem-v1) and embeds a
//                  "mem" section in each sweep-v1 row. Logical bytes on
//                  virtual time — deterministic, safe in golden digests.
// A figure that measures its rows itself (a run function: real VM runs,
// real storage I/O, the H-Store baseline) has no sweep points to profile
// or account, and rejects --profile and --mem.

#ifndef BLOCKBENCH_BENCH_COMMON_H_
#define BLOCKBENCH_BENCH_COMMON_H_

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/driver.h"
#include "obs/memtrack.h"
#include "obs/profiler.h"
#include "obs/recorder.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "platform/forensics.h"
#include "platform/platform.h"
#include "platform/registry.h"
#include "util/flags.h"
#include "util/json.h"
#include "util/thread_pool.h"
#include "workloads/contracts.h"
#include "workloads/run.h"

namespace bb::bench {

inline const char* kPlatforms[] = {"ethereum", "parity", "hyperledger"};

/// A figure's base run over `platform`: 8 servers, 8 clients at 8 tx/s
/// each, 15 s warmup, 120 s load, 30 s drain, and 2000-entry preloads
/// (fast startup, same shape). The seeds every figure was measured with:
/// simulation 1, platform 42, driver 7.
inline obs::RunSpec BaseSpec(std::string platform) {
  obs::RunSpec s;
  s.platform = std::move(platform);
  s.rate = 8;
  s.warmup = 15;
  s.seed = 1;
  s.driver_seed = 7;
  s.ycsb_records = 2000;
  s.smallbank_accounts = 2000;
  return s;
}

/// How tables and sweep rows name a workload ("ycsb" -> "YCSB").
inline std::string WorkloadLabel(const std::string& workload) {
  if (workload == "ycsb") return "YCSB";
  if (workload == "smallbank") return "Smallbank";
  if (workload == "donothing") return "DoNothing";
  return workload;
}

/// Flags every bench binary shares.
struct BenchArgs {
  bool full = false;
  size_t jobs = 0;  // 0 -> hardware concurrency
  std::string json_path;
  /// Non-empty -> wall-clock profiling: one obs::Profiler per sweep
  /// point, written as PREFIX-<i>.prof.json + PREFIX-<i>.folded.
  std::string profile_prefix;
  /// Non-empty -> memory accounting: one obs::MemTracker per sweep
  /// point, written as PREFIX-<i>.mem.json (blockbench-mem-v1).
  std::string mem_prefix;

  size_t EffectiveJobs() const {
    return jobs == 0 ? util::ThreadPool::DefaultThreads() : jobs;
  }
};

/// Prints the flag summary every bench binary shares.
inline void PrintBenchUsage(const char* bench) {
  std::fprintf(stderr,
               "usage: %s [--full] [--jobs=N] [--json=PATH] "
               "[--profile=PREFIX] [--mem=PREFIX]\n",
               bench);
}

/// Parses argv[1..] (the last occurrence of a flag wins); argv[0] names
/// the command in messages. An unknown flag, a malformed --jobs or an
/// empty path is a usage error: exit 2.
inline BenchArgs ParseBenchArgs(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    std::string s = argv[i];
    std::string flag = s.substr(0, s.find('='));
    std::string v = s.substr(std::min(s.size(), flag.size() + 1));
    std::string* path = flag == "--json"      ? &args.json_path
                        : flag == "--profile" ? &args.profile_prefix
                        : flag == "--mem"     ? &args.mem_prefix
                                              : nullptr;
    uint64_t jobs = 0;
    std::string error;
    if (s == "--full") {
      args.full = true;
    } else if (flag == s || (flag != "--jobs" && path == nullptr)) {
      error = "unknown flag " + s;
    } else if (path == nullptr) {  // --jobs
      if (!util::ParseUint(v, &jobs)) {
        error = "bad value for --jobs: '" + v + "'";
      }
      args.jobs = size_t(jobs);
    } else if (v.empty()) {
      error = "empty value for " + flag;
    } else {
      *path = v;
    }
    if (!error.empty()) {
      std::fprintf(stderr, "%s: %s\n", argv[0], error.c_str());
      PrintBenchUsage(argv[0]);
      std::exit(2);
    }
  }
  return args;
}

/// Prints `status` and the shared flag summary; returns a non-zero exit
/// code for main().
inline int UsageError(const char* bench, const Status& status) {
  std::fprintf(stderr, "%s: %s\n", bench, status.ToString().c_str());
  PrintBenchUsage(bench);
  return 2;
}

/// Writes `doc` to `path`; on a failed open, write or close, names the
/// error on stderr and returns false.
inline bool WriteJsonFile(const char* bench, const util::Json& doc,
                          const std::string& path) {
  Status s = doc.WriteFile(path);
  if (!s.ok()) {
    std::fprintf(stderr, "%s: json write failed: %s\n", bench,
                 s.ToString().c_str());
  }
  return s.ok();
}

/// A measured series: (x label, value) points in x order.
using Series = std::vector<std::pair<std::string, double>>;

/// Everything one sweep point produced.
struct SweepOutcome {
  Status status = Status::Ok();
  core::BenchReport report;
  double wall_seconds = 0;    // real time for this point
  uint64_t events = 0;        // simulator events dispatched
  double events_per_sec = 0;  // events / wall_seconds
  /// Sampled gauge series when the case wired a sampler (serialized as
  /// "timeline" in blockbench-sweep-v1 rows); null otherwise.
  util::Json timeline;
  /// Compact wall-clock profile (subsystem rollup + alloc/copy
  /// counters) when the sweep ran with --profile; null otherwise.
  /// Wall-clock values are nondeterministic and never enter golden
  /// digests — byte-identical-output tests must not run profiled.
  util::Json wall_profile;
  /// Compact memory rollup (per-node peaks, subsystem peak sums,
  /// bytes-per-committed-tx) when the sweep ran with --mem or the bench
  /// called EnableMemTracking(); null otherwise. Logical bytes on
  /// virtual time: deterministic, allowed in golden digests.
  util::Json mem;
  /// Consensus groups of the built platform (0 when the build failed).
  size_t num_shards = 0;
  /// What the case's after hook measured beyond the report, by name
  /// (blocks/s, orphans, time series). Printed by the figure tables;
  /// never part of the sweep JSON.
  std::map<std::string, double> values;
  std::map<std::string, Series> series;
};

/// One row a figure measured itself rather than through a RunStack (see
/// Figure::run): its labels, a status ("Ok", or why the row has no
/// metrics block, e.g. "OOM") and named numbers. The metrics of an Ok
/// row are its sweep row's "metrics"; those of any other row sit beside
/// its status (fig12's "written" before the out-of-memory point).
/// `values` are printed in the figure's tables only, like
/// SweepOutcome::values.
struct Row {
  std::vector<std::pair<std::string, std::string>> labels;
  std::string status = "Ok";
  std::vector<std::pair<std::string, double>> metrics;
  std::map<std::string, double> values;
};

/// One sweep point: a run spec plus optional hooks that run on the
/// worker thread (extra scheduling before Run, metric extraction after).
struct SweepCase {
  /// Row identity in the JSON output, e.g. {{"platform","ethereum"},
  /// {"n","8"}}. Purely descriptive for the text table.
  std::vector<std::pair<std::string, std::string>> labels;
  obs::RunSpec spec;
  /// Set by the benches that edit the options resolved from
  /// spec.platform (fig15's block sizes, the signing ablation); the
  /// stack is then built over these.
  std::optional<platform::PlatformOptions> options;
  /// This case's own observers; the runner adds a memtracker when
  /// memory tracking is on.
  workloads::RunSinks sinks;
  /// Runs after the stack is built and before it runs.
  std::function<void(workloads::RunStack&)> before;
  /// Runs after Run(), with the report in `out` — pull histograms,
  /// meters and chain state into out.values / out.series while the
  /// platform is still alive. Touch only this case's storage: hooks for
  /// different cases run concurrently.
  std::function<void(workloads::RunStack&, SweepOutcome& out)> after;
};

/// Runs a set of independent sweep points, `--jobs` at a time,
/// and reports rows in deterministic case order no matter which worker
/// finishes first. With jobs=1 everything runs inline on the calling
/// thread — byte-identical output is the determinism contract
/// (tests/sweep_runner_test.cc).
class SweepRunner {
 public:
  SweepRunner(std::string bench_name, BenchArgs args)
      : bench_name_(std::move(bench_name)), args_(std::move(args)) {}

  size_t Add(SweepCase c) {
    cases_.push_back(std::move(c));
    return cases_.size() - 1;
  }

  /// A row measured outside the grid; written after the grid's rows.
  void Add(Row row) { rows_.push_back(std::move(row)); }

  /// Convenience for the common "just run this spec" case.
  size_t Add(obs::RunSpec spec,
             std::vector<std::pair<std::string, std::string>> labels = {}) {
    SweepCase c;
    c.spec = std::move(spec);
    c.labels = std::move(labels);
    return Add(std::move(c));
  }

  /// Runs every case and streams `row(index, outcome)` on the calling
  /// thread in case order (row i prints as soon as cases 0..i are done).
  /// Returns true when every case succeeded and the JSON (if requested)
  /// was written.
  bool Run(const std::function<void(size_t, const SweepOutcome&)>& row) {
    // Chaincode registration mutates a global registry: do it once,
    // before any worker threads exist.
    workloads::RegisterAllChaincodes();
    outcomes_.assign(cases_.size(), SweepOutcome{});
    profilers_.clear();
    if (!args_.profile_prefix.empty()) profilers_.resize(cases_.size());
    memtrackers_.clear();
    if (mem_enabled()) memtrackers_.resize(cases_.size());
    auto wall_start = std::chrono::steady_clock::now();

    size_t jobs = std::min(args_.EffectiveJobs(),
                           cases_.empty() ? size_t(1) : cases_.size());
    if (jobs <= 1) {
      for (size_t i = 0; i < cases_.size(); ++i) {
        RunCase(i);
        if (row) row(i, outcomes_[i]);
      }
    } else {
      std::vector<char> done(cases_.size(), 0);
      std::mutex mu;
      std::condition_variable cv;
      util::ThreadPool pool(jobs);
      for (size_t i = 0; i < cases_.size(); ++i) {
        pool.Submit([this, i, &done, &mu, &cv] {
          RunCase(i);
          {
            std::lock_guard<std::mutex> lock(mu);
            done[i] = 1;
          }
          cv.notify_all();
        });
      }
      for (size_t i = 0; i < cases_.size(); ++i) {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return done[i] != 0; });
        lock.unlock();
        if (row) row(i, outcomes_[i]);
      }
      pool.Wait();
    }

    wall_seconds_ = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - wall_start)
                        .count();
    bool ok = true;
    for (const auto& o : outcomes_) {
      if (!o.status.ok()) {
        std::fprintf(stderr, "%s: sweep point failed: %s\n",
                     bench_name_.c_str(), o.status.ToString().c_str());
        ok = false;
      }
    }
    // Dumps first: WriteDumps() stores each case's wall_profile rollup,
    // which WriteJson() then embeds in the sweep rows.
    if (!WriteDumps()) ok = false;
    if (!args_.json_path.empty() && !WriteJson()) ok = false;
    return ok;
  }

  const std::vector<SweepCase>& cases() const { return cases_; }
  const std::vector<SweepOutcome>& outcomes() const { return outcomes_; }

  /// Forces memory tracking for every case even without --mem (benches
  /// whose purpose is the memory baseline). Call before Run().
  void EnableMemTracking() { mem_always_ = true; }
  bool mem_enabled() const {
    return mem_always_ || !args_.mem_prefix.empty();
  }
  /// This case's memory tracker (null unless mem_enabled()).
  const obs::MemTracker* memtracker(size_t i) const {
    return i < memtrackers_.size() ? memtrackers_[i].get() : nullptr;
  }

 private:
  void RunCase(size_t i) {
    SweepOutcome& out = outcomes_[i];
    // The profiler is constructed here, on the worker thread, so its
    // duration window is this case's wall time — not time spent queued
    // behind other sweep points.
    obs::Profiler* prof = nullptr;
    if (!profilers_.empty()) {
      profilers_[i] = std::make_unique<obs::Profiler>();
      prof = profilers_[i].get();
    }
    obs::Profiler::ThreadScope prof_scope(prof);
    SweepCase& c = cases_[i];
    if (!memtrackers_.empty()) {
      memtrackers_[i] = std::make_unique<obs::MemTracker>();
      c.sinks.memtracker = memtrackers_[i].get();
    }
    auto t0 = std::chrono::steady_clock::now();
    auto run = c.options ? workloads::RunStack::Create(c.spec, *c.options,
                                                       c.sinks)
                         : workloads::RunStack::Create(c.spec, c.sinks);
    if (!run.ok()) {
      out.status = run.status();
      return;
    }
    if (c.before) c.before(**run);
    out.report = (*run)->Execute();
    {
      BB_PROF_SCOPE("driver.collect");
      if (c.after) c.after(**run, out);
      if (c.sinks.sampler != nullptr) out.timeline = c.sinks.sampler->ToJson();
    }
    if (!memtrackers_.empty() && memtrackers_[i] != nullptr) {
      memtrackers_[i]->set_committed(uint64_t(out.report.committed));
      out.mem = memtrackers_[i]->ToSweepJson();
    }
    out.events = (*run)->sim().events_executed();
    out.num_shards = (*run)->platform().num_shards();
    out.wall_seconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
    if (out.wall_seconds > 0) {
      out.events_per_sec = double(out.events) / out.wall_seconds;
    }
    if (prof != nullptr) {
      prof->set_events(out.events);
      prof->Stop();
    }
  }

  /// After the workers joined: writes each case's PREFIX-<i>.prof.json
  /// and PREFIX-<i>.folded (--profile, keeping the compact rollup in the
  /// outcome) and PREFIX-<i>.mem.json (--mem).
  bool WriteDumps() {
    bool ok = true;
    auto check = [&](const char* what, const Status& s) {
      if (s.ok()) return;
      std::fprintf(stderr, "%s: %s write failed: %s\n", bench_name_.c_str(),
                   what, s.ToString().c_str());
      ok = false;
    };
    for (size_t i = 0; i < cases_.size(); ++i) {
      std::string n = "-" + std::to_string(i);
      if (i < profilers_.size() && profilers_[i] != nullptr) {
        outcomes_[i].wall_profile = profilers_[i]->ToSweepJson();
        Status s = profilers_[i]->WriteJson(args_.profile_prefix + n +
                                            ".prof.json");
        if (s.ok()) s = profilers_[i]->WriteFolded(args_.profile_prefix + n +
                                                   ".folded");
        check("profile", s);
      }
      if (i < memtrackers_.size() && memtrackers_[i] != nullptr &&
          !args_.mem_prefix.empty()) {
        check("mem dump",
              memtrackers_[i]->WriteJson(args_.mem_prefix + n + ".mem.json"));
      }
    }
    return ok;
  }

  bool WriteJson() const {
    util::Json doc = util::Json::Object();
    doc.Set("schema", "blockbench-sweep-v1");
    doc.Set("bench", bench_name_);
    doc.Set("full", args_.full);
    doc.Set("jobs", args_.EffectiveJobs());
    doc.Set("wall_seconds", wall_seconds_);
    util::Json rows = util::Json::Array();
    for (size_t i = 0; i < cases_.size(); ++i) {
      const SweepCase& c = cases_[i];
      const SweepOutcome& o = outcomes_[i];
      util::Json r = util::Json::Object();
      util::Json labels = util::Json::Object();
      for (const auto& [k, v] : c.labels) labels.Set(k, v);
      r.Set("labels", std::move(labels));
      util::Json config = util::Json::Object();
      config.Set("servers", c.spec.servers);
      config.Set("clients", c.spec.clients);
      config.Set("rate", c.spec.rate);
      config.Set("duration", c.spec.duration);
      config.Set("workload", WorkloadLabel(c.spec.workload));
      config.Set("seed", c.spec.seed);
      if (o.num_shards > 1) {
        config.Set("num_shards", o.num_shards);
        config.Set("cross_shard_ratio", c.spec.cross_shard);
      }
      r.Set("config", std::move(config));
      r.Set("status", o.status.ToString());
      if (o.status.ok()) {
        // A row that committed nothing has no latency: null, not 0.
        auto latency = [&o](double v) {
          return o.report.committed == 0 ? util::Json() : util::Json(v);
        };
        util::Json metrics = util::Json::Object();
        metrics.Set("throughput", o.report.throughput);
        metrics.Set("latency_mean", latency(o.report.latency_mean));
        metrics.Set("latency_p50", latency(o.report.latency_p50));
        metrics.Set("latency_p95", latency(o.report.latency_p95));
        metrics.Set("latency_p99", latency(o.report.latency_p99));
        metrics.Set("submitted", o.report.submitted);
        metrics.Set("committed", o.report.committed);
        metrics.Set("rejected", o.report.rejected);
        if (o.report.xs_submitted > 0) {
          metrics.Set("xs_submitted", o.report.xs_submitted);
          metrics.Set("xs_committed", o.report.xs_committed);
          metrics.Set("xs_aborted", o.report.xs_aborted);
          metrics.Set("xs_latency_mean", o.report.xs_latency_mean);
          metrics.Set("xs_latency_p95", o.report.xs_latency_p95);
        }
        r.Set("metrics", std::move(metrics));
        util::Json sim = util::Json::Object();
        sim.Set("events", o.events);
        sim.Set("wall_seconds", o.wall_seconds);
        sim.Set("events_per_sec", o.events_per_sec);
        r.Set("sim", std::move(sim));
        if (!o.timeline.is_null()) r.Set("timeline", o.timeline);
        if (!o.wall_profile.is_null()) r.Set("wall_profile", o.wall_profile);
        if (!o.mem.is_null()) r.Set("mem", o.mem);
      }
      rows.Push(std::move(r));
    }
    for (const Row& row : rows_) {
      util::Json r = util::Json::Object();
      util::Json labels = util::Json::Object();
      for (const auto& [k, v] : row.labels) labels.Set(k, v);
      r.Set("labels", std::move(labels));
      r.Set("status", row.status);
      util::Json metrics = util::Json::Object();
      util::Json& into = row.status == "Ok" ? metrics : r;
      for (const auto& [k, v] : row.metrics) into.Set(k, v);
      if (row.status == "Ok") r.Set("metrics", std::move(metrics));
      rows.Push(std::move(r));
    }
    doc.Set("rows", std::move(rows));
    return WriteJsonFile(bench_name_.c_str(), doc, args_.json_path);
  }

  std::string bench_name_;
  BenchArgs args_;
  std::vector<SweepCase> cases_;
  std::vector<SweepOutcome> outcomes_;
  std::vector<Row> rows_;
  // One profiler per case when --profile is set; each slot is written
  // only by the worker running that case, read after the join.
  std::vector<std::unique_ptr<obs::Profiler>> profilers_;
  // Same ownership discipline for the per-case memory trackers.
  std::vector<std::unique_ptr<obs::MemTracker>> memtrackers_;
  bool mem_always_ = false;
  double wall_seconds_ = 0;
};

/// For a case whose audit failed: writes its black box to `path` and
/// prints the bbench line that replays it. False when the write fails.
inline bool DumpViolation(const char* bench, const obs::FlightRecorder& rec,
                          const obs::RunSpec& spec,
                          const obs::AuditReport& audit,
                          const std::string& path) {
  const obs::AuditViolation& v = audit.violations.front();
  Status ws = rec.WriteJson(path, spec, {"audit_violation", v.invariant,
                                         v.detail});
  if (!ws.ok()) {
    std::fprintf(stderr, "%s: blackbox write failed: %s\n", bench,
                 ws.ToString().c_str());
    return false;
  }
  std::printf("    repro: bbench --replay=%s\n", path.c_str());
  return true;
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("==============================================================\n");
}

}  // namespace bb::bench

#endif  // BLOCKBENCH_BENCH_COMMON_H_
