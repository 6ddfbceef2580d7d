// Shared harness for the figure benchmarks: constructs a platform +
// workload + driver stack in one object, and fans independent sweep
// points out across a thread pool (each MacroRun owns its Simulation,
// so points never share state). Every bench binary built on this header
// understands:
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

#ifndef BLOCKBENCH_BENCH_COMMON_H_
#define BLOCKBENCH_BENCH_COMMON_H_

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
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
#include "workloads/donothing.h"
#include "workloads/smallbank.h"
#include "workloads/ycsb.h"

namespace bb::bench {

enum class WorkloadKind { kYcsb, kSmallbank, kDoNothing };

inline const char* WorkloadName(WorkloadKind w) {
  switch (w) {
    case WorkloadKind::kYcsb: return "YCSB";
    case WorkloadKind::kSmallbank: return "Smallbank";
    case WorkloadKind::kDoNothing: return "DoNothing";
  }
  return "?";
}

/// Resolves a registered platform name or a "pbft+trie+evm"-style stack
/// spec via the PlatformRegistry. InvalidArgument on unknown names —
/// bench mains report it and exit non-zero (no abort).
inline Result<platform::PlatformOptions> OptionsFor(const std::string& name) {
  return platform::StackOptionsFromString(name);
}

inline const char* kPlatforms[] = {"ethereum", "parity", "hyperledger"};

struct MacroConfig {
  platform::PlatformOptions options;
  size_t servers = 8;
  size_t clients = 8;
  double rate = 8;            // per client, tx/s
  size_t max_outstanding = 0;
  double duration = 120;
  double drain = 30;
  double warmup = 15;
  WorkloadKind workload = WorkloadKind::kYcsb;
  uint64_t seed = 1;
  /// Fraction of YCSB/Smallbank transactions that deliberately straddle
  /// shards (only meaningful when options.num_shards > 1). `servers` is
  /// then the per-shard cluster size.
  double cross_shard_ratio = 0;
  /// Smaller preloads keep bench startup fast without changing shape.
  uint64_t ycsb_records = 2000;
  uint64_t smallbank_accounts = 2000;
  /// Optional tracer, attached to the simulation before the platform is
  /// built (so every layer sees it). Not owned; must outlive the run.
  obs::Tracer* tracer = nullptr;
  /// Optional live sampler. Init() attaches the standard per-server
  /// probes and schedules ticks through duration + drain; the timeline
  /// lands in the sweep row / trace counter tracks. Not owned; must
  /// outlive the run, and each sweep case needs its own instance.
  obs::Sampler* sampler = nullptr;
  /// Optional flight recorder (black-box event rings + replay dumps).
  /// Attached before the platform is built, like the tracer. Not owned;
  /// must outlive the run, one instance per sweep case.
  obs::FlightRecorder* recorder = nullptr;
  /// Optional per-subsystem memory accounting (logical bytes, virtual
  /// time). Attached before the platform is built so node construction
  /// binds the layer gauges. Not owned; one instance per sweep case.
  obs::MemTracker* memtracker = nullptr;
};

/// The RunSpec a blackbox dump embeds for a MacroRun-driven experiment,
/// so `bbench --replay=DUMP` re-runs it. The bench harness seeds the
/// three layers differently (simulation = config.seed, platform =
/// MakePlatform's default, driver = DriverConfig's default), so all
/// three land in the spec explicitly. Fault-schedule fields stay at
/// their "none" defaults; benches that inject faults in a `before` hook
/// fill them in before dumping.
inline obs::RunSpec RunSpecFromMacro(const MacroConfig& c) {
  obs::RunSpec s;
  s.platform = c.options.name;
  if (c.options.num_shards > 1 &&
      s.platform.find("@shards=") == std::string::npos) {
    s.platform += "@shards=" + std::to_string(c.options.num_shards);
  }
  switch (c.workload) {
    case WorkloadKind::kYcsb: s.workload = "ycsb"; break;
    case WorkloadKind::kSmallbank: s.workload = "smallbank"; break;
    case WorkloadKind::kDoNothing: s.workload = "donothing"; break;
  }
  s.servers = c.servers;
  s.clients = c.clients;
  s.cross_shard = c.cross_shard_ratio;
  s.rate = c.rate;
  s.duration = c.duration;
  s.warmup = c.warmup;
  s.drain = c.drain;
  s.max_outstanding = c.max_outstanding;
  s.seed = c.seed;
  s.platform_seed = 42;  // MakePlatform's default (MacroRun passes none)
  s.driver_seed = core::DriverConfig{}.seed;
  s.ycsb_records = c.ycsb_records;
  s.smallbank_accounts = c.smallbank_accounts;
  return s;
}

/// One macro experiment: platform cluster + driver + workload.
class MacroRun {
 public:
  /// Builds the full stack; InvalidArgument/Internal instead of abort
  /// when the options are inconsistent or workload setup fails.
  static Result<std::unique_ptr<MacroRun>> Create(MacroConfig config) {
    auto run = std::unique_ptr<MacroRun>(new MacroRun(std::move(config)));
    Status s = run->Init();
    if (!s.ok()) return s;
    return run;
  }

  /// Schedule fault/attack events before calling Run().
  sim::Simulation& rsim() { return *sim_; }
  platform::Platform& rplatform() { return *platform_; }
  core::Driver& driver() { return *driver_; }

  core::BenchReport Run() {
    driver_->Run();
    return driver_->Report();
  }

  const MacroConfig& config() const { return config_; }

 private:
  explicit MacroRun(MacroConfig config) : config_(std::move(config)) {}

  Status Init() {
    BB_RETURN_IF_ERROR(config_.options.Validate());
    sim_ = std::make_unique<sim::Simulation>(config_.seed);
    if (config_.tracer != nullptr) sim_->set_tracer(config_.tracer);
    if (config_.recorder != nullptr) sim_->set_recorder(config_.recorder);
    if (config_.memtracker != nullptr) sim_->set_memtracker(config_.memtracker);
    // MakePlatform dispatches on options.num_shards: `servers` is the
    // per-shard cluster size, so the sharded total is shards * servers.
    platform_ = platform::MakePlatform(sim_.get(), config_.options,
                                       config_.servers);
    switch (config_.workload) {
      case WorkloadKind::kYcsb: {
        workloads::YcsbConfig yc;
        yc.record_count = config_.ycsb_records;
        yc.cross_shard_ratio = config_.cross_shard_ratio;
        workload_ = std::make_unique<workloads::YcsbWorkload>(yc);
        break;
      }
      case WorkloadKind::kSmallbank: {
        workloads::SmallbankConfig sc;
        sc.num_accounts = config_.smallbank_accounts;
        sc.cross_shard_ratio = config_.cross_shard_ratio;
        workload_ = std::make_unique<workloads::SmallbankWorkload>(sc);
        break;
      }
      case WorkloadKind::kDoNothing:
        workload_ = std::make_unique<workloads::DoNothingWorkload>();
        break;
    }
    Status s = workload_->Setup(platform_.get());
    if (!s.ok()) {
      return Status::Internal("workload setup failed: " + s.ToString());
    }
    core::DriverConfig dc;
    dc.num_clients = config_.clients;
    dc.request_rate = config_.rate;
    dc.max_outstanding = config_.max_outstanding;
    dc.duration = config_.duration;
    dc.drain = config_.drain;
    dc.warmup = config_.warmup;
    driver_ = std::make_unique<core::Driver>(platform_.get(), workload_.get(),
                                             dc);
    if (config_.sampler != nullptr) {
      platform::AttachStandardProbes(config_.sampler, platform_.get());
      config_.sampler->Schedule(sim_.get(),
                                config_.duration + config_.drain);
    }
    return Status::Ok();
  }

  MacroConfig config_;
  std::unique_ptr<sim::Simulation> sim_;
  std::unique_ptr<platform::Platform> platform_;
  std::unique_ptr<core::WorkloadConnector> workload_;
  std::unique_ptr<core::Driver> driver_;
};

using util::FlagDouble;
using util::FlagUint;
using util::FlagValue;
using util::HasFlag;

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

inline BenchArgs ParseBenchArgs(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string s = argv[i];
    if (s != "--full" && s.rfind("--jobs=", 0) != 0 &&
        s.rfind("--json=", 0) != 0 && s.rfind("--profile=", 0) != 0 &&
        s.rfind("--mem=", 0) != 0 &&
        s.rfind("--benchmark_", 0) != 0) {  // google-benchmark passthrough
      std::fprintf(stderr, "%s: unknown flag %s\n", argv[0], s.c_str());
      std::fprintf(stderr,
                   "usage: %s [--full] [--jobs=N] [--json=PATH] "
                   "[--profile=PREFIX] [--mem=PREFIX]\n",
                   argv[0]);
      std::exit(2);
    }
  }
  BenchArgs args;
  args.full = HasFlag(argc, argv, "--full");
  args.jobs = size_t(FlagUint(argc, argv, "--jobs", 0));
  args.json_path = FlagValue(argc, argv, "--json").value_or("");
  args.profile_prefix = FlagValue(argc, argv, "--profile").value_or("");
  args.mem_prefix = FlagValue(argc, argv, "--mem").value_or("");
  return args;
}

/// Prints `status` and the shared flag summary; returns a non-zero exit
/// code for main().
inline int UsageError(const char* bench, const Status& status) {
  std::fprintf(stderr, "%s: %s\n", bench, status.ToString().c_str());
  std::fprintf(stderr,
               "usage: %s [--full] [--jobs=N] [--json=PATH] "
               "[--profile=PREFIX] [--mem=PREFIX]\n",
               bench);
  return 2;
}

/// One sweep point: a config plus optional hooks that run on the worker
/// thread (fault injection before Run, metric extraction after).
struct SweepCase {
  /// Row identity in the JSON output, e.g. {{"platform","ethereum"},
  /// {"n","8"}}. Purely descriptive for the text table.
  std::vector<std::pair<std::string, std::string>> labels;
  MacroConfig config;
  /// Runs after Create() and before Run() — schedule faults/attacks.
  std::function<void(MacroRun&)> before;
  /// Runs after Run() — pull histograms/meters/chain state out while
  /// the platform is still alive. Touch only this case's storage: hooks
  /// for different cases run concurrently.
  std::function<void(MacroRun&, const core::BenchReport&)> after;
};

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
};

/// Runs a set of independent MacroRun sweep points, `--jobs` at a time,
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

  /// Convenience for the common "just run this config" case.
  size_t Add(MacroConfig config,
             std::vector<std::pair<std::string, std::string>> labels = {}) {
    SweepCase c;
    c.config = std::move(config);
    c.labels = std::move(labels);
    return Add(std::move(c));
  }

  size_t size() const { return cases_.size(); }

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
    // Profiles first: WriteProfiles() stores each case's wall_profile
    // rollup, which WriteJson() then embeds in the sweep rows.
    if (!profilers_.empty() && !WriteProfiles()) ok = false;
    if (!memtrackers_.empty() && !args_.mem_prefix.empty() &&
        !WriteMemDumps()) {
      ok = false;
    }
    if (!args_.json_path.empty() && !WriteJson()) ok = false;
    return ok;
  }

  const std::vector<SweepOutcome>& outcomes() const { return outcomes_; }
  double wall_seconds() const { return wall_seconds_; }

  /// This case's aggregated wall profiler (null unless --profile).
  const obs::Profiler* profiler(size_t i) const {
    return i < profilers_.size() ? profilers_[i].get() : nullptr;
  }
  bool profiling() const { return !args_.profile_prefix.empty(); }
  std::string ProfilePath(size_t i) const {
    return args_.profile_prefix + "-" + std::to_string(i) + ".prof.json";
  }
  std::string FoldedPath(size_t i) const {
    return args_.profile_prefix + "-" + std::to_string(i) + ".folded";
  }

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
  std::string MemPath(size_t i) const {
    return args_.mem_prefix + "-" + std::to_string(i) + ".mem.json";
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
    if (!memtrackers_.empty()) {
      memtrackers_[i] = std::make_unique<obs::MemTracker>();
      cases_[i].config.memtracker = memtrackers_[i].get();
    }
    auto t0 = std::chrono::steady_clock::now();
    Result<std::unique_ptr<MacroRun>> run = [this, i] {
      // Setup (platform build, workload preload) attributed to the
      // driver subsystem; hashing/storage scopes nest inside.
      BB_PROF_SCOPE("driver.setup");
      return MacroRun::Create(cases_[i].config);
    }();
    if (!run.ok()) {
      out.status = run.status();
      return;
    }
    if (cases_[i].before) cases_[i].before(**run);
    out.report = (*run)->Run();
    {
      BB_PROF_SCOPE("driver.collect");
      if (cases_[i].after) cases_[i].after(**run, out.report);
      if (cases_[i].config.sampler != nullptr) {
        out.timeline = cases_[i].config.sampler->ToJson();
      }
    }
    if (!memtrackers_.empty() && memtrackers_[i] != nullptr) {
      memtrackers_[i]->set_committed(uint64_t(out.report.committed));
      out.mem = memtrackers_[i]->ToSweepJson();
    }
    out.events = (*run)->rsim().events_executed();
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

  /// Writes PREFIX-<i>.prof.json / PREFIX-<i>.folded for every case and
  /// stores the compact rollup in the outcome (after workers joined).
  bool WriteProfiles() {
    bool ok = true;
    for (size_t i = 0; i < profilers_.size(); ++i) {
      if (profilers_[i] == nullptr) continue;
      outcomes_[i].wall_profile = profilers_[i]->ToSweepJson();
      Status s = profilers_[i]->WriteJson(ProfilePath(i));
      if (s.ok()) s = profilers_[i]->WriteFolded(FoldedPath(i));
      if (!s.ok()) {
        std::fprintf(stderr, "%s: profile write failed: %s\n",
                     bench_name_.c_str(), s.ToString().c_str());
        ok = false;
      }
    }
    return ok;
  }

  /// Writes PREFIX-<i>.mem.json for every case (after workers joined).
  bool WriteMemDumps() {
    bool ok = true;
    for (size_t i = 0; i < memtrackers_.size(); ++i) {
      if (memtrackers_[i] == nullptr) continue;
      Status s = memtrackers_[i]->WriteJson(MemPath(i));
      if (!s.ok()) {
        std::fprintf(stderr, "%s: mem dump write failed: %s\n",
                     bench_name_.c_str(), s.ToString().c_str());
        ok = false;
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
      config.Set("servers", c.config.servers);
      config.Set("clients", c.config.clients);
      config.Set("rate", c.config.rate);
      config.Set("duration", c.config.duration);
      config.Set("workload", WorkloadName(c.config.workload));
      config.Set("seed", c.config.seed);
      if (c.config.options.num_shards > 1) {
        config.Set("num_shards", c.config.options.num_shards);
        config.Set("cross_shard_ratio", c.config.cross_shard_ratio);
      }
      r.Set("config", std::move(config));
      r.Set("status", o.status.ToString());
      if (o.status.ok()) {
        util::Json metrics = util::Json::Object();
        metrics.Set("throughput", o.report.throughput);
        metrics.Set("latency_mean", o.report.latency_mean);
        metrics.Set("latency_p50", o.report.latency_p50);
        metrics.Set("latency_p95", o.report.latency_p95);
        metrics.Set("latency_p99", o.report.latency_p99);
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
    doc.Set("rows", std::move(rows));
    std::string text = doc.Dump(2);
    text.push_back('\n');
    std::FILE* f = std::fopen(args_.json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "%s: cannot write %s\n", bench_name_.c_str(),
                   args_.json_path.c_str());
      return false;
    }
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    return true;
  }

  std::string bench_name_;
  BenchArgs args_;
  std::vector<SweepCase> cases_;
  std::vector<SweepOutcome> outcomes_;
  // One profiler per case when --profile is set; each slot is written
  // only by the worker running that case, read after the join.
  std::vector<std::unique_ptr<obs::Profiler>> profilers_;
  // Same ownership discipline for the per-case memory trackers.
  std::vector<std::unique_ptr<obs::MemTracker>> memtrackers_;
  bool mem_always_ = false;
  double wall_seconds_ = 0;
};

inline void PrintHeader(const std::string& title) {
  std::printf("\n==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("==============================================================\n");
}

}  // namespace bb::bench

#endif  // BLOCKBENCH_BENCH_COMMON_H_
