// bench_suite: the repository benchmark. One process runs one named
// workload on one thread and times, from outside, the calls it makes into
// each layer's public API:
//
//   setup.platform_s   platform::MakePlatform
//   setup.workload_s   WorkloadConnector::Setup (contract deploy, state
//                      preload, genesis) plus the Driver's client set-up
//   run_s              Driver::StartAll + Simulation::RunUntil, advanced
//                      in 10 ms virtual slices until the drain ends
//
// The end-to-end run_s and setup_s are these wall times scaled to a
// reference host speed, which a HostProbe measures between run slices;
// the raw wall times are the per-layer host.*_wall_s.
// The post-run checks (ledger audit, crash recovery, expected outcome)
// run after the timed window. The stack is built here rather than
// through bench/common.h so the two set-up calls can be timed apart and
// edits to the figure harness cannot change what this benchmark measures.
//
//   bench_suite --workload=NAME [--seed=N] [--duration=SEC]
//               [--json=PATH] [--trace=PATH] [--expected=PATH]
//
// Every metric prints as "name value unit". --json writes the same
// metrics plus the machine context. --trace first runs the untraced pass,
// then rebuilds the world with obs::Profiler and obs::MemTracker attached,
// reruns the same seed, checks the simulated outcome is unchanged, and
// writes the per-layer metrics to PATH. Wall-clock end-to-end numbers
// always come from the untraced pass.
//
// Exit codes: 0 ok; 1 a correctness check failed (the message names it);
// 2 usage error or an unoptimised build.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/driver.h"
#include "obs/auditor.h"
#include "obs/memtrack.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "platform/forensics.h"
#include "platform/platform.h"
#include "platform/registry.h"
#include "util/flags.h"
#include "util/json.h"
#include "workloads/donothing.h"
#include "workloads/smallbank.h"
#include "workloads/ycsb.h"

using namespace bb;

namespace {

constexpr uint64_t kDefaultSeed = 1;
constexpr double kSlice = 0.01;  // virtual seconds per RunUntil slice
// The guide's rule for a tail percentile: at least ten samples beyond it.
constexpr uint64_t kMinLatencySamples = 1000;

enum class App { kYcsb, kSmallbank, kDoNothing };

/// One benchmark workload. Load is an open loop in virtual time: every
/// client submits `rate` tx/s regardless of commits (max_outstanding 0).
struct Workload {
  const char* name;
  const char* platform;
  App app;
  size_t servers;
  size_t clients;
  double rate;  // tx/s per client
  double duration;
  double warmup;
  double drain;
  /// Crash server 0 (the view-0 primary) at duration/3 and restart it at
  /// duration/2. Clients then home on servers 1..N-1, so the fault voids
  /// no submission and every transaction must still commit.
  bool crash_primary;
};

constexpr Workload kWorkloads[] = {
    {"ycsb-pbft16", "hyperledger", App::kYcsb, 16, 16, 70, 25, 5, 10, false},
    {"smallbank-pow8", "ethereum", App::kSmallbank, 8, 8, 8, 60, 10, 240,
     false},
    {"donothing-pbft64", "hyperledger", App::kDoNothing, 64, 8, 20, 40, 5, 10,
     false},
    {"smallbank-pbft8-crash", "hyperledger", App::kSmallbank, 8, 8, 100, 45, 5,
     20, true},
};

/// Clients avoid server 0, so crashing it drops no client request.
class BackupHomedPlatform : public platform::Platform {
 public:
  using Platform::Platform;
  sim::NodeId SubmitServerFor(size_t client_index) const override {
    return sim::NodeId(1 + client_index % (num_servers() - 1));
  }
};

double Seconds(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       since)
      .count();
}

/// Measures the host's speed while a run goes on. On a shared host the
/// speed drifts by 20% and more over tens of seconds, and a run's wall
/// time drifts with it. The probe is a fixed amount of dependent random
/// reads and writes over a 2 MB table, a mix of cache misses and integer
/// work like the simulator's; its time tracks the run's wall time (the
/// correlation of their logarithms was 0.7-0.9 on every workload).
/// Probes are taken only between run slices at least kIntervalSeconds
/// apart, so each one finds its table pushed out of the core's 2 MB L2
/// cache by the workload. That state does not depend on the workload: on
/// one host at one time, the mean probe time of three very different
/// workloads agreed to 0.2%. The end-to-end times are scaled by
/// kRefSeconds / (mean probe time): they are seconds on a host on which
/// one probe takes kRefSeconds. The probe is this file's own code, so no
/// change to src/ can make it faster.
class HostProbe {
 public:
  static constexpr double kRefSeconds = 1.0e-3;

  HostProbe() : table_(size_t(1) << 18) {
    uint64_t x = 0x9E3779B97F4A7C15ull;
    for (uint64_t& v : table_) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      v = x;
    }
  }

  /// Times one probe if kIntervalSeconds have passed since the last one
  /// or, before the first, since construction.
  void MaybeSample() {
    if (Seconds(last_) >= kIntervalSeconds) Sample();
  }

  /// Wall time spent probing so far; the run's timer leaves it out.
  double spent_s() const { return spent_s_; }
  double mean_s() const { return spent_s_ / double(samples_); }
  double scale() const { return kRefSeconds / mean_s(); }

 private:
  void Sample() {
    auto t0 = std::chrono::steady_clock::now();
    const uint64_t mask = table_.size() - 1;
    uint64_t x = sink_ | 1;
    for (uint64_t i = 0; i < 10000; ++i) {
      uint64_t& slot = table_[(x >> 11) & mask];
      x = (x ^ slot) * 0x9E3779B97F4A7C15ull + i;
      slot += x >> 5;
    }
    sink_ = x;
    last_ = std::chrono::steady_clock::now();
    spent_s_ += std::chrono::duration<double>(last_ - t0).count();
    ++samples_;
  }

  static constexpr double kIntervalSeconds = 0.02;
  std::vector<uint64_t> table_;
  uint64_t sink_ = 0;
  double spent_s_ = 0;
  uint64_t samples_ = 0;
  std::chrono::steady_clock::time_point last_ =
      std::chrono::steady_clock::now();
};

/// The simulated outcome: identical for one seed whatever the build,
/// the machine or the observers attached. Event counts are left out, so
/// a change that removes events keeps the same outcome.
struct Outcome {
  uint64_t submitted = 0;
  uint64_t committed = 0;
  double tps = 0;
  double p50 = 0;
  double p99 = 0;
  uint64_t samples = 0;
  double max_stall = 0;  // longest gap in node 1's head growth, load window
  double outage = -1;    // crash workload: crash -> node 1's head grows
  uint64_t head_height = 0;
  std::string head_hash;  // node 1's head, first 16 hex digits

  std::string Line() const {
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "submitted=%llu committed=%llu tps=%.4f p50=%.4f "
                  "p99=%.4f samples=%llu stall=%.2f outage=%.2f head=%llu:%s",
                  (unsigned long long)submitted, (unsigned long long)committed,
                  tps, p50, p99, (unsigned long long)samples, max_stall,
                  outage, (unsigned long long)head_height, head_hash.c_str());
    return buf;
  }
};

/// One simulated world. Members are declared so that destruction runs
/// driver -> workload -> platform -> simulation.
struct World {
  std::unique_ptr<sim::Simulation> sim;
  std::unique_ptr<platform::Platform> platform;
  std::unique_ptr<core::WorkloadConnector> app;
  std::unique_ptr<core::Driver> driver;
  double platform_s = 0;
  double workload_s = 0;
};

std::unique_ptr<core::WorkloadConnector> MakeApp(App app) {
  switch (app) {
    case App::kYcsb:
      return std::make_unique<workloads::YcsbWorkload>(workloads::YcsbConfig{});
    case App::kSmallbank:
      return std::make_unique<workloads::SmallbankWorkload>(
          workloads::SmallbankConfig{});
    case App::kDoNothing:
      return std::make_unique<workloads::DoNothingWorkload>();
  }
  return nullptr;
}

Status Build(const Workload& w, uint64_t seed, obs::MemTracker* memtracker,
             World* world) {
  auto options = platform::StackOptionsFromString(w.platform);
  if (!options.ok()) return options.status();
  world->sim = std::make_unique<sim::Simulation>(seed);
  if (memtracker != nullptr) world->sim->set_memtracker(memtracker);

  auto t0 = std::chrono::steady_clock::now();
  if (w.crash_primary) {
    world->platform = std::make_unique<BackupHomedPlatform>(
        world->sim.get(), *options, w.servers, seed);
  } else {
    world->platform =
        platform::MakePlatform(world->sim.get(), *options, w.servers, seed);
  }
  world->platform_s = Seconds(t0);

  t0 = std::chrono::steady_clock::now();
  world->app = MakeApp(w.app);
  Status s = world->app->Setup(world->platform.get());
  if (!s.ok()) return Status::Internal("workload setup: " + s.ToString());
  core::DriverConfig dc;
  dc.num_clients = w.clients;
  dc.request_rate = w.rate;
  dc.max_outstanding = 0;
  dc.duration = w.duration;
  dc.warmup = w.warmup;
  dc.drain = w.drain;
  dc.seed = seed;
  world->driver = std::make_unique<core::Driver>(world->platform.get(),
                                                 world->app.get(), dc);
  world->workload_s = Seconds(t0);
  return Status::Ok();
}

/// Starts the load and advances virtual time to the end of the drain in
/// kSlice steps, watching node 1's head height. Samples `probe`, if
/// given, between slices. Returns the wall time without the probes'.
double Run(const Workload& w, World* world, HostProbe* probe, Outcome* out) {
  sim::Simulation& sim = *world->sim;
  platform::Platform& p = *world->platform;
  double crash_at = w.duration / 3, restart_at = w.duration / 2;
  if (w.crash_primary) {
    sim.At(crash_at, [&p] { p.network().Crash(0); });
    sim.At(restart_at, [&p] { p.network().Restart(0); });
  }
  const chain::ChainStore& observed = p.node(1).chain();
  uint64_t height = observed.head_height();
  uint64_t height_at_crash = 0;
  double last_growth = w.warmup;

  auto t0 = std::chrono::steady_clock::now();
  world->driver->StartAll();
  double end = w.duration + w.drain;
  for (uint64_t k = 1;; ++k) {
    double t = std::min(double(k) * kSlice, end);
    sim.RunUntil(t);
    if (probe != nullptr) probe->MaybeSample();
    uint64_t h = observed.head_height();
    if (h != height) {
      height = h;
      if (t >= w.warmup && t <= w.duration) {
        out->max_stall = std::max(out->max_stall, t - last_growth);
        last_growth = t;
      }
      if (w.crash_primary && out->outage < 0 && t > crash_at &&
          h > height_at_crash) {
        out->outage = t - crash_at;
      }
    }
    if (w.crash_primary && t <= crash_at) height_at_crash = h;
    if (t >= end) break;
  }
  double run_s = Seconds(t0);
  if (probe != nullptr) run_s -= probe->spent_s();
  if (last_growth < w.duration) {
    out->max_stall = std::max(out->max_stall, w.duration - last_growth);
  }

  core::BenchReport r = world->driver->Report();
  out->submitted = r.submitted;
  out->committed = r.committed;
  out->tps = r.throughput;
  out->p50 = r.latency_p50;
  out->p99 = r.latency_p99;
  out->samples = world->driver->stats().latencies().count();
  out->head_height = observed.head_height();
  out->head_hash = observed.head().ToHex().substr(0, 16);
  return run_s;
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) * 1024 / 1e6;  // ru_maxrss is in KiB on Linux
}

/// The correctness checks; an error names the failed check.
Status Check(const Workload& w, World& world, const Outcome& o) {
  platform::Platform& p = *world.platform;
  obs::AuditorConfig ac;
  ac.confirmation_depth = p.options().confirmation_depth;
  ac.end_time = w.duration + w.drain;
  ac.num_shards = uint32_t(p.num_shards());
  obs::AuditReport audit = platform::RunAudit(p, ac);
  if (!audit.ok()) {
    return Status::Internal("check audit: invariant " +
                            audit.violations.front().invariant + ": " +
                            audit.violations.front().detail);
  }
  if (o.committed != o.submitted) {
    return Status::Internal(
        "check all_committed: " + std::to_string(o.committed) + " of " +
        std::to_string(o.submitted) + " submitted transactions committed");
  }
  if (o.samples < kMinLatencySamples) {
    return Status::Internal("check latency_samples: " +
                            std::to_string(o.samples) + " < " +
                            std::to_string(kMinLatencySamples));
  }
  if (w.crash_primary) {
    const chain::ChainStore& restarted = p.node(0).chain();
    const chain::ChainStore& peer = p.node(1).chain();
    if (restarted.head_height() != peer.head_height() ||
        restarted.head() != peer.head()) {
      return Status::Internal(
          "check crash_recovery: restarted server 0 ends at height " +
          std::to_string(restarted.head_height()) + ", server 1 at " +
          std::to_string(peer.head_height()));
    }
    if (o.outage < 0) {
      return Status::Internal(
          "check crash_recovery: node 1's head never grew after the crash");
    }
  }
  return Status::Ok();
}

Status CheckExpected(const std::string& path, const std::string& workload,
                     const Outcome& o) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("check expected: cannot open " + path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  auto doc = util::Json::Parse(text);
  if (!doc.ok()) return Status::InvalidArgument("check expected: " + path);
  const util::Json* want = doc->Get(workload);
  if (want == nullptr || !want->is_string()) {
    return Status::NotFound("check expected: no outcome for " + workload +
                            " in " + path);
  }
  if (want->AsString() != o.Line()) {
    return Status::Internal("check expected: outcome differs from " + path +
                            "\n  want " + want->AsString() + "\n  got  " +
                            o.Line());
  }
  return Status::Ok();
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void Print(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%s %.9g %s\n", m.name.c_str(), m.value, m.unit);
  }
}

util::Json MetricsJson(const std::vector<Metric>& metrics) {
  util::Json doc = util::Json::Object();
  for (const Metric& m : metrics) {
    util::Json v = util::Json::Object();
    v.Set("value", m.value);
    v.Set("unit", m.unit);
    doc.Set(m.name, std::move(v));
  }
  return doc;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

util::Json Context(uint64_t seed) {
  util::Json c = util::Json::Object();
  c.Set("cpu", CpuModel());
  c.Set("nproc", uint64_t(std::thread::hardware_concurrency()));
  c.Set("compiler", __VERSION__);
  c.Set("build_type", BB_BUILD_TYPE);
#ifdef __OPTIMIZE__
  c.Set("optimized", true);
#else
  c.Set("optimized", false);
#endif
  c.Set("seed", seed);
  return c;
}

Status WriteJson(const std::string& path, const util::Json& doc) {
  std::ofstream out(path);
  out << doc.Dump(2) << '\n';
  if (!out) return Status::Unavailable("cannot write " + path);
  return Status::Ok();
}

/// Sum over every node (and the cluster-global owner) of each node's
/// peak bytes in one subsystem, in MB.
double PeakMb(const obs::MemTracker& mt, obs::mem::Subsystem s) {
  uint64_t bytes = mt.peak(obs::MemTracker::kGlobalNode, s);
  for (size_t n = 0; n < mt.num_nodes(); ++n) {
    bytes += mt.peak(uint32_t(n), s);
  }
  return double(bytes) / 1e6;
}

/// One profiled scope name's self and inclusive seconds and call count,
/// summed over every call path that reaches it.
struct ScopeSum {
  double self_s = 0;
  double total_s = 0;
  uint64_t count = 0;
};

std::map<std::string, ScopeSum> ScopesByName(const obs::Profiler& prof) {
  std::map<std::string, ScopeSum> out;
  util::Json doc = prof.ToJson();
  for (const util::Json& row : doc.Get("scopes")->items()) {
    const std::string& path = row.Get("path")->AsString();
    ScopeSum& s = out[path.substr(path.rfind('/') + 1)];
    s.self_s += row.Get("self_seconds")->AsDouble();
    s.total_s += row.Get("total_seconds")->AsDouble();
    s.count += row.Get("count")->AsUint();
  }
  return out;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Per-layer metrics that need no tracing: the simulated outcome, the
/// set-up spans, and the counters every layer exports after a run.
std::vector<Metric> CountMetrics(const World& world, size_t servers,
                                 double run_s, const Outcome& o) {
  obs::MetricsRegistry reg;
  world.platform->ExportMetrics(&reg);
  uint64_t executed = 0, failed = 0, forks = 0, reorgs = 0, view_changes = 0;
  double pool_peak = 0, state_bytes = 0;
  for (size_t i = 0; i < servers; ++i) {
    obs::Labels l{{"node", std::to_string(i)}};
    executed += reg.CounterValue("txs.executed", l);
    failed += reg.CounterValue("txs.failed", l);
    forks += reg.CounterValue("chain.fork_blocks", l);
    reorgs += reg.CounterValue("chain.reorgs", l);
    view_changes += reg.CounterValue("consensus.view_changes", l);
    pool_peak = std::max(pool_peak, reg.GaugeValue("pool.peak", l));
    state_bytes += reg.GaugeValue("state.storage_bytes", l);
  }
  double events = double(world.sim->events_executed());
  double committed = double(o.committed);
  double blocks = double(world.platform->CanonicalBlocks());
  sim::Network& net = world.platform->network();
  return {
      {"core.sim_tps", o.tps, "tx/s"},
      {"core.sim_lat_p50_s", o.p50, "s"},
      {"core.sim_lat_p99_s", o.p99, "s"},
      {"core.sim_lat_samples", double(o.samples), "count"},
      {"consensus.max_stall_s", o.max_stall, "s"},
      {"setup.platform_s", world.platform_s, "s"},
      {"setup.workload_s", world.workload_s, "s"},
      {"sim.events", events, "count"},
      {"sim.events_per_s", events / run_s, "1/s"},
      {"sim.net.msgs_per_tx", Ratio(double(net.messages_sent()), committed),
       "msgs/tx"},
      {"sim.net.bytes_per_tx", Ratio(double(net.bytes_sent()), committed),
       "B/tx"},
      {"consensus.blocks", blocks, "count"},
      {"consensus.txs_per_block", Ratio(committed, blocks), "tx/block"},
      {"consensus.view_changes", double(view_changes), "count"},
      {"chain.pool_peak", pool_peak, "tx"},
      {"chain.fork_blocks", double(forks), "count"},
      {"chain.reorgs", double(reorgs), "count"},
      {"storage.state_mb", state_bytes / 1e6, "MB"},
      {"vm.exec_per_tx", Ratio(double(executed), committed), "ratio"},
      {"vm.failed_txs", double(failed), "count"},
  };
}

/// Per-layer metrics from the traced pass: self time per layer over the
/// traced run's wall time, allocation and copy counters, and logical
/// memory peaks. `run_s` is the untraced run's wall time.
std::vector<Metric> TracedMetrics(const obs::Profiler& prof,
                                  const obs::MemTracker& mt, double run_s,
                                  uint64_t events, uint64_t committed) {
  namespace pf = obs::prof;
  double wall = prof.duration_seconds();
  auto self = [&](pf::Subsystem s) {
    return double(prof.subsystem_self_ns(s)) * 1e-9;
  };
  double attributed = 0;
  for (uint8_t s = 0; s < pf::kOther; ++s) {
    attributed += self(pf::Subsystem(s));
  }
  auto scopes = ScopesByName(prof);
  // Each platform commits through exactly one of the two state trees.
  const ScopeSum& commit = scopes["storage.trie_commit"].count > 0
                               ? scopes["storage.trie_commit"]
                               : scopes["storage.bucket_commit"];
  const ScopeSum& exec = scopes["vm.execute_tx"];
  double peak = double(mt.cluster().peak);
  return {
      {"sim.self_s", self(pf::kSimKernel), "s"},
      {"sim.share", self(pf::kSimKernel) / wall, "share"},
      {"sim.net.serialize_self_s", self(pf::kSerialization), "s"},
      {"sim.net.allocs_per_event",
       Ratio(double(prof.total_alloc_count()), double(events)),
       "allocs/event"},
      {"sim.net.copy_bytes_per_event",
       Ratio(double(prof.total_copy_bytes()), double(events)), "B/event"},
      {"sim.mem_events_mb", PeakMb(mt, obs::mem::kSimEvents), "MB"},
      {"sim.mem_inflight_mb", PeakMb(mt, obs::mem::kNetInflight), "MB"},
      {"consensus.self_s", self(pf::kConsensus), "s"},
      {"consensus.share", self(pf::kConsensus) / wall, "share"},
      {"consensus.commit_block_self_s",
       scopes["consensus.commit_block"].self_s, "s"},
      {"consensus.mem_mb", PeakMb(mt, obs::mem::kConsensus), "MB"},
      {"chain.hash_self_s", self(pf::kHashing), "s"},
      {"chain.hash_share", self(pf::kHashing) / wall, "share"},
      {"chain.mem_blocks_mb", PeakMb(mt, obs::mem::kChainBlocks), "MB"},
      {"chain.mem_pool_mb", PeakMb(mt, obs::mem::kPoolSlots), "MB"},
      {"storage.self_s", self(pf::kStorage), "s"},
      {"storage.share", self(pf::kStorage) / wall, "share"},
      {"storage.commits", double(commit.count), "count"},
      {"storage.ms_per_commit", 1e3 * Ratio(commit.total_s, commit.count),
       "ms"},
      {"storage.mem_mb", PeakMb(mt, obs::mem::kStorageState), "MB"},
      {"vm.self_s", self(pf::kVm), "s"},
      {"vm.share", self(pf::kVm) / wall, "share"},
      {"vm.us_per_exec", 1e6 * Ratio(exec.self_s, exec.count), "us"},
      {"vm.mem_mb", PeakMb(mt, obs::mem::kVm), "MB"},
      {"core.self_s", self(pf::kDriver), "s"},
      {"core.share", self(pf::kDriver) / wall, "share"},
      // Admission of client submissions plus gossiped copies: the two
      // scopes are summed because the PoW platform gossips nothing.
      {"core.admit_self_s",
       scopes["driver.admit"].self_s + scopes["driver.gossip_admit"].self_s,
       "s"},
      {"obs.trace_overhead", wall / run_s, "ratio"},
      {"obs.unattributed_share", 1 - attributed / wall, "share"},
      {"mem.cluster_peak_mb", peak / 1e6, "MB"},
      {"mem.bytes_per_tx", Ratio(peak, double(committed)), "B/tx"},
  };
}

int Fail(const Status& s) {
  std::fprintf(stderr, "bench_suite: %s\n", s.ToString().c_str());
  return 1;
}

void Usage() {
  std::fprintf(stderr,
               "usage: bench_suite --workload=NAME [--seed=N] "
               "[--duration=SEC] [--json=PATH] [--trace=PATH] "
               "[--expected=PATH]\nworkloads:");
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
}

}  // namespace

int main(int argc, char** argv) {
  const char* known[] = {"--workload", "--seed",  "--duration",
                         "--json",     "--trace", "--expected"};
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    bool ok = false;
    for (const char* k : known) ok |= arg.rfind(std::string(k) + "=", 0) == 0;
    if (!ok) {
      std::fprintf(stderr, "bench_suite: unknown flag %s\n", arg.c_str());
      Usage();
      return 2;
    }
  }
  std::string name = util::FlagValue(argc, argv, "--workload").value_or("");
  const Workload* found = nullptr;
  for (const Workload& w : kWorkloads) {
    if (name == w.name) found = &w;
  }
  if (found == nullptr) {
    std::fprintf(stderr, "bench_suite: unknown workload '%s'\n", name.c_str());
    Usage();
    return 2;
  }
  Workload w = *found;
  uint64_t seed = util::FlagUint(argc, argv, "--seed", kDefaultSeed);
  bool default_duration = !util::FlagValue(argc, argv, "--duration");
  w.duration = util::FlagDouble(argc, argv, "--duration", w.duration);
  if (w.duration <= w.warmup) {
    std::fprintf(stderr, "bench_suite: --duration must exceed warmup %g\n",
                 w.warmup);
    return 2;
  }
  std::string json_path = util::FlagValue(argc, argv, "--json").value_or("");
  std::string trace_path = util::FlagValue(argc, argv, "--trace").value_or("");
  std::string expected =
      util::FlagValue(argc, argv, "--expected").value_or("");

  util::Json context = Context(seed);
#ifndef __OPTIMIZE__
  std::fprintf(stderr,
               "bench_suite: unoptimised build (build type %s); wall-clock "
               "metrics would be meaningless. Build with "
               "-DCMAKE_BUILD_TYPE=Release.\n",
               BB_BUILD_TYPE);
  return 2;
#endif
  std::printf("context cpu=\"%s\" nproc=%llu compiler=\"%s\" build=%s "
              "seed=%llu\n",
              context.Get("cpu")->AsString().c_str(),
              (unsigned long long)context.Get("nproc")->AsUint(), __VERSION__,
              BB_BUILD_TYPE, (unsigned long long)seed);
  std::printf("workload %s: %s, %zu servers, %zu clients x %g tx/s open "
              "loop, duration %g s, warmup %g s, drain %g s%s\n",
              w.name, w.platform, w.servers, w.clients, w.rate, w.duration,
              w.warmup, w.drain,
              w.crash_primary ? ", server 0 crashes at duration/3 and "
                                "restarts at duration/2"
                              : "");

  // --- Untraced pass: every end-to-end metric comes from here. ---------
  World world;
  if (Status s = Build(w, seed, nullptr, &world); !s.ok()) return Fail(s);
  Outcome outcome;
  HostProbe probe;
  double run_wall_s = Run(w, &world, &probe, &outcome);
  double rss_mb = PeakRssMb();  // before audit and export allocate

  std::printf("outcome %s\n", outcome.Line().c_str());
  if (Status s = Check(w, world, outcome); !s.ok()) return Fail(s);
  if (seed == kDefaultSeed && default_duration && !expected.empty()) {
    if (Status s = CheckExpected(expected, w.name, outcome); !s.ok()) {
      return Fail(s);
    }
  }

  double setup_wall_s = world.platform_s + world.workload_s;
  std::vector<Metric> e2e = {
      {"run_s", run_wall_s * probe.scale(), "s"},
      {"setup_s", setup_wall_s * probe.scale(), "s"},
      {"peak_rss_mb", rss_mb, "MB"},
  };
  std::vector<Metric> layers =
      CountMetrics(world, w.servers, run_wall_s, outcome);
  layers.push_back({"host.run_wall_s", run_wall_s, "s"});
  layers.push_back({"host.setup_wall_s", setup_wall_s, "s"});
  layers.push_back({"host.probe_ms", 1e3 * probe.mean_s(), "ms"});
  Print(e2e);
  Print(layers);

  if (!trace_path.empty()) {
    // --- Traced pass: same seed, profiler + memory tracker attached. ---
    obs::MemTracker tracker;
    World traced;
    if (Status s = Build(w, seed, &tracker, &traced); !s.ok()) return Fail(s);
    Outcome traced_outcome;
    obs::Profiler profiler;
    {
      obs::Profiler::ThreadScope attach(&profiler);
      Run(w, &traced, nullptr, &traced_outcome);
      profiler.Stop();
    }
    if (traced_outcome.Line() != outcome.Line()) {
      return Fail(Status::Internal("check traced_outcome: traced pass gave " +
                                   traced_outcome.Line()));
    }
    std::vector<Metric> traced_layers =
        TracedMetrics(profiler, tracker, run_wall_s,
                      traced.sim->events_executed(),
                      outcome.committed);
    Print(traced_layers);
    layers.insert(layers.end(), traced_layers.begin(), traced_layers.end());
    util::Json doc = util::Json::Object();
    doc.Set("schema", "blockbench-suite-layers-v1");
    doc.Set("workload", w.name);
    doc.Set("context", context);
    doc.Set("metrics", MetricsJson(layers));
    if (Status s = WriteJson(trace_path, doc); !s.ok()) return Fail(s);
  }

  if (!json_path.empty()) {
    std::vector<Metric> all = e2e;
    all.insert(all.end(), layers.begin(), layers.end());
    util::Json doc = util::Json::Object();
    doc.Set("schema", "blockbench-suite-v1");
    doc.Set("workload", w.name);
    doc.Set("context", context);
    doc.Set("outcome", outcome.Line());
    doc.Set("submitted", outcome.submitted);
    doc.Set("committed", outcome.committed);
    doc.Set("metrics", MetricsJson(all));
    if (Status s = WriteJson(json_path, doc); !s.ok()) return Fail(s);
  }
  return 0;
}
