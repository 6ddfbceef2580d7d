// bbench: the command-line front end to the framework — pick a platform,
// a workload and a load shape, get the paper's metrics. The CLI analogue
// of the paper's "Driver takes as input a workload and user-defined
// configuration, executes it on the blockchain and outputs running
// statistics".
//
//   bbench --platform=hyperledger --workload=ycsb --servers=8 ...
//     --clients=8 --rate=100 --duration=120
//
// Optional fault/attack injection:
//   --crash=ID@T          crash server ID at time T (repeatable)
//   --partition=T0:T1     split the network in half during [T0, T1)
//   --delay=SECONDS       inject one-way network delay
//   --corrupt=P           corrupt each message with probability P
//
// Observability:
//   --sample=PERIOD       live-sample per-node state every PERIOD seconds
//                         (feeds --trace counter tracks)
//   --audit=PATH          post-run cross-node ledger audit; writes the
//                         blockbench-audit-v1 report to PATH and exits 3
//                         when a safety invariant was violated
//   --profile=PATH        wall-clock profile of the run itself: writes a
//                         blockbench-profile-v1 doc to PATH plus folded
//                         stacks to PATH.folded (bbreport prof reads both)
//   --metrics[=PATH]      print the per-node metrics table; with =PATH,
//                         also write the registry as JSON to PATH
//   --mem=PATH            per-subsystem memory accounting (logical bytes
//                         on virtual time): prints the attribution table
//                         and writes a blockbench-mem-v1 dump to PATH
//                         (bbreport mem validates / diffs / gates it)
//   --blackbox=PATH       arm the flight recorder and dump the
//                         blockbench-blackbox-v1 black box to PATH after
//                         the run; with --audit, a violation dumps to
//                         AUDIT_PATH.blackbox.json even without this flag
//   --data-dir=PATH       directory for the diskkv backend's per-server
//                         state logs (created if missing)
//   --replay=PATH         re-run the configuration recorded in a blackbox
//                         dump (explicit flags still override fields)
//   --until=TIME[,SEQ]    with --replay: stop at virtual TIME, or right
//                         after message seq SEQ was sent
//
// Exit codes (documented here and in --help, nowhere else): 0 run ok,
// 1 setup or output-write failure, 2 usage error, 3 run completed but
// the --audit ledger check found a safety-invariant violation.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/driver.h"
#include "obs/auditor.h"
#include "obs/memtrack.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/recorder.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "platform/forensics.h"
#include "report_common.h"
#include "platform/platform.h"
#include "platform/registry.h"
#include "util/flags.h"
#include "workloads/donothing.h"
#include "workloads/doubler.h"
#include "workloads/etherid.h"
#include "workloads/smallbank.h"
#include "workloads/wavespresale.h"
#include "workloads/ycsb.h"

using namespace bb;

namespace {

struct Args {
  std::string platform = "hyperledger";
  std::string workload = "ycsb";
  size_t servers = 8;
  size_t clients = 8;
  size_t shards = 0;  // 0 = leave the spec's @shards= (or unsharded) alone
  double cross_shard = 0;
  double rate = 100;
  double duration = 120;
  double warmup = 10;
  double drain = 30;  // DriverConfig default; a replayed spec may differ
  uint64_t seed = 42;
  uint64_t platform_seed = 42;  // normally == seed; replay may split them
  uint64_t driver_seed = 42;
  uint64_t ycsb_records = 0;  // 0 = workload default; only replay sets these
  uint64_t smallbank_accounts = 0;
  size_t max_outstanding = 0;
  std::vector<std::pair<size_t, double>> crashes;  // (server, time)
  double partition_start = -1, partition_end = -1;
  double delay = 0;
  double corrupt = 0;
  bool timeline = false;
  std::string trace_path;
  bool metrics = false;
  std::string metrics_path;
  std::string mem_path;
  std::string profile_path;
  double sample = 0;
  std::string audit_path;
  std::string blackbox_path;
  std::string replay_path;
  std::string data_dir;
  double until_time = -1;
  uint64_t until_seq = 0;
};

void Usage() {
  std::fprintf(stderr, R"(usage: bbench [options]
  --platform=NAME or a layer-stack spec "consensus+tree[/backend]+exec"
             (e.g. --platform=hyperledger or --platform=pbft+trie+evm;
              append "@shards=S" for a sharded stack;
              --list-platforms shows the registry and the option axes)
  --workload=ycsb|smallbank|etherid|doubler|wavespresale|donothing
  --servers=N --clients=N --rate=TXS --duration=SEC --warmup=SEC
  --shards=S (shorthand for "@shards=S"; --servers is then PER SHARD)
  --cross-shard=P (ycsb/smallbank: fraction of txs straddling shards)
  --max-outstanding=N (closed-loop window; 0 = open loop)
  --seed=N
  --crash=ID@T (repeatable)  --partition=T0:T1
  --delay=SEC  --corrupt=PROB
  --timeline (print committed tx per second)
  --trace=PATH (write a Chrome/Perfetto trace of the run; also prints the
                per-phase commit latency breakdown)
  --sample=PERIOD (live-sample per-node state every PERIOD virtual seconds;
                   sampled gauges land in --trace as counter tracks)
  --audit=PATH (run the post-run ledger audit, write blockbench-audit-v1
                JSON to PATH; exit code 3 on a safety-invariant violation)
  --profile=PATH (wall-clock-profile the run: blockbench-profile-v1 JSON
                  to PATH, folded stacks to PATH.folded; see bbreport prof)
  --metrics[=PATH] (print the per-node metrics table after the run; with
                    =PATH also write the registry as JSON to PATH)
  --mem=PATH (account per-subsystem memory — logical bytes on virtual
              time; prints the attribution table and writes a
              blockbench-mem-v1 dump to PATH for bbreport mem)
  --blackbox=PATH (arm the flight recorder; dump blockbench-blackbox-v1
                   JSON to PATH after the run. --audit alone also arms it
                   and dumps to AUDIT_PATH.blackbox.json on a violation)
  --replay=PATH (re-run the config recorded in a blackbox dump; explicit
                 flags override recorded fields; see bbreport blackbox)
  --until=TIME[,SEQ] (with --replay: stop at virtual second TIME, or as
                      soon as message seq SEQ has been sent)
  --data-dir=PATH (directory for the per-server state logs of a "/diskkv"
                  stack, which needs one; created if missing)
  --list-platforms (print the platform registry and exit)

exit codes: 0 run ok; 1 setup or output-write failure; 2 usage error;
            3 run completed but --audit found a safety violation
)");
}

bool Parse(int argc, char** argv, Args* a) {
  // Reject typos up front; the util helpers below then extract values
  // (last occurrence wins, like every bench binary).
  const char* known_kv[] = {"--platform",        "--workload", "--servers",
                            "--clients",         "--rate",     "--duration",
                            "--warmup",          "--seed",     "--max-outstanding",
                            "--delay",           "--corrupt",  "--crash",
                            "--partition",       "--trace",    "--sample",
                            "--audit",           "--shards",   "--cross-shard",
                            "--profile",         "--metrics",  "--blackbox",
                            "--replay",          "--until",    "--mem",
                            "--data-dir"};
  for (int i = 1; i < argc; ++i) {
    std::string s = argv[i];
    if (s == "--timeline" || s == "--list-platforms" || s == "--metrics") {
      continue;
    }
    if (s == "--help" || s == "-h") return false;
    bool matched = false;
    for (const char* k : known_kv) {
      if (s.rfind(std::string(k) + "=", 0) == 0) {
        matched = true;
        break;
      }
    }
    if (!matched) {
      std::fprintf(stderr, "unknown flag: %s\n", s.c_str());
      return false;
    }
  }

  if (util::HasFlag(argc, argv, "--list-platforms")) {
    std::fprintf(stderr, "registered platforms:\n");
    for (const auto& [name, def] :
         platform::PlatformRegistry::Instance().definitions()) {
      std::fprintf(stderr, "  %-12s %s\n", name.c_str(),
                   def.description.c_str());
    }
    std::fprintf(stderr, R"(
stack spec axes ("consensus+tree[/backend]+exec[@shards=S]"):
  consensus    pow | poa | pbft | tendermint | raft
  tree         trie | bucket
  backend      /memkv (default) | /diskkv (needs --data-dir)
  exec         evm | native
  @shards=S    S independent consensus groups of --servers nodes each
               over a hash-partitioned state space, with 2PC cross-shard
               commit (requires a finality consensus: pbft | tendermint
               | raft)
examples: pbft+trie+evm   tendermint+bucket+native   pbft+trie+evm@shards=4
)");
    std::exit(0);
  }

  a->platform = util::FlagValue(argc, argv, "--platform").value_or(a->platform);
  a->workload = util::FlagValue(argc, argv, "--workload").value_or(a->workload);
  a->servers = size_t(util::FlagUint(argc, argv, "--servers", a->servers));
  a->clients = size_t(util::FlagUint(argc, argv, "--clients", a->clients));
  a->rate = util::FlagDouble(argc, argv, "--rate", a->rate);
  a->duration = util::FlagDouble(argc, argv, "--duration", a->duration);
  a->warmup = util::FlagDouble(argc, argv, "--warmup", a->warmup);
  a->seed = util::FlagUint(argc, argv, "--seed", a->seed);
  a->max_outstanding = size_t(
      util::FlagUint(argc, argv, "--max-outstanding", a->max_outstanding));
  a->shards = size_t(util::FlagUint(argc, argv, "--shards", a->shards));
  a->cross_shard =
      util::FlagDouble(argc, argv, "--cross-shard", a->cross_shard);
  a->delay = util::FlagDouble(argc, argv, "--delay", a->delay);
  a->corrupt = util::FlagDouble(argc, argv, "--corrupt", a->corrupt);
  a->timeline = util::HasFlag(argc, argv, "--timeline");
  a->trace_path = util::FlagValue(argc, argv, "--trace").value_or("");
  a->metrics_path = util::FlagValue(argc, argv, "--metrics").value_or("");
  a->metrics =
      util::HasFlag(argc, argv, "--metrics") || !a->metrics_path.empty();
  a->mem_path = util::FlagValue(argc, argv, "--mem").value_or("");
  a->profile_path = util::FlagValue(argc, argv, "--profile").value_or("");
  a->sample = util::FlagDouble(argc, argv, "--sample", a->sample);
  a->audit_path = util::FlagValue(argc, argv, "--audit").value_or("");
  a->blackbox_path = util::FlagValue(argc, argv, "--blackbox").value_or("");
  a->data_dir = util::FlagValue(argc, argv, "--data-dir").value_or("");
  if (auto until = util::FlagValue(argc, argv, "--until")) {
    auto comma = until->find(',');
    a->until_time = std::atof(until->substr(0, comma).c_str());
    if (comma != std::string::npos) {
      a->until_seq = std::strtoull(until->substr(comma + 1).c_str(),
                                   nullptr, 10);
    }
  }

  // --crash is repeatable, so collect every occurrence by hand.
  for (int i = 1; i < argc; ++i) {
    std::string s = argv[i];
    if (s.rfind("--crash=", 0) != 0) continue;
    std::string v = s.substr(sizeof("--crash=") - 1);
    auto at = v.find('@');
    if (at == std::string::npos) return false;
    a->crashes.emplace_back(size_t(std::atoll(v.substr(0, at).c_str())),
                            std::atof(v.substr(at + 1).c_str()));
  }
  if (auto part = util::FlagValue(argc, argv, "--partition")) {
    auto colon = part->find(':');
    if (colon == std::string::npos) return false;
    a->partition_start = std::atof(part->substr(0, colon).c_str());
    a->partition_end = std::atof(part->substr(colon + 1).c_str());
  }
  return true;
}

platform::PlatformOptions PlatformFor(const std::string& name,
                                      const std::string& data_dir) {
  auto opts = platform::StackOptionsFromString(name, data_dir);
  if (!opts.ok()) {
    std::fprintf(stderr, "unknown platform: %s\n",
                 opts.status().ToString().c_str());
    std::exit(2);
  }
  return *opts;
}

std::unique_ptr<core::WorkloadConnector> WorkloadFor(const std::string& name,
                                                     double cross_shard,
                                                     uint64_t ycsb_records,
                                                     uint64_t smallbank_accounts) {
  if (name == "ycsb") {
    workloads::YcsbConfig yc;
    yc.cross_shard_ratio = cross_shard;
    if (ycsb_records > 0) yc.record_count = ycsb_records;
    return std::make_unique<workloads::YcsbWorkload>(yc);
  }
  if (name == "smallbank") {
    workloads::SmallbankConfig sc;
    sc.cross_shard_ratio = cross_shard;
    if (smallbank_accounts > 0) sc.num_accounts = smallbank_accounts;
    return std::make_unique<workloads::SmallbankWorkload>(sc);
  }
  if (name == "etherid") return std::make_unique<workloads::EtherIdWorkload>();
  if (name == "doubler") return std::make_unique<workloads::DoublerWorkload>();
  if (name == "wavespresale")
    return std::make_unique<workloads::WavesPresaleWorkload>();
  if (name == "donothing")
    return std::make_unique<workloads::DoNothingWorkload>();
  std::fprintf(stderr, "unknown workload: %s\n", name.c_str());
  std::exit(2);
}

/// The recorded spec becomes the new Args defaults; Parse() then runs as
/// usual, so any explicit CLI flag still overrides a replayed field.
void ApplySpec(const obs::RunSpec& s, Args* a) {
  a->platform = s.platform;
  a->workload = s.workload;
  a->servers = size_t(s.servers);
  a->clients = size_t(s.clients);
  a->cross_shard = s.cross_shard;
  a->rate = s.rate;
  a->duration = s.duration;
  a->warmup = s.warmup;
  a->drain = s.drain;
  a->max_outstanding = size_t(s.max_outstanding);
  a->seed = s.seed;
  a->platform_seed = s.platform_seed;
  a->driver_seed = s.driver_seed;
  a->ycsb_records = s.ycsb_records;
  a->smallbank_accounts = s.smallbank_accounts;
  for (const auto& [id, t] : s.crashes) a->crashes.emplace_back(size_t(id), t);
  a->partition_start = s.partition_start;
  a->partition_end = s.partition_end;
  a->delay = s.delay;
  a->corrupt = s.corrupt;
}

obs::RunSpec SpecFromArgs(const Args& a) {
  obs::RunSpec s;
  s.platform = a.platform;  // post --shards rewrite: the full stack spec
  s.workload = a.workload;
  s.servers = a.servers;
  s.clients = a.clients;
  s.cross_shard = a.cross_shard;
  s.rate = a.rate;
  s.duration = a.duration;
  s.warmup = a.warmup;
  s.drain = a.drain;
  s.max_outstanding = a.max_outstanding;
  s.seed = a.seed;
  s.platform_seed = a.platform_seed;
  s.driver_seed = a.driver_seed;
  s.ycsb_records = a.ycsb_records;
  s.smallbank_accounts = a.smallbank_accounts;
  for (const auto& [id, t] : a.crashes) s.crashes.emplace_back(uint64_t(id), t);
  s.partition_start = a.partition_start;
  s.partition_end = a.partition_end;
  s.delay = a.delay;
  s.corrupt = a.corrupt;
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  // --replay pre-pass: load the dump before Parse() so its recorded run
  // spec seeds the defaults and explicit flags keep the last word.
  for (int i = 1; i < argc; ++i) {
    std::string s = argv[i];
    if (s.rfind("--replay=", 0) == 0) {
      a.replay_path = s.substr(sizeof("--replay=") - 1);
    }
  }
  bool replaying = !a.replay_path.empty();
  if (replaying) {
    auto doc = tools::LoadJson(a.replay_path);
    if (!doc.ok()) {
      std::fprintf(stderr, "--replay: %s\n", doc.status().ToString().c_str());
      return 1;
    }
    if (Status vs = obs::ValidateBlackbox(*doc); !vs.ok()) {
      std::fprintf(stderr, "--replay: %s: %s\n", a.replay_path.c_str(),
                   vs.ToString().c_str());
      return 1;
    }
    auto spec = obs::RunSpec::FromJson(*doc->Get("run"));
    if (!spec.ok()) {
      std::fprintf(stderr, "--replay: %s: %s\n", a.replay_path.c_str(),
                   spec.status().ToString().c_str());
      return 1;
    }
    ApplySpec(*spec, &a);
  }
  if (!Parse(argc, argv, &a)) {
    Usage();
    return 2;
  }
  // In a normal run every layer is seeded from --seed. A replayed dump
  // may carry three distinct seeds (the bench harness splits them); an
  // explicit --seed on top of --replay re-unifies them, giving "same
  // scenario, different randomness".
  if (!replaying || util::FlagValue(argc, argv, "--seed").has_value()) {
    a.platform_seed = a.seed;
    a.driver_seed = a.seed;
  }
  if (a.until_time >= 0 || a.until_seq > 0) {
    if (!replaying) {
      std::fprintf(stderr, "--until requires --replay\n");
      return 2;
    }
  }

  // --shards overrides whatever the spec says (including removing an
  // existing "@shards=" suffix when --shards=1).
  if (a.shards > 0) {
    if (size_t at = a.platform.rfind("@shards="); at != std::string::npos) {
      a.platform.resize(at);
    }
    if (a.shards > 1) a.platform += "@shards=" + std::to_string(a.shards);
  }

  sim::Simulation sim(a.seed);
  std::unique_ptr<obs::Tracer> tracer;
  if (!a.trace_path.empty()) {
    tracer = std::make_unique<obs::Tracer>();
    sim.set_tracer(tracer.get());
  }

  // The flight recorder arms whenever a dump could be wanted: an explicit
  // --blackbox, any audited run (a violation auto-dumps the black box),
  // or a replay (whose breakpoint mechanism lives in the recorder).
  std::unique_ptr<obs::FlightRecorder> recorder;
  if (!a.blackbox_path.empty() || !a.audit_path.empty() || replaying) {
    recorder = std::make_unique<obs::FlightRecorder>();
    if (a.until_seq > 0) recorder->set_break_seq(a.until_seq);
    sim.set_recorder(recorder.get());
  }

  // --mem: attached before platform construction so every node binds its
  // layer gauges at build time.
  std::unique_ptr<obs::MemTracker> memtracker;
  if (!a.mem_path.empty()) {
    memtracker = std::make_unique<obs::MemTracker>();
    sim.set_memtracker(memtracker.get());
  }

  // --profile: the window opens here (before platform construction) and
  // closes right after Driver::Run, so setup and the event loop are the
  // whole profile; output writing below is deliberately outside it.
  std::unique_ptr<obs::Profiler> profiler;
  std::unique_ptr<obs::Profiler::ThreadScope> prof_scope;
  if (!a.profile_path.empty()) {
    profiler = std::make_unique<obs::Profiler>();
    prof_scope = std::make_unique<obs::Profiler::ThreadScope>(profiler.get());
  }

  if (!a.data_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(a.data_dir, ec);
    if (ec) {
      std::fprintf(stderr, "cannot create --data-dir %s: %s\n",
                   a.data_dir.c_str(), ec.message().c_str());
      return 1;
    }
  }
  std::unique_ptr<platform::Platform> chain_ptr = [&] {
    BB_PROF_SCOPE("driver.setup");
    return platform::MakePlatform(&sim, PlatformFor(a.platform, a.data_dir),
                                  a.servers, a.platform_seed);
  }();
  platform::Platform& chain = *chain_ptr;
  auto workload = WorkloadFor(a.workload, a.cross_shard, a.ycsb_records,
                              a.smallbank_accounts);
  Status s = [&] {
    BB_PROF_SCOPE("driver.setup");
    return workload->Setup(&chain);
  }();
  if (!s.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", s.ToString().c_str());
    return 1;
  }

  if (a.delay > 0) chain.network().InjectDelay(a.delay);
  if (a.corrupt > 0) chain.network().SetCorruptProbability(a.corrupt);
  for (auto [id, t] : a.crashes) {
    if (id >= chain.num_servers()) {
      std::fprintf(stderr, "--crash server id out of range\n");
      return 2;
    }
    sim.At(t, [&chain, id = id] { chain.network().Crash(sim::NodeId(id)); });
  }
  if (a.partition_start >= 0) {
    std::vector<sim::NodeId> half;
    for (size_t i = 0; i < chain.num_servers() / 2; ++i) {
      half.push_back(sim::NodeId(i));
    }
    sim.At(a.partition_start,
           [&chain, half] { chain.network().Partition(half); });
    sim.At(a.partition_end, [&chain] { chain.network().HealPartition(); });
  }

  core::DriverConfig dc;
  dc.num_clients = a.clients;
  dc.request_rate = a.rate;
  dc.max_outstanding = a.max_outstanding;
  dc.duration = a.duration;
  dc.drain = a.drain;
  dc.warmup = a.warmup;
  dc.seed = a.driver_seed;
  core::Driver driver(&chain, workload.get(), dc);

  std::unique_ptr<obs::Sampler> sampler;
  if (a.sample > 0) {
    sampler = std::make_unique<obs::Sampler>(
        obs::Sampler::Config{a.sample, 0.0});
    platform::AttachStandardProbes(sampler.get(), &chain);
    sampler->Schedule(&sim, a.duration + dc.drain);
  }

  std::printf("bbench: %s / %s, %zu servers, %zu clients, %.0f tx/s/client, "
              "%.0f s\n",
              a.platform.c_str(), a.workload.c_str(), a.servers, a.clients,
              a.rate, a.duration);
  if (replaying && (a.until_time >= 0 || a.until_seq > 0)) {
    // Replay-to-failure: drive the sim ourselves so the run can stop at
    // the requested virtual time — or earlier, when the recorder's
    // message-seq breakpoint requests a stop from inside Network::Send.
    double end = a.duration + dc.drain;
    if (a.until_time >= 0 && a.until_time < end) end = a.until_time;
    driver.StartAll();
    sim.RunUntil(end);
    std::printf("replay stopped at t=%.6f%s\n", sim.Now(),
                sim.stop_requested() ? " (message-seq breakpoint)" : "");
  } else {
    driver.Run();
  }

  if (profiler != nullptr) {
    profiler->set_events(sim.events_executed());
    profiler->Stop();
    prof_scope.reset();  // detach + merge this thread before serializing
    Status ps = profiler->WriteJson(a.profile_path);
    if (ps.ok()) ps = profiler->WriteFolded(a.profile_path + ".folded");
    if (!ps.ok()) {
      std::fprintf(stderr, "profile write failed: %s\n",
                   ps.ToString().c_str());
      return 1;
    }
    std::printf("\nwall profile (%.3f s, %llu events):\n%s",
                profiler->duration_seconds(),
                (unsigned long long)sim.events_executed(),
                obs::RenderProfileAttribution(profiler->ToJson()).c_str());
    std::printf("profile -> %s (+ .folded)\n", a.profile_path.c_str());
  }

  auto r = driver.Report();
  std::printf("\nresults (measured over [%.0f s, %.0f s)):\n", a.warmup,
              a.duration);
  std::printf("  throughput    %10.1f tx/s\n", r.throughput);
  std::printf("  latency       mean %.3f s  p50 %.3f s  p95 %.3f s  p99 "
              "%.3f s\n",
              r.latency_mean, r.latency_p50, r.latency_p95, r.latency_p99);
  std::printf("  submitted     %10llu\n", (unsigned long long)r.submitted);
  std::printf("  committed     %10llu\n", (unsigned long long)r.committed);
  std::printf("  rejected      %10llu\n", (unsigned long long)r.rejected);
  if (chain.num_shards() > 1) {
    std::printf("  cross-shard   %10llu submitted, %llu committed "
                "(mean %.3f s), %llu aborted\n",
                (unsigned long long)r.xs_submitted,
                (unsigned long long)r.xs_committed, r.xs_latency_mean,
                (unsigned long long)r.xs_aborted);
    std::printf("  blocks        %10llu on the main branches of %zu shards\n",
                (unsigned long long)chain.CanonicalBlocks(),
                chain.num_shards());
  } else {
    std::printf("  blocks        %10llu on the main branch, %llu orphaned\n",
                (unsigned long long)chain.node(0).chain().main_chain_blocks(),
                (unsigned long long)chain.node(0).chain().orphaned_blocks());
  }

  if (tracer != nullptr) {
    if (tracer->complete_txs() > 0) {
      double total_mean = 0;
      for (size_t leg = 0; leg < obs::Tracer::kNumTxSpans; ++leg) {
        total_mean += tracer->leg_latency(leg).Mean();
      }
      std::printf("\ncommit latency breakdown (%llu traced txs):\n",
                  (unsigned long long)tracer->complete_txs());
      for (size_t leg = 0; leg < obs::Tracer::kNumTxSpans; ++leg) {
        const Histogram& h = tracer->leg_latency(leg);
        std::printf("  %-15s mean %8.4f s  p95 %8.4f s  (%5.1f%%)\n",
                    obs::Tracer::TxSpanName(leg), h.Mean(), h.Percentile(95),
                    total_mean > 0 ? 100.0 * h.Mean() / total_mean : 0.0);
      }
    }
    Status ws = tracer->WriteChromeTrace(a.trace_path);
    if (!ws.ok()) {
      std::fprintf(stderr, "trace write failed: %s\n", ws.ToString().c_str());
      return 1;
    }
    std::printf("\ntrace: %zu events, %zu txs -> %s\n", tracer->num_events(),
                tracer->num_tx(), a.trace_path.c_str());
  }

  if (a.metrics) {
    obs::MetricsRegistry reg;
    chain.ExportMetrics(&reg);
    if (recorder != nullptr) recorder->ExportMetrics(&reg);
    std::printf("\nper-node metrics:\n%s", reg.RenderTable().c_str());
    if (!a.metrics_path.empty()) {
      util::Json doc = util::Json::Object();
      doc.Set("schema", "blockbench-metrics-v1");
      doc.Set("platform", a.platform);
      doc.Set("workload", a.workload);
      doc.Set("metrics", reg.ToJson());
      std::string text = doc.Dump(2);
      text.push_back('\n');
      std::FILE* mf = std::fopen(a.metrics_path.c_str(), "w");
      if (mf == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", a.metrics_path.c_str());
        return 1;
      }
      std::fwrite(text.data(), 1, text.size(), mf);
      std::fclose(mf);
      std::printf("metrics -> %s\n", a.metrics_path.c_str());
    }
  }

  if (a.timeline) {
    std::printf("\ncommitted per second:\n");
    for (size_t t = 0; t < size_t(a.duration); t += 5) {
      double sum = 0;
      for (size_t u = t; u < t + 5; ++u) {
        sum += driver.stats().CommittedInSecond(u);
      }
      std::printf("  t=%4zu  %8.0f tx (%6.0f tx/s)\n", t, sum, sum / 5);
    }
  }

  if (sampler != nullptr) {
    std::printf("\nsampler: %zu gauges x %zu ticks (period %.2f s)\n",
                sampler->num_gauges(), sampler->num_ticks(), a.sample);
  }

  if (memtracker != nullptr) {
    memtracker->set_committed(uint64_t(r.committed));
    Status ms = memtracker->WriteJson(a.mem_path);
    if (!ms.ok()) {
      std::fprintf(stderr, "mem dump write failed: %s\n",
                   ms.ToString().c_str());
      return 1;
    }
    std::printf("\nmemory attribution (logical bytes, virtual time):\n%s",
                obs::RenderMemAttribution(memtracker->ToJson()).c_str());
    std::printf("mem -> %s (bbreport mem validates / diffs / gates)\n",
                a.mem_path.c_str());
  }

  bool audit_violated = false;
  obs::BlackboxTrigger trigger;  // kind "explicit" unless the audit fails
  if (!a.audit_path.empty()) {
    obs::AuditorConfig ac;
    ac.confirmation_depth = chain.options().confirmation_depth;
    ac.heal_time = a.partition_start >= 0 ? a.partition_end : -1;
    ac.end_time = a.duration + dc.drain;
    ac.num_shards = uint32_t(chain.num_shards());
    obs::AuditReport audit = platform::RunAudit(chain, ac);
    std::printf("\nledger audit (%zu nodes):\n%s", chain.num_servers(),
                audit.RenderTable().c_str());
    std::string text = audit.ToJson(ac).Dump(2);
    text.push_back('\n');
    std::FILE* f = std::fopen(a.audit_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", a.audit_path.c_str());
      return 1;
    }
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    std::printf("audit report -> %s\n", a.audit_path.c_str());
    if (!audit.ok()) {
      audit_violated = true;
      trigger.kind = "audit_violation";
      trigger.invariant = audit.violations.front().invariant;
      trigger.detail = audit.violations.front().detail;
    }
  }

  // The black box lands on disk before the exit code: an explicit
  // --blackbox always dumps; an audited violation dumps even without it
  // (next to the audit report) so the post-mortem survives the run.
  if (recorder != nullptr && (!a.blackbox_path.empty() || audit_violated)) {
    std::string bb_path = !a.blackbox_path.empty()
                              ? a.blackbox_path
                              : a.audit_path + ".blackbox.json";
    Status bs = recorder->WriteJson(bb_path, SpecFromArgs(a), trigger);
    if (!bs.ok()) {
      std::fprintf(stderr, "blackbox write failed: %s\n",
                   bs.ToString().c_str());
      return 1;
    }
    std::printf("blackbox -> %s (bbreport blackbox %s renders the "
                "post-mortem)\n",
                bb_path.c_str(), bb_path.c_str());
  }

  // Exit 3 signals "the run completed but the ledger is unsafe" —
  // distinct from usage (2) and setup (1) failures. A partitioned
  // Ethereum-model run is EXPECTED to exit 3 (Fig 10).
  return audit_violated ? 3 : 0;
}
