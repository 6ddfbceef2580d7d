// bbench: the command-line front end to the framework — pick a platform,
// a workload and a load shape, get the paper's metrics. The CLI analogue
// of the paper's "Driver takes as input a workload and user-defined
// configuration, executes it on the blockchain and outputs running
// statistics".
//
//   bbench --platform=hyperledger --workload=ycsb --servers=8 ...
//     --clients=8 --rate=100 --duration=120
//
// or runs one of the paper's figures from the figure table
// (bench/figures.cc), named by its sweep JSON's "bench" field:
//
//   bbench figure fig7_scalability [--full] [--jobs=N] [--json=PATH]
//     [--profile=PREFIX] [--mem=PREFIX]
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
// The run flags parse into one obs::RunSpec (a --replay dump's spec is
// the starting point), which workloads::RunStack builds like any figure
// row. Exit codes (documented here and in --help, nowhere else): 0 run
// ok, 1 setup or output-write failure, 2 usage error (a malformed flag
// value included), 3 run completed but the --audit ledger check found a
// safety-invariant violation.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "bench/figures.h"
#include "core/driver.h"
#include "obs/auditor.h"
#include "obs/memtrack.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/recorder.h"
#include "obs/run_spec.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "platform/forensics.h"
#include "platform/platform.h"
#include "platform/registry.h"
#include "report_common.h"
#include "util/flags.h"
#include "workloads/run.h"

using namespace bb;

namespace {

/// What a run writes and how it is driven, beside the RunSpec it runs.
struct Args {
  obs::RunSpec spec;
  uint64_t shards = 0;  // 0 = leave the spec's @shards= (or unsharded) alone
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
       bbench figure NAME [--full] [--jobs=N] [--json=PATH]
                          [--profile=PREFIX] [--mem=PREFIX]
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
            (figure: 0 ok; 1 a failed run, write, dump or shape check;
             2 also for --profile or --mem on a figure that measures
             its rows itself, such as fig11_cpuheavy)
figures (NAME):)");
  const std::vector<bench::Figure>& figures = bench::Figures();
  for (size_t i = 0; i < figures.size(); ++i) {
    std::fprintf(stderr, "%s%s", i % 4 ? " " : "\n  ", figures[i].name);
  }
  std::fprintf(stderr, "\n");
}

/// `bbench figure NAME [flags]`: runs one entry of the figure table.
int FigureMain(int argc, char** argv) {
  const bench::Figure* fig = argc > 2 ? bench::FindFigure(argv[2]) : nullptr;
  if (fig == nullptr) {
    std::fprintf(stderr, "bbench figure: %s%s\n",
                 argc > 2 ? "unknown figure " : "missing NAME",
                 argc > 2 ? argv[2] : "");
    Usage();
    return 2;
  }
  // Flag messages name the command: "bbench figure fig7_scalability".
  std::string command = std::string("bbench figure ") + fig->name;
  std::vector<char*> args = {command.data()};
  args.insert(args.end(), argv + 3, argv + argc);
  return bench::RunFigure(
      *fig, bench::ParseBenchArgs(int(args.size()), args.data()));
}

using util::ParseDouble;
using util::ParseUint;

/// Splits "A<sep>B" and parses both halves; false unless both parse.
template <typename A, typename B>
bool ParsePair(const std::string& v, char sep, A* a,
               bool (*parse_a)(const std::string&, A*), B* b,
               bool (*parse_b)(const std::string&, B*)) {
  size_t at = v.find(sep);
  return at != std::string::npos && parse_a(v.substr(0, at), a) &&
         parse_b(v.substr(at + 1), b);
}

/// Applies the flags over `a` in order, so the last occurrence of a flag
/// wins and every --crash adds one. False on --help, an unknown flag or
/// a malformed value (named on stderr).
bool Parse(int argc, char** argv, Args* a) {
  using Target = std::variant<std::string*, uint64_t*, double*>;
  const std::pair<const char*, Target> kValueFlags[] = {
      {"--platform", &a->spec.platform},
      {"--workload", &a->spec.workload},
      {"--servers", &a->spec.servers},
      {"--clients", &a->spec.clients},
      {"--rate", &a->spec.rate},
      {"--duration", &a->spec.duration},
      {"--warmup", &a->spec.warmup},
      {"--seed", &a->spec.seed},
      {"--max-outstanding", &a->spec.max_outstanding},
      {"--shards", &a->shards},
      {"--cross-shard", &a->spec.cross_shard},
      {"--delay", &a->spec.delay},
      {"--corrupt", &a->spec.corrupt},
      {"--trace", &a->trace_path},
      {"--sample", &a->sample},
      {"--audit", &a->audit_path},
      {"--profile", &a->profile_path},
      {"--metrics", &a->metrics_path},
      {"--blackbox", &a->blackbox_path},
      {"--replay", &a->replay_path},
      {"--mem", &a->mem_path},
      {"--data-dir", &a->data_dir},
  };
  for (int i = 1; i < argc; ++i) {
    std::string s = argv[i];
    if (s == "--timeline") {
      a->timeline = true;
      continue;
    }
    if (s == "--metrics") {
      a->metrics = true;
      continue;
    }
    if (s == "--list-platforms") {
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
    if (s == "--help" || s == "-h") return false;
    size_t eq = s.find('=');
    std::string name = s.substr(0, eq);
    std::string v = eq == std::string::npos ? "" : s.substr(eq + 1);
    const Target* target = nullptr;
    for (const auto& [flag, t] : kValueFlags) {
      if (name == flag) target = &t;
    }
    bool paired =
        name == "--crash" || name == "--partition" || name == "--until";
    if (eq == std::string::npos || (target == nullptr && !paired)) {
      std::fprintf(stderr, "unknown flag: %s\n", s.c_str());
      return false;
    }
    bool ok = true;
    if (name == "--crash") {
      uint64_t id = 0;
      double t = 0;
      ok = ParsePair(v, '@', &id, ParseUint, &t, ParseDouble);
      if (ok) a->spec.crashes.emplace_back(id, t);
    } else if (name == "--partition") {
      ok = ParsePair(v, ':', &a->spec.partition_start, ParseDouble,
                     &a->spec.partition_end, ParseDouble);
    } else if (name == "--until") {
      ok = v.find(',') == std::string::npos
               ? ParseDouble(v, &a->until_time)
               : ParsePair(v, ',', &a->until_time, ParseDouble,
                           &a->until_seq, ParseUint);
    } else if (auto* str = std::get_if<std::string*>(target)) {
      **str = v;
    } else if (auto* count = std::get_if<uint64_t*>(target)) {
      ok = ParseUint(v, *count);
    } else {
      ok = ParseDouble(v, std::get<double*>(*target));
    }
    if (!ok) {
      std::fprintf(stderr, "bad value for %s: '%s'\n", name.c_str(),
                   v.c_str());
      return false;
    }
  }
  if (!a->metrics_path.empty()) a->metrics = true;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "figure") {
    return FigureMain(argc, argv);
  }
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
    // The validator parses the embedded spec, so a dump it accepts
    // carries a spec that parses.
    if (Status vs = obs::ValidateBlackbox(*doc); !vs.ok()) {
      std::fprintf(stderr, "--replay: %s: %s\n", a.replay_path.c_str(),
                   vs.ToString().c_str());
      return 1;
    }
    a.spec = *obs::RunSpec::FromJson(*doc->Get("run"));
  }
  if (!Parse(argc, argv, &a)) {
    Usage();
    return 2;
  }
  obs::RunSpec& spec = a.spec;
  // In a normal run every layer is seeded from --seed. A replayed dump
  // may carry three distinct seeds (the bench harness splits them); an
  // explicit --seed on top of --replay re-unifies them, giving "same
  // scenario, different randomness".
  if (!replaying || util::FlagValue(argc, argv, "--seed")) {
    spec.platform_seed = spec.seed;
    spec.driver_seed = spec.seed;
  }
  if ((a.until_time >= 0 || a.until_seq > 0) && !replaying) {
    std::fprintf(stderr, "--until requires --replay\n");
    return 2;
  }

  // --shards overrides whatever the spec says (including removing an
  // existing "@shards=" suffix when --shards=1).
  if (a.shards > 0) {
    if (size_t at = spec.platform.rfind("@shards="); at != std::string::npos) {
      spec.platform.resize(at);
    }
    if (a.shards > 1) spec.platform += "@shards=" + std::to_string(a.shards);
  }

  std::unique_ptr<obs::Tracer> tracer;
  if (!a.trace_path.empty()) tracer = std::make_unique<obs::Tracer>();

  // The flight recorder arms whenever a dump could be wanted: an explicit
  // --blackbox, any audited run (a violation auto-dumps the black box),
  // or a replay (whose breakpoint mechanism lives in the recorder).
  std::unique_ptr<obs::FlightRecorder> recorder;
  if (!a.blackbox_path.empty() || !a.audit_path.empty() || replaying) {
    recorder = std::make_unique<obs::FlightRecorder>();
    if (a.until_seq > 0) recorder->set_break_seq(a.until_seq);
  }

  std::unique_ptr<obs::MemTracker> memtracker;
  if (!a.mem_path.empty()) memtracker = std::make_unique<obs::MemTracker>();

  std::unique_ptr<obs::Sampler> sampler;
  if (a.sample > 0) {
    sampler = std::make_unique<obs::Sampler>(
        obs::Sampler::Config{a.sample, 0.0});
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
  auto stack = workloads::RunStack::Create(
      spec, {tracer.get(), recorder.get(), memtracker.get(), sampler.get()},
      a.data_dir);
  if (!stack.ok()) {
    // A spec the builder refuses is a usage error; a workload whose
    // setup failed is not.
    std::fprintf(stderr, "bbench: %s\n", stack.status().ToString().c_str());
    return stack.status().code() == StatusCode::kInvalidArgument ? 2 : 1;
  }
  workloads::RunStack& run = **stack;
  sim::Simulation& sim = run.sim();
  platform::Platform& chain = run.platform();
  core::Driver& driver = run.driver();

  std::printf("bbench: %s / %s, %zu servers, %zu clients, %.0f tx/s/client, "
              "%.0f s\n",
              spec.platform.c_str(), spec.workload.c_str(),
              size_t(spec.servers), size_t(spec.clients), spec.rate,
              spec.duration);
  if (replaying && (a.until_time >= 0 || a.until_seq > 0)) {
    // Replay-to-failure: drive the sim ourselves so the run can stop at
    // the requested virtual time — or earlier, when the recorder's
    // message-seq breakpoint requests a stop from inside Network::Send.
    double end = spec.duration + spec.drain;
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
  std::printf("\nresults (measured over [%.0f s, %.0f s)):\n", spec.warmup,
              spec.duration);
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
      doc.Set("platform", spec.platform);
      doc.Set("workload", spec.workload);
      doc.Set("metrics", reg.ToJson());
      if (Status ws = doc.WriteFile(a.metrics_path); !ws.ok()) {
        std::fprintf(stderr, "metrics write failed: %s\n",
                     ws.ToString().c_str());
        return 1;
      }
      std::printf("metrics -> %s\n", a.metrics_path.c_str());
    }
  }

  if (a.timeline) {
    std::printf("\ncommitted per second:\n");
    for (size_t t = 0; t < size_t(spec.duration); t += 5) {
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
    obs::AuditorConfig ac = run.audit_config();
    obs::AuditReport audit = platform::RunAudit(chain, ac);
    std::printf("\nledger audit (%zu nodes):\n%s", chain.num_servers(),
                audit.RenderTable().c_str());
    if (Status ws = audit.ToJson(ac).WriteFile(a.audit_path); !ws.ok()) {
      std::fprintf(stderr, "audit write failed: %s\n", ws.ToString().c_str());
      return 1;
    }
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
    Status bs = recorder->WriteJson(bb_path, spec, trigger);
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
