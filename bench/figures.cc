// The figure table. What each figure shows in the paper, and what it
// measures here, is in EXPERIMENTS.md under the figure's name.

#include "figures.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>

namespace bb::bench {

namespace {

using Sizes = std::vector<size_t>;

const std::vector<const char*> kThree(std::begin(kPlatforms),
                                      std::end(kPlatforms));
const std::vector<const char*> kAllPlatforms = {"ethereum", "parity",
                                                "hyperledger", "erisdb",
                                                "corda"};

std::string Format(const char* format, double v) {
  if (std::isnan(v)) return "-";
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, v);
  return buf;
}

const std::string* FindLabel(const Labels& labels, const std::string& key) {
  for (const auto& [k, v] : labels) {
    if (k == key) return &v;
  }
  return nullptr;
}

/// The labels, `skip` left out, joined by '-' ("ethereum-12").
std::string CaseName(const Labels& labels, const char* skip = nullptr) {
  std::string name;
  for (const auto& [k, v] : labels) {
    if (skip == nullptr || k != skip) name += (name.empty() ? "" : "-") + v;
  }
  return name;
}

SweepCase Case(obs::RunSpec spec, Labels labels) {
  SweepCase c;
  c.spec = std::move(spec);
  c.labels = std::move(labels);
  return c;
}

/// One case per platform and value of one more axis: BaseSpec(platform)
/// edited by `edit(spec, value)`, labelled {platform, key: value}.
template <typename Edit>
std::vector<SweepCase> Sweep(const std::vector<const char*>& platforms,
                             const char* key, const Sizes& values,
                             Edit edit) {
  std::vector<SweepCase> cases;
  for (const char* p : platforms) {
    for (size_t v : values) {
      obs::RunSpec s = BaseSpec(p);
      edit(s, v);
      cases.push_back(Case(s, {{"platform", p}, {key, std::to_string(v)}}));
    }
  }
  return cases;
}

/// f(t) at t = 0, step, 2 step, ... below `end`, keyed by t.
template <typename F>
Series Every(size_t step, double end, F f) {
  Series s;
  for (size_t t = 0; t < size_t(end); t += step) {
    s.emplace_back(std::to_string(t), double(f(t)));
  }
  return s;
}

/// After hook: the client queue every 10 s of the load window.
auto QueueEvery10s(double duration) {
  return [duration](workloads::RunStack& run, SweepOutcome& out) {
    out.series["queue"] = Every(10, duration, [&](size_t t) {
      return run.driver().stats().QueueLengthAt(t);
    });
  };
}

/// After hook: server 0's main-branch blocks per second of load and
/// drain.
auto BlocksPerSecond(const obs::RunSpec& spec) {
  return [seconds = spec.duration + spec.drain](workloads::RunStack& run,
                                                SweepOutcome& out) {
    out.values["blocks/s"] =
        double(run.platform().node(0).chain().main_chain_blocks()) / seconds;
  };
}

template <typename T>
Column Report(const char* name, const char* format,
              T core::BenchReport::*field) {
  return {name, format,
          [field](const SweepOutcome& o) { return double(o.report.*field); }};
}

/// A value the case's after hook recorded.
Column Value(const char* name, const char* format, std::string key) {
  return {name, format, [key](const SweepOutcome& o) {
            auto it = o.values.find(key);
            return it == o.values.end() ? NAN : it->second;
          }};
}

/// A field of the case's memory rollup.
Column Mem(const char* name, const char* format, std::string key) {
  return {name, format, [key](const SweepOutcome& o) {
            const util::Json* v = o.mem.is_null() ? nullptr : o.mem.Get(key);
            return v == nullptr ? NAN : v->AsDouble();
          }};
}

std::vector<SweepCase> Fig5(bool full) {
  std::vector<SweepCase> cases;
  for (const char* p : kPlatforms) {
    for (const char* w : {"ycsb", "smallbank"}) {
      for (size_t rate : full ? Sizes{8, 16, 32, 64, 128, 256, 512, 1024}
                              : Sizes{8, 32, 128, 512}) {
        obs::RunSpec s = BaseSpec(p);
        s.rate = double(rate);
        s.duration = full ? 300 : 90;
        s.workload = w;
        cases.push_back(Case(s, {{"platform", p},
                                 {"workload", WorkloadLabel(w)},
                                 {"rate", std::to_string(rate)}}));
      }
    }
  }
  return cases;
}

// Figure 6: Parity's queue grows at 8 tx/s (64 offered over its ~45) and
// is the smallest at 512, where its servers cap admission per client.
std::vector<SweepCase> Fig6(bool full) {
  std::vector<SweepCase> cases;
  for (size_t rate : {8, 512}) {
    for (const char* p : kPlatforms) {
      obs::RunSpec s = BaseSpec(p);
      s.rate = double(rate);
      s.duration = full ? 300 : 150;
      s.drain = 0;
      SweepCase c =
          Case(s, {{"platform", p}, {"rate", std::to_string(rate)}});
      c.after = QueueEvery10s(s.duration);
      cases.push_back(std::move(c));
    }
  }
  return cases;
}

// Figures 7 and 19: #clients = #servers = N.
std::vector<SweepCase> Scalability(bool full, const char* workload,
                                   const Sizes& quick) {
  Sizes sizes = full ? Sizes{1, 2, 4, 8, 12, 16, 20, 24, 28, 32} : quick;
  return Sweep(kThree, "n", sizes, [&](obs::RunSpec& s, size_t n) {
    s.servers = s.clients = n;
    s.rate = 80;  // saturates all; PBFT's channel overflows beyond 16
    s.duration = full ? 120 : 70;
    s.drain = 20;
    s.workload = workload;
  });
}

std::vector<SweepCase> Fig8(bool full) {
  Sizes sizes = full ? Sizes{8, 12, 16, 20, 24, 28, 32} : Sizes{8, 16, 24, 32};
  return Sweep(kThree, "servers", sizes, [&](obs::RunSpec& s, size_t n) {
    s.servers = n;
    s.clients = 8;
    s.rate = 140;  // saturates Ethereum, Hyperledger stays under its ceiling
    s.duration = full ? 200 : 150;
    s.drain = 20;
  });
}

// Figure 9: Hyperledger-12 stops (4 > f = 3); the others keep going.
std::vector<SweepCase> Fig9(bool full) {
  double end = full ? 400 : 360;
  std::vector<SweepCase> cases =
      Sweep(kThree, "servers", {12, 16}, [&](obs::RunSpec& s, size_t n) {
        s.servers = n;
        s.clients = 8;
        s.rate = 60;
        s.duration = end;
        s.drain = 0;
        // The last four servers, none of them hosting a client.
        for (size_t k = n - 4; k < n; ++k) s.crashes.emplace_back(k, 250);
      });
  for (SweepCase& c : cases) {
    c.after = [end](workloads::RunStack& run, SweepOutcome& out) {
      out.series["committed"] = Every(10, end, [&](size_t s) {
        double sum = 0;
        for (size_t t = s; t < s + 10 && t < size_t(end); ++t) {
          sum += run.driver().stats().CommittedInSecond(t);
        }
        return sum;
      });
    };
  }
  return cases;
}

// Figure 10: tot - bc is the double-spend window. Ethereum and Parity
// fork during the partition; Hyperledger does not.
std::vector<SweepCase> Fig10(bool full) {
  double end = full ? 400 : 350;
  std::vector<SweepCase> cases;
  for (const char* p : kPlatforms) {
    obs::RunSpec s = BaseSpec(p);
    s.servers = 8;
    s.clients = 8;
    s.rate = 60;
    s.duration = end;
    s.drain = 0;
    s.partition_start = 100;  // servers {0..3} cut off from {4..7}
    s.partition_end = 250;
    SweepCase c = Case(s, {{"platform", p}});
    // The hooks own the case's sampler (the sweep row's "timeline") and
    // the block counts sampled every 10 s.
    auto sampler =
        std::make_shared<obs::Sampler>(obs::Sampler::Config{10.0, 0.0});
    auto blocks = std::make_shared<std::pair<Series, Series>>();
    c.sinks.sampler = sampler.get();
    c.before = [end, sampler, blocks](workloads::RunStack& run) {
      for (double t = 10; t <= end; t += 10) {
        run.sim().At(t, [&run, blocks, t] {
          // All blocks produced, and the longest main branch any node
          // (either side of the cut) agrees on.
          auto& p = run.platform();
          uint64_t best_main = 0;
          for (size_t i = 0; i < p.num_servers(); ++i) {
            best_main = std::max(
                best_main, uint64_t(p.node(i).chain().main_chain_blocks()));
          }
          std::string x = std::to_string(size_t(t));
          blocks->first.emplace_back(x, double(p.TotalBlocksProduced()));
          blocks->second.emplace_back(x, double(best_main));
        });
      }
    };
    c.after = [blocks](workloads::RunStack&, SweepOutcome& out) {
      double tot = blocks->first.back().second;
      double delta = tot - blocks->second.back().second;
      out.values["delta"] = delta;
      out.values["delta_pct"] = 100.0 * delta / std::max(1.0, tot);
      out.series["tot"] = std::move(blocks->first);
      out.series["bc"] = std::move(blocks->second);
    };
    cases.push_back(std::move(c));
  }
  return cases;
}

std::vector<SweepCase> Fig13(bool full) {
  const double sat_rate[3] = {256, 64, 384};  // found by the Fig 5 sweep
  std::vector<SweepCase> cases;
  for (int pi = 0; pi < 3; ++pi) {
    for (const char* w : {"smallbank", "ycsb", "donothing"}) {
      obs::RunSpec s = BaseSpec(kPlatforms[pi]);
      s.rate = sat_rate[pi];
      s.duration = full ? 300 : 90;
      s.workload = w;
      cases.push_back(Case(
          s, {{"platform", kPlatforms[pi]}, {"workload", WorkloadLabel(w)}}));
    }
  }
  return cases;
}

// Figure 14 companion: S PBFT shards over one hash-partitioned Smallbank
// state; cross-shard payments commit by 2PC.
std::vector<SweepCase> Fig14Sharded(bool full) {
  std::vector<SweepCase> cases;
  for (size_t shards : {1, 2, 4, 8}) {
    for (double ratio : full ? std::vector<double>{0.0, 0.05, 0.1, 0.3, 0.5}
                             : std::vector<double>{0.0, 0.1}) {
      if (shards == 1 && ratio > 0) continue;  // nothing to straddle
      obs::RunSpec s = BaseSpec("hyperledger");
      if (shards > 1) s.platform += "@shards=" + std::to_string(shards);
      s.servers = 4;  // per shard
      s.clients = 4 * shards;
      // 4 x 450 = 1800 tx/s per shard sits ~1.4x above a 4-server PBFT
      // group's ~1250, so every shard runs saturated.
      s.rate = 450;
      s.duration = full ? 120 : 45;
      s.drain = 30;
      s.workload = "smallbank";
      s.cross_shard = ratio;
      cases.push_back(Case(s, {{"shards", std::to_string(shards)},
                               {"ratio", Format("%.2f", ratio)}}));
    }
  }
  return cases;
}

// Figure 15: Ethereum's gasLimit (and difficulty) 0.5x / 1x / 2x, Parity's
// stepDuration 1 / 2 / 4 s, Hyperledger's batchSize 250 / 500 / 1000.
std::vector<SweepCase> Fig15(bool full) {
  const char* sizes[3] = {"small", "medium", "large"};
  std::vector<SweepCase> cases;
  for (const char* p : kPlatforms) {
    for (int si = 0; si < 3; ++si) {
      double factor = si == 0 ? 0.5 : (si == 1 ? 1.0 : 2.0);
      obs::RunSpec s = BaseSpec(p);
      s.rate = 384;
      s.duration = full ? 240 : 90;
      s.drain = 10;
      SweepCase c = Case(s, {{"platform", p}, {"size", sizes[si]}});
      auto& o = c.options.emplace(
          platform::StackOptionsFromString(p).ValueOr({}));
      if (std::string(p) == "ethereum") {
        o.block_tx_limit = size_t(double(o.block_tx_limit) * factor);
        o.pow.base_block_interval *= factor;
      } else if (std::string(p) == "parity") {
        o.poa.step_duration *= 2.0 * factor;
      } else {
        o.pbft.batch_size = size_t(double(o.pbft.batch_size) * factor);
        o.block_tx_limit = o.pbft.batch_size;
      }
      c.after = BlocksPerSecond(s);
      cases.push_back(std::move(c));
    }
  }
  return cases;
}

// Figure 16: Ethereum is CPU-bound, Hyperledger network-bound.
std::vector<SweepCase> Fig16(bool) {
  // Hyperledger at ~60% load, where the contrast shows.
  const double rates[3] = {256, 64, 100};
  std::vector<SweepCase> cases;
  for (int pi = 0; pi < 3; ++pi) {
    obs::RunSpec s = BaseSpec(kPlatforms[pi]);
    s.rate = rates[pi];
    s.duration = 100;
    s.drain = 0;
    SweepCase c = Case(s, {{"platform", kPlatforms[pi]}});
    c.after = [](workloads::RunStack& run, SweepOutcome& out) {
      const auto& meter = run.platform().node(1).meter();
      out.series["cpu%"] = Every(
          5, 100, [&](size_t t) { return meter.CpuUtilizationAt(t) * 100; });
      out.series["Mbps"] =
          Every(5, 100, [&](size_t t) { return meter.NetworkMbpsAt(t); });
      Series& msgs = out.series["msgs"];
      msgs.emplace_back("total", 0);
      for (const auto& [type, n] : meter.msgs_sent_by_type()) {
        msgs.emplace_back(type, double(n));
        msgs.front().second += double(n);
      }
    };
    cases.push_back(std::move(c));
  }
  return cases;
}

std::vector<SweepCase> Fig17(bool full) {
  const double rates[3] = {30, 64, 200};  // near-peak load per platform
  std::vector<SweepCase> cases;
  for (const char* w : {"ycsb", "smallbank"}) {
    for (int pi = 0; pi < 3; ++pi) {
      obs::RunSpec s = BaseSpec(kPlatforms[pi]);
      s.rate = rates[pi];
      s.duration = full ? 300 : 120;
      s.workload = w;
      SweepCase c = Case(
          s, {{"platform", kPlatforms[pi]}, {"workload", WorkloadLabel(w)}});
      c.after = [](workloads::RunStack& run, SweepOutcome& out) {
        const Histogram& h = run.driver().stats().latencies();
        Series& cdf = out.series["latency"];
        for (double pct : {1., 5., 10., 25., 50., 75., 90., 95., 99., 99.9}) {
          cdf.emplace_back(Format("%.1f", pct), h.Percentile(pct));
        }
        cdf.emplace_back("stddev", h.Stddev());
      };
      cases.push_back(std::move(c));
    }
  }
  return cases;
}

std::vector<SweepCase> Fig18(bool full) {
  std::vector<SweepCase> cases;
  for (const char* p : kPlatforms) {
    obs::RunSpec s = BaseSpec(p);
    s.servers = 20;
    s.clients = 20;
    s.rate = 100;  // overload: Hyperledger-20 generates no blocks
    s.duration = full ? 350 : 200;
    s.drain = 0;
    SweepCase c = Case(s, {{"platform", p}});
    c.after = QueueEvery10s(s.duration);
    cases.push_back(std::move(c));
  }
  return cases;
}

// Not a paper figure: Fig 7's memory companion, under a light load that
// writes no state, for bbreport mem --gate-scaling.
std::vector<SweepCase> MemScale(bool full) {
  Sizes sizes = full ? Sizes{4, 8, 16, 32, 64} : Sizes{4, 8, 16, 32};
  return Sweep(kAllPlatforms, "n", sizes, [&](obs::RunSpec& s, size_t n) {
    s.servers = n;
    s.clients = 4;
    s.rate = 5;
    s.workload = "donothing";
    s.duration = full ? 60 : 40;
    s.drain = 15;
  });
}

// Every consensus x state tree x execution stack, then the registry's
// stacks; --full adds the noop execution layer.
std::vector<SweepCase> AblationLayers(bool full) {
  std::vector<std::pair<std::string, std::string>> platforms;
  for (const char* c : {"pow", "poa", "pbft", "tendermint", "raft"}) {
    for (const char* t : {"trie", "bucket"}) {
      for (const char* e : {"evm", "native", "noop"}) {
        if (std::string(e) == "noop" && !full) continue;
        platforms.emplace_back("stack", std::string(c) + "+" + t + "+" + e);
      }
    }
  }
  for (const auto& name : platform::PlatformRegistry::Instance().Names()) {
    platforms.emplace_back("platform", name);
  }
  std::vector<SweepCase> cases;
  for (const auto& [key, platform] : platforms) {
    obs::RunSpec s = BaseSpec(platform);
    s.servers = s.clients = 4;
    s.rate = 30;
    s.duration = full ? 120 : 60;
    s.drain = 20;
    s.warmup = 10;
    s.ycsb_records = 1000;
    cases.push_back(Case(s, {{key, platform}}));
  }
  return cases;
}

// Parity without its signing stage: signing, not PoA, binds (§5).
std::vector<SweepCase> AblationSigning(bool full) {
  const char* names[4] = {"parity (baseline)", "parity, signing removed",
                          "parity, 2x faster signing",
                          "parity, no admission cap"};
  std::vector<SweepCase> cases;
  for (int variant = 0; variant < 4; ++variant) {
    obs::RunSpec s = BaseSpec("parity");
    s.rate = 256;
    s.duration = full ? 240 : 90;
    SweepCase c = Case(s, {{"variant", names[variant]}});
    auto& o = c.options.emplace(
        platform::StackOptionsFromString("parity").ValueOr({}));
    if (variant == 1) {
      // The whole signing-bound client stack: the per-tx seal cost and
      // the admission limit derived from it.
      o.seal_sign_cpu = 0;
      o.block_tx_limit = 820;
      o.admission_rate_limit = 0;
    } else if (variant == 2) {
      o.seal_sign_cpu /= 2;
      o.admission_rate_limit *= 2;
    } else if (variant == 3) {
      o.admission_rate_limit = 0;
    }
    cases.push_back(std::move(c));
  }
  return cases;
}

// The fault modes of §3.3 that the paper does not plot.
std::vector<SweepCase> FaultModes(bool full) {
  std::vector<SweepCase> cases;
  for (bool corrupt : {false, true}) {
    for (const char* p : kAllPlatforms) {
      for (double v : corrupt ? std::vector<double>{0.0, 0.02, 0.10, 0.25}
                              : std::vector<double>{0.0, 0.05, 0.2, 0.5}) {
        obs::RunSpec s = BaseSpec(p);
        s.rate = 40;
        s.duration = full ? 180 : 80;
        (corrupt ? s.corrupt : s.delay) = v;
        SweepCase c = Case(
            s, {{"platform", p},
                {"mode", corrupt ? "corrupt" : "delay"},
                corrupt ? std::pair{"corrupt_pct", std::to_string(int(v * 100))}
                        : std::pair{"delay_ms", std::to_string(int(v * 1e3))}});
        if (!corrupt) {
          c.after = [](workloads::RunStack& run, SweepOutcome& out) {
            uint64_t worst = 0;
            for (size_t i = 0; i < run.platform().num_servers(); ++i) {
              worst = std::max<uint64_t>(
                  worst, run.platform().node(i).chain().orphaned_blocks());
            }
            out.values["orphans"] = double(worst);
          };
        }
        cases.push_back(std::move(c));
      }
    }
  }
  return cases;
}

// The five consensus engines head to head under one YCSB load.
std::vector<SweepCase> ConsensusCompare(bool full) {
  const char* consensus[] = {"PoW", "PoA", "PBFT", "Tendermint", "Raft(CFT)"};
  std::vector<SweepCase> cases;
  for (size_t i = 0; i < std::size(kAllPlatforms); ++i) {
    for (size_t n : {4, 8, 16}) {
      obs::RunSpec s = BaseSpec(kAllPlatforms[i]);
      s.servers = s.clients = n;
      s.rate = 128;
      s.duration = full ? 180 : 80;
      SweepCase c = Case(s, {{"platform", kAllPlatforms[i]},
                             {"consensus", consensus[i]},
                             {"n", std::to_string(n)}});
      c.after = BlocksPerSecond(s);
      cases.push_back(std::move(c));
    }
  }
  return cases;
}

std::vector<Figure> MakeFigures() {
  using R = core::BenchReport;
  const Column tput = Report("tput tx/s", "%.1f", &R::throughput);
  const Column p50 = Report("lat p50 (s)", "%.2f", &R::latency_p50);
  const Column mean = Report("lat mean (s)", "%.2f", &R::latency_mean);
  const Column committed = Report("committed", "%.0f", &R::committed);
  const Column blocks_per_s = Value("blocks/s", "%.2f", "blocks/s");
  return {
      {.name = "fig5_peak",
       .title = "Figure 5(b,c): throughput & latency vs request rate "
                "(8 clients, 8 servers, YCSB + Smallbank)",
       .cases = Fig5,
       .columns = {tput, p50, mean},
       .pivots = {{"Figure 5(a): peak performance (paper: Eth 284/255, "
                   "Parity 45/46, Hyperledger 1273/1122 tx/s)",
                   "platform", "workload", {tput, mean}}}},
      {.name = "fig6_queue",
       .title = "Figure 6: client queue over time (8 clients, 8 servers)",
       .cases = Fig6,
       .series = {{"queue length, tx/s per client", "time(s)",
                   {{"queue", "%.0f"}}, "rate"}}},
      {.name = "fig7_scalability",
       .title = "Figure 7: scalability, #clients = #servers = N (YCSB)",
       .cases =
           [](bool full) {
             return Scalability(full, "ycsb", {2, 4, 8, 16, 20, 28, 32});
           },
       .columns = {tput, p50, committed}},
      {.name = "fig8_servers",
       .title = "Figure 8: scalability with fixed 8 clients (YCSB)",
       .cases = Fig8,
       .columns = {tput, p50}},
      {.name = "fig9_crash",
       .title = "Figure 9: committed tx per 10 s; 4 servers crash at 250 s",
       .cases = Fig9,
       .series = {{nullptr, "time(s)", {{"committed", "%.0f"}}}},
       .audit = true},
      {.name = "fig10_attack",
       .title = "Figure 10: blocks generated (tot) vs blocks on the main "
                "branch (bc); partition [100s, 250s)",
       .cases = Fig10,
       .columns = {Value("tot - bc at end", "%.0f", "delta"),
                   Value("% of tot", "%.1f", "delta_pct")},
       .series = {{nullptr, "time(s)", {{"tot", "%.0f"}, {"bc", "%.0f"}}}},
       .audit = true},
      {.name = "fig13_donothing",
       .title = "Figure 13(c): transaction throughput by workload (paper: "
                "Eth 256/284/328, Parity 45/45/46, HL 1122/1273/1285)",
       .cases = Fig13,
       .pivots = {{nullptr, "platform", "workload", {tput}}}},
      {.name = "fig14_sharded",
       .title = "Figure 14 companion: sharded PBFT + 2PC (Smallbank)",
       .cases = Fig14Sharded,
       .columns = {tput, p50, Report("xs sub", "%.0f", &R::xs_submitted),
                   Report("xs cmt", "%.0f", &R::xs_committed),
                   Report("xs abt", "%.0f", &R::xs_aborted)},
       // The scaling claim behind making sharding an axis at all.
       .checks = {{"4-shard speedup at ratio 0",
                   {{"shards", "4"}, {"ratio", "0.00"}},
                   {{"shards", "1"}, {"ratio", "0.00"}},
                   2.5}}},
      {.name = "fig15_blocksize",
       .title = "Figure 15: block generation rate vs block size",
       .cases = Fig15,
       .columns = {blocks_per_s, tput}},
      {.name = "fig16_utilization",
       .title = "Figure 16: resource utilization over time (server 1)",
       .cases = Fig16,
       .series = {{nullptr, "time(s)", {{"cpu%", "%.1f"}, {"Mbps", "%.2f"}}},
                  {"messages sent by server 1, per type", "type",
                   {{"msgs", "%.0f"}}}}},
      {.name = "fig17_latency_cdf",
       .title = "Figure 17: commit latency distribution (8 clients/servers)",
       .cases = Fig17,
       .series = {{"latency (s) by percentile", "pct",
                   {{"latency", "%.2f"}}, "workload"}}},
      {.name = "fig18_queue20",
       .title = "Figure 18: client queue over time, 20 servers / 20 clients",
       .cases = Fig18,
       .columns = {committed},
       .series = {{nullptr, "time(s)", {{"queue", "%.0f"}}}}},
      {.name = "fig19_smallbank_scal",
       .title = "Figure 19: scalability, #clients = #servers = N (Smallbank)",
       .cases =
           [](bool full) {
             return Scalability(full, "smallbank", {2, 4, 8, 16, 24, 32});
           },
       .columns = {tput, p50}},
      {.name = "fig_memscale",
       .title = "Memory scaling: peak footprint vs N (DoNothing, light load)",
       .cases = MemScale,
       .columns = {Mem("peak node B", "%.0f", "peak_node_bytes"),
                   Mem("cluster peak B", "%.0f", "cluster_peak"),
                   Mem("bytes/tx", "%.1f", "bytes_per_committed_tx"),
                   committed},
       .mem = true},
      {.name = "ablation_layers",
       .title = "Layer ablation: consensus x state tree x execution, YCSB 4/4",
       .cases = AblationLayers,
       .columns = {tput, Report("p50 (s)", "%.3f", &R::latency_p50),
                   Report("p95 (s)", "%.3f", &R::latency_p95), committed}},
      {.name = "ablation_signing",
       .title = "Ablation: Parity with and without its signing stage (YCSB)",
       .cases = AblationSigning,
       .columns = {tput, p50}},
      {.name = "fault_modes",
       .title = "Fault modes: one-way network delay and message corruption",
       .cases = FaultModes,
       .columns = {tput, p50, Value("orphans", "%.0f", "orphans")}},
      {.name = "consensus_compare",
       .title = "Consensus engines head-to-head (YCSB, saturating load)",
       .cases = ConsensusCompare,
       .columns = {tput, p50, blocks_per_s}},
  };
}

size_t IndexOf(const std::vector<std::string>& v, const std::string& s) {
  return size_t(std::find(v.begin(), v.end(), s) - v.begin());
}

/// Each value of label `key`, in case order, once.
std::vector<std::string> Distinct(const std::vector<SweepCase>& cases,
                                  const std::string& key) {
  std::vector<std::string> out;
  for (const SweepCase& c : cases) {
    const std::string* v = FindLabel(c.labels, key);
    if (v != nullptr && IndexOf(out, *v) == out.size()) out.push_back(*v);
  }
  return out;
}

/// One cell of a table: row key, column key, text.
using Cell = std::array<std::string, 3>;

/// Prints `cells` aligned, row keys down the side under `corner` and
/// column keys across, both in first-seen order; an empty cell prints
/// as "-". The one printer of rows, series and pivots.
void PrintTable(const std::string& corner, const std::vector<Cell>& cells) {
  std::vector<std::string> rows, cols = {corner};
  for (const auto& [r, c, text] : cells) {
    if (IndexOf(rows, r) == rows.size()) rows.push_back(r);
    if (IndexOf(cols, c) == cols.size()) cols.push_back(c);
  }
  std::vector<std::vector<std::string>> grid = {cols};
  for (const std::string& r : rows) {
    grid.emplace_back(cols.size(), "-").front() = r;
  }
  for (const auto& [r, c, text] : cells) {
    grid[IndexOf(rows, r) + 1][IndexOf(cols, c)] = text;
  }
  std::vector<size_t> width(cols.size(), 0);
  for (const auto& line : grid) {
    for (size_t i = 0; i < line.size(); ++i) {
      width[i] = std::max(width[i], line[i].size());
    }
  }
  for (const auto& line : grid) {
    std::string out = line[0] + std::string(width[0] - line[0].size(), ' ') +
                      " |";
    for (size_t i = 1; i < line.size(); ++i) {
      out += std::string(width[i] - line[i].size() + 1, ' ') + line[i];
    }
    std::printf("%s\n", out.c_str());
  }
}

/// One line per case that ran: its labels, then the figure's columns.
void PrintRows(const Figure& fig, const std::vector<SweepCase>& cases,
               const std::vector<SweepOutcome>& outcomes) {
  std::vector<std::string> keys;
  std::vector<Cell> cells;
  for (size_t i = 0; i < cases.size(); ++i) {
    for (const auto& [k, v] : cases[i].labels) {
      if (IndexOf(keys, k) == keys.size()) keys.push_back(k);
    }
    if (!outcomes[i].status.ok()) continue;
    for (const Column& col : fig.columns) {
      cells.push_back({CaseName(cases[i].labels), col.name,
                       Format(col.format, col.value(outcomes[i]))});
    }
  }
  std::string corner;
  for (const std::string& k : keys) corner += (corner.empty() ? "" : "-") + k;
  PrintTable(corner, cells);
}

void PrintSeries(const SeriesTable& t, const std::vector<SweepCase>& cases,
                 const std::vector<SweepOutcome>& outcomes) {
  for (const std::string& group :
       t.split ? Distinct(cases, t.split) : std::vector<std::string>{""}) {
    std::printf("\n");
    if (t.title != nullptr) {
      std::string title = t.title;
      if (t.split) title += ", " + std::string(t.split) + "=" + group;
      std::printf("%s:\n", title.c_str());
    }
    std::vector<Cell> cells;
    for (size_t i = 0; i < cases.size(); ++i) {
      if (t.split && *FindLabel(cases[i].labels, t.split) != group) continue;
      for (const auto& [name, format] : t.series) {
        std::string col = CaseName(cases[i].labels, t.split);
        if (t.series.size() > 1) col += std::string("-") + name;
        auto it = outcomes[i].series.find(name);
        if (it == outcomes[i].series.end()) continue;
        for (const auto& [x, y] : it->second) {
          cells.push_back({x, col, Format(format, y)});
        }
      }
    }
    PrintTable(t.x, cells);
  }
}

void PrintPivot(const Pivot& p, const std::vector<SweepCase>& cases,
                const std::vector<SweepOutcome>& outcomes) {
  // The case filling each (row, column) cell, in first-seen order.
  std::vector<std::pair<std::string, std::string>> keys;
  std::vector<const SweepOutcome*> best;
  for (size_t i = 0; i < cases.size(); ++i) {
    const std::string* r = FindLabel(cases[i].labels, p.rows);
    const std::string* c = FindLabel(cases[i].labels, p.cols);
    if (r == nullptr || c == nullptr || !outcomes[i].status.ok()) continue;
    size_t k = size_t(std::find(keys.begin(), keys.end(), std::pair{*r, *c}) -
                      keys.begin());
    if (k == keys.size()) {
      keys.emplace_back(*r, *c);
      best.push_back(&outcomes[i]);
    } else if (p.values.front().value(outcomes[i]) >
               p.values.front().value(*best[k])) {
      best[k] = &outcomes[i];
    }
  }
  std::printf("\n");
  if (p.title != nullptr) std::printf("%s:\n", p.title);
  std::vector<Cell> cells;
  for (const Column& v : p.values) {
    for (size_t k = 0; k < keys.size(); ++k) {
      cells.push_back({keys[k].first, keys[k].second + " " + v.name,
                       Format(v.format, v.value(*best[k]))});
    }
  }
  PrintTable(p.rows, cells);
}

/// The outcome of the first case carrying every label in `want`.
const SweepOutcome* FindCase(const SweepRunner& runner, const Labels& want) {
  for (size_t i = 0; i < runner.cases().size(); ++i) {
    const Labels& have = runner.cases()[i].labels;
    if (std::all_of(want.begin(), want.end(), [&](const auto& kv) {
          return std::find(have.begin(), have.end(), kv) != have.end();
        })) {
      return &runner.outcomes()[i];
    }
  }
  return nullptr;
}

}  // namespace

const std::vector<Figure>& Figures() {
  static const std::vector<Figure> figures = MakeFigures();
  return figures;
}

const Figure* FindFigure(const std::string& name) {
  for (const Figure& f : Figures()) {
    if (name == f.name) return &f;
  }
  return nullptr;
}

int RunFigure(const Figure& fig, const BenchArgs& args) {
  SweepRunner runner(fig.name, args);
  if (fig.mem) runner.EnableMemTracking();
  std::vector<SweepCase> cases = fig.cases(args.full);
  // Audited figures: one flight recorder per case, so a violated audit
  // dumps the case's black box with the bbench --replay line.
  std::vector<std::unique_ptr<obs::FlightRecorder>> recorders(cases.size());
  std::vector<obs::AuditReport> audits(cases.size());
  for (size_t i = 0; i < cases.size(); ++i) {
    SweepCase& c = cases[i];
    if (fig.audit) {
      recorders[i] = std::make_unique<obs::FlightRecorder>();
      c.sinks.recorder = recorders[i].get();
      c.after = [measure = std::move(c.after), audit = &audits[i]](
                    workloads::RunStack& run, SweepOutcome& out) {
        if (measure) measure(run, out);
        *audit = platform::RunAudit(run.platform(), run.audit_config());
      };
    }
    runner.Add(std::move(c));
  }
  bool ok = runner.Run(nullptr);

  const std::vector<SweepCase>& ran = runner.cases();
  const std::vector<SweepOutcome>& outcomes = runner.outcomes();
  PrintHeader(fig.title);
  if (!fig.columns.empty()) PrintRows(fig, ran, outcomes);
  for (const SeriesTable& t : fig.series) PrintSeries(t, ran, outcomes);
  for (const Pivot& p : fig.pivots) PrintPivot(p, ran, outcomes);
  if (fig.audit) {
    std::string prefix(fig.name, std::strcspn(fig.name, "_"));
    std::printf("\nLedger audit (cross-node forensics):\n");
    for (size_t i = 0; i < ran.size(); ++i) {
      std::string name = CaseName(ran[i].labels);
      std::printf("%s:\n%s", name.c_str(), audits[i].RenderTable().c_str());
      if (!audits[i].ok() &&
          !DumpViolation(prefix.c_str(), *recorders[i], ran[i].spec,
                         audits[i], prefix + "-" + name + ".blackbox.json")) {
        ok = false;
      }
    }
  }
  for (const Check& check : fig.checks) {
    const SweepOutcome* num = FindCase(runner, check.num);
    const SweepOutcome* den = FindCase(runner, check.den);
    if (num == nullptr || den == nullptr || den->report.throughput <= 0) {
      continue;
    }
    double ratio = num->report.throughput / den->report.throughput;
    std::printf("\n%s: %.2fx (gate: >= %gx)\n", check.what, ratio, check.min);
    if (ratio < check.min) {
      std::fprintf(stderr, "%s: FAIL: %s %.2fx < %gx\n", fig.name,
                   check.what, ratio, check.min);
      ok = false;
    }
  }
  return ok ? 0 : 1;
}

}  // namespace bb::bench
