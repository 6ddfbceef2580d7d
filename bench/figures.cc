// The figure table. What each figure shows in the paper, and what it
// measures here, is in EXPERIMENTS.md under the figure's name.

#include "figures.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>

#include "baseline/hstore.h"
#include "chain/state_db.h"
#include "storage/bucket_tree.h"
#include "storage/diskkv.h"
#include "storage/memkv.h"
#include "storage/patricia_trie.h"
#include "util/random.h"
#include "vm/assembler.h"
#include "vm/interpreter.h"
#include "vm/native.h"
#include "workloads/analytics.h"

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

/// A latency of the case's report: undefined when it committed nothing.
Column Latency(const char* name, const char* format,
               double core::BenchReport::*field) {
  return {name, format, [field](const SweepOutcome& o) {
            return o.report.committed == 0 ? NAN : o.report.*field;
          }};
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
            return v == nullptr || !v->is_number() ? NAN : v->AsDouble();
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

// Each of kPlatforms saturated, as found by the Fig 5 sweep.
const double kSaturatingRate[3] = {256, 64, 384};

std::vector<SweepCase> Fig13(bool full) {
  std::vector<SweepCase> cases;
  for (int pi = 0; pi < 3; ++pi) {
    for (const char* w : {"smallbank", "ycsb", "donothing"}) {
      obs::RunSpec s = BaseSpec(kPlatforms[pi]);
      s.rate = kSaturatingRate[pi];
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

// The sharding argument of §5: K PBFT shards of 4 servers each over
// one hash-partitioned YCSB state, no transaction straddling shards.
// Aggregate throughput should grow ~K x with per-shard latency flat,
// where Fig 7's one consensus group of the same total size collapses.
std::vector<SweepCase> AblationSharding(bool full) {
  std::vector<SweepCase> cases;
  for (size_t shards : {1, 2, 4, 8}) {
    obs::RunSpec s = BaseSpec("hyperledger");
    if (shards > 1) s.platform += "@shards=" + std::to_string(shards);
    s.servers = 4;  // per shard
    s.clients = 4 * shards;
    s.rate = 120;  // near one shard's saturation
    s.warmup = 10;
    s.duration = full ? 180 : 80;
    s.drain = 20;
    s.cross_shard = 0;
    cases.push_back(Case(s, {{"shards", std::to_string(shards)}}));
  }
  return cases;
}

/// Seconds since `t0` on the steady clock.
double Since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Figure 11: CPUHeavy, a quicksort over a descending array, as real
// execution time and accounted peak memory per execution engine: the
// geth-style EVM (slow dispatch, heavily boxed words), the Parity-style
// EVM (optimized dispatch, leaner boxing) and native chaincode
// (Hyperledger). Every engine runs on one thread, as the paper's systems
// did. Quick sizes are the paper's two decades down.
Status Fig11(bool full, std::vector<Row>* rows) {
  const std::vector<int64_t> sizes =
      full ? std::vector<int64_t>{1'000'000, 10'000'000, 100'000'000}
           : std::vector<int64_t>{10'000, 100'000, 1'000'000};
  auto eth = platform::StackOptionsFromString("ethereum");
  if (!eth.ok()) return eth.status();
  auto par = platform::StackOptionsFromString("parity");
  if (!par.ok()) return par.status();
  // The testbed's 32 GB ceiling relative to the sweep: the geth-style
  // engine (2200 B/word accounted) dies at the largest size, as in the
  // paper.
  eth->vm.memory_word_limit = uint64_t(double(sizes.back()) * 0.6);
  const std::pair<const char*, const vm::VmOptions*> engines[] = {
      {"ethereum(EVM)", &eth->vm},
      {"parity(EVM)", &par->vm},
      {"hyperledger(native)", nullptr}};
  workloads::RegisterAllChaincodes();
  for (const auto& [engine, vm_options] : engines) {
    for (int64_t n : sizes) {
      vm::MapHost host;
      vm::TxContext ctx;
      ctx.function = "sort";
      ctx.args = {vm::Value(n)};
      auto t0 = std::chrono::steady_clock::now();
      vm::ExecReceipt r;
      if (vm_options == nullptr) {
        auto cc = vm::ChaincodeRegistry::Instance().Create(
            workloads::kCpuHeavyChaincode);
        if (!cc.ok()) return cc.status();
        r = vm::NativeRuntime().Execute(cc->get(), ctx, &host);
        // The array itself (8 B elements) and the partition stack; no
        // boxing.
        r.peak_memory_bytes = uint64_t(n) * 8 + (1 << 16);
      } else {
        auto program = vm::Assemble(workloads::CpuHeavyCasm());
        if (!program.ok()) return program.status();
        r = vm::Interpreter(*vm_options).Execute(*program, ctx, &host);
      }
      double seconds = Since(t0);
      if (!r.status.ok() && !r.status.IsOutOfMemory()) return r.status;
      Row& row = rows->emplace_back();
      row.labels = {{"engine", engine}, {"size", std::to_string(n)}};
      if (r.status.ok()) {
        row.metrics = {{"seconds", seconds},
                       {"peak_bytes", double(r.peak_memory_bytes)}};
      } else {
        row.status = "OOM";
      }
    }
  }
  return Status::Ok();
}

/// Removes a directory and what is in it when it goes out of scope.
class RemoveOnExit {
 public:
  explicit RemoveOnExit(std::string path) : path_(std::move(path)) {}
  RemoveOnExit(const RemoveOnExit&) = delete;
  RemoveOnExit& operator=(const RemoveOnExit&) = delete;
  ~RemoveOnExit() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }

 private:
  std::string path_;
};

/// What one fig12 stack measured.
struct IoResult {
  bool oom = false;
  uint64_t written = 0;
  double write_ops_per_sec = 0;
  double read_ops_per_sec = 0;
  uint64_t storage_bytes = 0;
};

std::string IoKey(uint64_t i, Rng& rng) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "k%07llu%012llu",
                (unsigned long long)(i % 10'000'000),
                (unsigned long long)(rng.Next() % 1'000'000'000'000ULL));
  return std::string(buf, 20);
}

/// One fig12 stack: `tuples` random writes committed 500 at a time, then
/// up to 200K random reads of the written keys.
Result<IoResult> IoHeavyStack(const std::string& name, uint64_t tuples,
                              const std::string& dir,
                              uint64_t parity_mem_cap) {
  std::unique_ptr<storage::KvStore> store;
  std::unique_ptr<chain::StateDb> db;
  if (name == "parity") {
    // A trie held entirely in (bounded) memory.
    store = std::make_unique<storage::MemKv>(parity_mem_cap);
    db = std::make_unique<chain::TrieStateDb>(store.get());
  } else {
    // Ethereum: a trie over a disk log with a partial node cache.
    // Hyperledger: flat keys and a bucket-Merkle root over a disk log.
    auto disk = storage::DiskKv::Open(dir + "/" + name + ".log");
    if (!disk.ok()) return disk.status();
    store = std::move(*disk);
    if (name == "ethereum") {
      db = std::make_unique<chain::TrieStateDb>(
          store.get(), storage::kDiskTrieCacheEntries);
    } else {
      db = std::make_unique<chain::BucketStateDb>(store.get());
    }
  }

  IoResult res;
  const std::string value(100, 'v');
  Rng rng(4242);
  std::vector<std::string> keys;
  keys.reserve(tuples);
  auto t0 = std::chrono::steady_clock::now();
  const uint64_t kBatch = 500;  // commit granularity (one block's worth)
  while (res.written < tuples && !res.oom) {
    uint64_t n = std::min(kBatch, tuples - res.written);
    for (uint64_t i = 0; i < n && !res.oom; ++i) {
      keys.push_back(IoKey(res.written + i, rng));
      res.oom = !db->Put("io", keys.back(), value).ok();
    }
    // A commit that fits after a refused put still counts its batch.
    auto c = db->Commit();
    if (!c.ok() && !c.status().IsOutOfMemory()) return c.status();
    if (!c.ok()) {
      res.oom = true;
      break;
    }
    res.written += n;
  }
  if (res.oom) return res;
  res.write_ops_per_sec = double(res.written) / Since(t0);

  uint64_t reads = std::min<uint64_t>(tuples, 200'000);
  std::string out;
  auto t1 = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < reads; ++i) {
    (void)db->Get("io", keys[rng.Uniform(keys.size())], &out);
  }
  res.read_ops_per_sec = double(reads) / Since(t1);
  res.storage_bytes = db->storage_bytes();
  return res;
}

// Figure 12: IOHeavy, bulk random writes and then reads of 20-byte keys
// and 100-byte values through each platform's data model, as real ops/s
// and storage. Quick sizes are the paper's divided by 40, and so is
// Parity's memory cap: it runs out between 80K and 160K tuples, as the
// paper's did beyond ~3M.
Status Fig12(bool full, std::vector<Row>* rows) {
  const std::vector<uint64_t> sizes =
      full ? std::vector<uint64_t>{800'000, 1'600'000, 3'200'000, 6'400'000,
                                   12'800'000}
           : std::vector<uint64_t>{20'000, 40'000, 80'000, 160'000, 320'000};
  const uint64_t parity_cap = full ? 3'600'000'000ULL : 210'000'000ULL;
  // A directory of its own, so that runs side by side share no log.
  const char* tmp = std::getenv("TMPDIR");
  std::string dir = std::string(tmp != nullptr && *tmp ? tmp : "/tmp") +
                    "/fig12_ioheavy-XXXXXX";
  if (mkdtemp(dir.data()) == nullptr) {
    return Status::Unavailable("mkdtemp " + dir + ": " + std::strerror(errno));
  }
  RemoveOnExit remove(dir);
  for (const char* p : kPlatforms) {
    for (uint64_t n : sizes) {
      auto r = IoHeavyStack(p, n, dir, parity_cap);
      if (!r.ok()) return r.status();
      Row& row = rows->emplace_back();
      row.labels = {{"platform", p}, {"tuples", std::to_string(n)}};
      if (r->oom) {
        row.status = "OOM";
        row.metrics = {{"written", double(r->written)}};
      } else {
        row.metrics = {{"write_ops_per_sec", r->write_ops_per_sec},
                       {"read_ops_per_sec", r->read_ops_per_sec},
                       {"storage_bytes", double(r->storage_bytes)}};
      }
    }
  }
  return Status::Ok();
}

// Figure 13(a,b): the latency of historical queries over a preloaded
// chain (10K blocks of ~3 transfers). Q1 sums the value committed
// between two blocks with one getBlock RPC per block on every platform;
// Q2 aggregates one account's balance over the same blocks, one
// getBalance RPC per block on Ethereum and Parity and one VersionKVStore
// chaincode query on Hyperledger, whose bucket state has no history.
Status Fig13Analytics(bool full, std::vector<Row>* rows) {
  workloads::AnalyticsConfig config;
  config.num_blocks = full ? 100'000 : 10'000;
  config.num_accounts = full ? 120'000 : 10'000;
  for (const char* p : kPlatforms) {
    auto options = platform::StackOptionsFromString(p);
    if (!options.ok()) return options.status();
    sim::Simulation sim(7);
    platform::Platform chain(&sim, *options, 1);
    BB_RETURN_IF_ERROR(workloads::SetupAnalyticsChain(&chain, config));
    chain.Start();
    workloads::AnalyticsClient client(1, &chain.network(), 0, config);
    uint64_t head = chain.node(0).chain().head_height();
    for (bool q1 : {true, false}) {
      for (uint64_t scan : {1, 10, 100, 1'000, 10'000}) {
        if (scan > head) continue;
        if (q1) {
          client.StartQ1(head - scan, head);
        } else {
          client.StartQ2(workloads::AnalyticsHotAccount(), head - scan, head,
                         std::string(p) == "hyperledger");
        }
        double latency = workloads::RunAnalyticsQuery(&sim, &client);
        Row& row = rows->emplace_back();
        row.labels = {{"platform", p},
                      {"query", q1 ? "Q1" : "Q2"},
                      {"blocks", std::to_string(scan)}};
        row.metrics = {{"latency_seconds", latency},
                       {"rpcs", double(client.rpcs_issued())}};
        row.values["result"] = double(client.result());
      }
    }
  }
  return Status::Ok();
}

// Figure 14's chain side: each platform saturated on YCSB and Smallbank.
std::vector<SweepCase> Fig14HStore(bool full) {
  std::vector<SweepCase> cases;
  for (int pi = 0; pi < 3; ++pi) {
    for (const char* w : {"ycsb", "smallbank"}) {
      obs::RunSpec s = BaseSpec(kPlatforms[pi]);
      s.rate = kSaturatingRate[pi];
      s.duration = full ? 180 : 70;
      s.workload = w;
      cases.push_back(Case(
          s, {{"platform", kPlatforms[pi]}, {"workload", WorkloadLabel(w)}}));
    }
  }
  return cases;
}

// YCSB over H-Store: single-key operations, always single-partition.
baseline::HsTransaction HStoreYcsb(Rng& rng) {
  baseline::HsTransaction t;
  baseline::KvOp op;
  op.is_write = rng.Bernoulli(0.5);
  op.key = "user" + std::to_string(rng.Uniform(100000));
  if (op.is_write) op.value = std::string(100, 'v');
  t.ops.push_back(std::move(op));
  return t;
}

// Smallbank over H-Store: multi-key transactions, often 2PC.
baseline::HsTransaction HStoreSmallbank(Rng& rng) {
  baseline::HsTransaction t;
  std::string a = "acct" + std::to_string(rng.Uniform(100000));
  std::string b = "acct" + std::to_string(rng.Uniform(100000));
  auto read = [](const std::string& k) {
    return baseline::KvOp{false, k, ""};
  };
  auto write = [](const std::string& k) {
    return baseline::KvOp{true, k, "100"};
  };
  double p = rng.NextDouble();
  if (p < 0.25) {  // sendPayment: two accounts
    t.ops = {read("c_" + a), write("c_" + a), read("c_" + b),
             write("c_" + b)};
  } else if (p < 0.40) {  // amalgamate: two accounts, three keys
    t.ops = {read("s_" + a), write("s_" + a), read("c_" + a),
             write("c_" + a), write("c_" + b)};
  } else if (p < 0.55) {  // getBalance
    t.ops = {read("s_" + a), read("c_" + a)};
  } else {  // single-account updates
    t.ops = {read("c_" + a), write("c_" + a)};
  }
  return t;
}

/// One H-Store run: 8 clients at `per_client_rate` for `duration`
/// virtual seconds.
core::StatsCollector RunHStore(bool smallbank, uint64_t sim_seed,
                               uint64_t client_seed, double per_client_rate,
                               double duration) {
  sim::Simulation sim(sim_seed);
  baseline::HStoreOptions opts;
  baseline::HStoreCluster cluster(&sim, opts);
  core::StatsCollector stats(8);
  std::vector<std::unique_ptr<baseline::HStoreClient>> clients;
  for (uint32_t i = 0; i < 8; ++i) {
    clients.push_back(std::make_unique<baseline::HStoreClient>(
        sim::NodeId(opts.num_sites + i), &cluster, i,
        smallbank ? HStoreSmallbank : HStoreYcsb, &stats, per_client_rate,
        duration, client_seed + i));
  }
  for (auto& c : clients) c->Start();
  sim.RunUntil(duration + 5);
  return stats;
}

// Figure 14's baseline: H-Store on YCSB and Smallbank. Throughput from a
// saturated run; latency from a run at 40% of it, where queueing is
// negligible (the paper's blocking driver sees service latency, not
// queueing delay).
Status Fig14HStoreBaseline(bool full, std::vector<Row>* rows) {
  double duration = full ? 60 : 20;
  for (bool smallbank : {false, true}) {
    double tput = RunHStore(smallbank, 3, 1000, smallbank ? 10'000 : 40'000,
                            duration)
                      .Throughput(2, duration);
    core::StatsCollector light =
        RunHStore(smallbank, 4, 2000, tput * 0.4 / 8, duration);
    Row& row = rows->emplace_back();
    row.labels = {{"platform", "h-store"},
                  {"workload", smallbank ? "Smallbank" : "YCSB"}};
    row.metrics = {{"throughput", tput},
                   {"latency_mean", light.latencies().Mean()},
                   {"latency_p95", light.latencies().Percentile(95)}};
  }
  return Status::Ok();
}

/// One ablation_statetree structure: `n` writes of 100-byte values under
/// random keys, then up to 100K random reads, through `put` and `get`
/// over the MemKv `kv` underneath.
template <typename PutFn, typename GetFn>
Row MeasureStructure(const char* structure, uint64_t n,
                     const storage::KvStore& kv, PutFn put, GetFn get) {
  Rng rng(11);
  std::vector<std::string> keys;
  keys.reserve(n);
  const std::string value(100, 'v');
  auto t0 = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < n; ++i) {
    keys.push_back("key" + std::to_string(rng.Next() % (n * 4)));
    put(keys.back(), value);
  }
  double write_seconds = Since(t0);
  std::string out;
  uint64_t reads = std::min<uint64_t>(n, 100'000);
  auto t1 = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < reads; ++i) {
    get(keys[rng.Uniform(keys.size())], &out);
  }
  Row row;
  row.labels = {{"structure", structure}};
  row.metrics = {{"write_ops_per_sec", double(n) / write_seconds},
                 {"read_ops_per_sec", double(reads) / Since(t1)},
                 {"storage_bytes", double(kv.size_bytes())},
                 {"kv_entries", double(kv.num_entries())}};
  return row;
}

// The data-model choice in isolation (DESIGN.md §4): Patricia trie vs
// bucket-Merkle tree vs plain KV on one MemKv substrate, which separates
// a structure's own cost from the storage engine under it (Fig 12
// measures both together).
Status AblationStatetree(bool full, std::vector<Row>* rows) {
  uint64_t n = full ? 1'000'000 : 200'000;
  {
    storage::MemKv kv;
    rows->push_back(MeasureStructure(
        "plain-kv", n, kv,
        [&](const std::string& k, const std::string& v) { kv.Put(k, v); },
        [&](const std::string& k, std::string* out) { kv.Get(k, out); }));
  }
  {
    storage::MemKv kv;
    storage::BucketMerkleTree tree(&kv, 1024);
    rows->push_back(MeasureStructure(
        "bucket-merkle", n, kv,
        [&](const std::string& k, const std::string& v) { tree.Put(k, v); },
        [&](const std::string& k, std::string* out) { tree.Get(k, out); }));
    tree.RootHash();
  }
  storage::MemKv kv;
  storage::MerklePatriciaTrie trie(&kv);
  Hash256 root = storage::MerklePatriciaTrie::EmptyRoot();
  Row& row = rows->emplace_back(MeasureStructure(
      "patricia-trie", n, kv,
      [&](const std::string& k, const std::string& v) {
        auto r = trie.Put(root, k, v);
        if (r.ok()) root = *r;
      },
      [&](const std::string& k, std::string* out) {
        (void)trie.Get(root, k, out);
      }));
  // Space over a plain KV entry per put (123 B), and trie nodes written.
  row.values["amplification"] = double(kv.size_bytes()) / double(n * 123);
  row.values["node writes"] = double(trie.stats().node_writes);
  row.values["puts"] = double(n);
  return Status::Ok();
}

std::vector<Figure> MakeFigures() {
  using R = core::BenchReport;
  const Column tput = Report("tput tx/s", "%.1f", &R::throughput);
  const Column p50 = Latency("lat p50 (s)", "%.2f", &R::latency_p50);
  const Column mean = Latency("lat mean (s)", "%.2f", &R::latency_mean);
  const Column committed = Report("committed", "%.0f", &R::committed);
  const Column blocks_per_s = Value("blocks/s", "%.2f", "blocks/s");
  // fig14_hstore: a chain case's throughput is in its report, an H-Store
  // row's in its metrics.
  const Column hstore_tput = {"tx/s", "%.1f", [](const SweepOutcome& o) {
    auto it = o.values.find("throughput");
    return it == o.values.end() ? o.report.throughput : it->second;
  }};
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
      {.name = "fig11_cpuheavy",
       .title = "Figure 11: CPUHeavy, execution time and peak memory, one "
                "thread per engine (paper, two decades up: Eth 10.5/79.6/OOM "
                "s, Parity 3.0/24.0/232.8 s, HL 0.19/0.33/1.94 s)",
       .run = Fig11,
       .columns = {Value("time (s)", "%.2f", "seconds"),
                   Value("peak bytes", "%.0f", "peak_bytes")}},
      {.name = "fig12_ioheavy",
       .title = "Figure 12: IOHeavy, write/read throughput and storage (OOM: "
                "out of memory after `written` tuples, as in the paper)",
       .run = Fig12,
       .columns = {Value("write ops/s", "%.0f", "write_ops_per_sec"),
                   Value("read ops/s", "%.0f", "read_ops_per_sec"),
                   Value("storage bytes", "%.0f", "storage_bytes"),
                   Value("written", "%.0f", "written")}},
      {.name = "fig13_analytics",
       .title = "Figure 13(a,b): analytics query latency vs #blocks scanned",
       .run = Fig13Analytics,
       .columns = {Value("latency (s)", "%.3f", "latency_seconds"),
                   Value("#RPCs", "%.0f", "rpcs"),
                   Value("result", "%.0f", "result")}},
      {.name = "fig13_donothing",
       .title = "Figure 13(c): transaction throughput by workload (paper: "
                "Eth 256/284/328, Parity 45/45/46, HL 1122/1273/1285)",
       .cases = Fig13,
       .pivots = {{nullptr, "platform", "workload", {tput}}}},
      {.name = "fig14_hstore",
       .title = "Figure 14: blockchains vs H-Store (paper: H-Store 142,702 / "
                "21,596 tx/s)",
       .cases = Fig14HStore,
       .run = Fig14HStoreBaseline,
       .columns = {hstore_tput,
                   Value("H-Store lat mean (s)", "%.6f", "latency_mean"),
                   Value("H-Store lat p95 (s)", "%.6f", "latency_p95")},
       .pivots = {{"throughput (tx/s)", "platform", "workload",
                   {hstore_tput}}}},
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
       .columns = {tput, Latency("p50 (s)", "%.3f", &R::latency_p50),
                   Latency("p95 (s)", "%.3f", &R::latency_p95), committed}},
      {.name = "ablation_signing",
       .title = "Ablation: Parity with and without its signing stage (YCSB)",
       .cases = AblationSigning,
       .columns = {tput, p50}},
      {.name = "ablation_statetree",
       .title = "Ablation: state-structure cost on one in-memory substrate "
                "(200K writes, 1M with --full)",
       .run = AblationStatetree,
       .columns = {Value("write ops/s", "%.0f", "write_ops_per_sec"),
                   Value("read ops/s", "%.0f", "read_ops_per_sec"),
                   Value("store bytes", "%.0f", "storage_bytes"),
                   Value("kv entries", "%.0f", "kv_entries"),
                   Value("amplification", "%.1fx", "amplification"),
                   Value("node writes", "%.0f", "node writes"),
                   Value("puts", "%.0f", "puts")}},
      {.name = "ablation_sharding",
       .title = "Ablation: sharded PBFT, K shards of 4 servers, no "
                "cross-shard transactions (YCSB)",
       .cases = AblationSharding,
       .columns = {tput,
                   {"per-shard tx/s", "%.1f",
                    [](const SweepOutcome& o) {
                      return o.report.throughput / double(o.num_shards);
                    }},
                   p50}},
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

/// Each value of label `key`, in row order, once.
std::vector<std::string> Distinct(const std::vector<Labels>& labels,
                                  const std::string& key) {
  std::vector<std::string> out;
  for (const Labels& l : labels) {
    const std::string* v = FindLabel(l, key);
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

/// One line per row that ran: its labels, then the figure's columns.
void PrintRows(const Figure& fig, const std::vector<Labels>& labels,
               const std::vector<SweepOutcome>& outcomes) {
  std::vector<std::string> keys;
  std::vector<Cell> cells;
  for (size_t i = 0; i < labels.size(); ++i) {
    for (const auto& [k, v] : labels[i]) {
      if (IndexOf(keys, k) == keys.size()) keys.push_back(k);
    }
    if (!outcomes[i].status.ok()) continue;
    for (const Column& col : fig.columns) {
      cells.push_back({CaseName(labels[i]), col.name,
                       Format(col.format, col.value(outcomes[i]))});
    }
  }
  std::string corner;
  for (const std::string& k : keys) corner += (corner.empty() ? "" : "-") + k;
  PrintTable(corner, cells);
}

void PrintSeries(const SeriesTable& t, const std::vector<Labels>& labels,
                 const std::vector<SweepOutcome>& outcomes) {
  for (const std::string& group :
       t.split ? Distinct(labels, t.split) : std::vector<std::string>{""}) {
    std::printf("\n");
    if (t.title != nullptr) {
      std::string title = t.title;
      if (t.split) title += ", " + std::string(t.split) + "=" + group;
      std::printf("%s:\n", title.c_str());
    }
    std::vector<Cell> cells;
    for (size_t i = 0; i < labels.size(); ++i) {
      if (t.split && *FindLabel(labels[i], t.split) != group) continue;
      for (const auto& [name, format] : t.series) {
        std::string col = CaseName(labels[i], t.split);
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

void PrintPivot(const Pivot& p, const std::vector<Labels>& labels,
                const std::vector<SweepOutcome>& outcomes) {
  // The row filling each (row, column) cell, in first-seen order.
  std::vector<std::pair<std::string, std::string>> keys;
  std::vector<const SweepOutcome*> best;
  for (size_t i = 0; i < labels.size(); ++i) {
    const std::string* r = FindLabel(labels[i], p.rows);
    const std::string* c = FindLabel(labels[i], p.cols);
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
  if (fig.run != nullptr &&
      (!args.profile_prefix.empty() || !args.mem_prefix.empty())) {
    std::string command = std::string("bbench figure ") + fig.name;
    std::fprintf(stderr,
                 "%s: %s profiles or accounts RunStack runs; this figure "
                 "measures its rows itself\n",
                 command.c_str(),
                 args.profile_prefix.empty() ? "--mem" : "--profile");
    PrintBenchUsage(command.c_str());
    return 2;
  }
  SweepRunner runner(fig.name, args);
  if (fig.mem) runner.EnableMemTracking();
  // The run function first, alone, before any worker thread exists.
  std::vector<Row> rows;
  Status measured = fig.run ? fig.run(args.full, &rows) : Status::Ok();
  if (!measured.ok()) {
    std::fprintf(stderr, "%s: %s\n", fig.name, measured.ToString().c_str());
  }
  for (const Row& row : rows) runner.Add(row);
  std::vector<SweepCase> cases = fig.cases ? fig.cases(args.full)
                                           : std::vector<SweepCase>{};
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
  bool ok = runner.Run(nullptr) && measured.ok();

  // What the tables print: the grid's cases, then the run function's
  // rows, whose numbers the columns read as values.
  const std::vector<SweepCase>& ran = runner.cases();
  std::vector<Labels> labels;
  for (const SweepCase& c : ran) labels.push_back(c.labels);
  std::vector<SweepOutcome> outcomes = runner.outcomes();
  for (const Row& row : rows) {
    labels.push_back(row.labels);
    if (row.status != "Ok") labels.back().emplace_back("status", row.status);
    SweepOutcome& o = outcomes.emplace_back();
    o.values = row.values;
    for (const auto& [k, v] : row.metrics) o.values[k] = v;
  }
  PrintHeader(fig.title);
  if (!fig.columns.empty()) PrintRows(fig, labels, outcomes);
  for (const SeriesTable& t : fig.series) PrintSeries(t, labels, outcomes);
  for (const Pivot& p : fig.pivots) PrintPivot(p, labels, outcomes);
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
