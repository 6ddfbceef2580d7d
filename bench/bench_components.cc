// Component microbenchmarks (google-benchmark): the primitive costs the
// platform models are built from — hashing, Merkle structures, the KV
// stores, VM dispatch, and the discrete-event core.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "chain/block.h"
#include "chain/state_db.h"
#include "chain/txpool.h"
#include "obs/event.h"
#include "obs/memtrack.h"
#include "obs/profiler.h"
#include "sim/network.h"
#include "sim/node.h"
#include "storage/bucket_tree.h"
#include "storage/diskkv.h"
#include "storage/memkv.h"
#include "storage/merkle_tree.h"
#include "storage/patricia_trie.h"
#include "util/flat_id_table.h"
#include "util/random.h"
#include "util/sha256.h"
#include "vm/assembler.h"
#include "vm/interpreter.h"
#include "workloads/contracts.h"

namespace bb {
namespace {

void BM_Sha256(benchmark::State& state) {
  std::string data(size_t(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::Digest(data));
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(65536);

void BM_MerkleTreeBuild(benchmark::State& state) {
  std::vector<Hash256> leaves;
  for (int64_t i = 0; i < state.range(0); ++i) {
    leaves.push_back(Sha256::Digest("leaf" + std::to_string(i)));
  }
  for (auto _ : state) {
    storage::MerkleTree t(leaves);
    benchmark::DoNotOptimize(t.root());
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * state.range(0));
}
BENCHMARK(BM_MerkleTreeBuild)->Arg(100)->Arg(500)->Arg(2000);

// --- Chain primitives ---------------------------------------------------------

chain::TxPtr BenchTx(uint64_t id) {
  chain::Transaction tx;
  tx.id = id;
  tx.sender = "client" + std::to_string(id % 16);
  tx.contract = "ycsb";
  tx.function = "update";
  tx.args = {vm::Value("user" + std::to_string(id)),
             vm::Value(std::string(100, 'v'))};
  tx.Seal();
  return chain::Share(std::move(tx));
}

chain::BlockPtr BenchBlock(size_t n_txs) {
  chain::Block b;
  for (size_t i = 0; i < n_txs; ++i) b.txs.push_back(BenchTx(i + 1));
  b.SealTxRoot();
  b.header.height = 7;
  b.header.proposer = 3;
  return chain::Seal(std::move(b));
}

// Repeated HashOf on a sealed block: the consensus hot pattern (pbft
// digest checks, fork-choice comparisons, commit bookkeeping).
void BM_BlockHashCached(benchmark::State& state) {
  chain::BlockPtr b = BenchBlock(64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(b->HashOf());
  }
}
BENCHMARK(BM_BlockHashCached);

// Admission -> batch-take -> peer-commit churn, the pool's simulation
// life-cycle: every tx is created and sealed, its wire size is queried
// for gossip (the node does this before broadcasting), proposers take
// FIFO batches, and replicas remove still-pending txs when a peer's
// block commits — with standing queue depth, as on a loaded node.
void BM_TxPoolTakeBatch(benchmark::State& state) {
  const size_t kBatch = 200;
  const int kRounds = 20;
  for (auto _ : state) {
    state.PauseTiming();
    chain::TxPool pool;
    uint64_t next_id = 1;
    uint64_t commit_cursor = 1;  // pending ids are [commit_cursor, next_id)
    state.ResumeTiming();
    for (int round = 0; round < kRounds; ++round) {
      for (size_t i = 0; i < kBatch + kBatch / 2; ++i) {
        chain::TxPtr tx = BenchTx(next_id++);
        benchmark::DoNotOptimize(tx->SizeBytes());  // gossip wire size
        pool.Add(std::move(tx));
      }
      if (round % 2 == 0) {
        auto batch = pool.TakeBatch(kBatch);
        benchmark::DoNotOptimize(batch.data());
        commit_cursor += batch.size();
      } else {
        // A peer's block commits the next kBatch pending ids; only the id
        // matters for removal.
        std::vector<chain::TxPtr> committed;
        committed.reserve(kBatch);
        for (size_t i = 0; i < kBatch; ++i) {
          chain::Transaction tx;
          tx.id = commit_cursor++;
          committed.push_back(chain::Share(std::move(tx)));
        }
        pool.RemoveCommitted(committed);
      }
    }
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * kRounds *
                          int64_t(kBatch + kBatch / 2));
}
BENCHMARK(BM_TxPoolTakeBatch);

// Gossip fan-out across one 16-replica consensus group: every sealed
// transaction is admitted by all 16 pools (the admitting server and its
// 15 gossip recipients), one replica takes a FIFO batch for its block,
// and the other 15 remove the batch when the block commits.
void BM_TxPoolGossipFanout(benchmark::State& state) {
  const size_t kPools = 16;
  const size_t kBatch = 200;
  const size_t kRounds = 10;
  std::vector<chain::TxPtr> stream;
  stream.reserve(kBatch * kRounds);
  for (size_t i = 0; i < kBatch * kRounds; ++i) {
    stream.push_back(BenchTx(i + 1));
  }
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<chain::TxPool> pools(kPools);
    state.ResumeTiming();
    size_t next = 0;
    for (size_t round = 0; round < kRounds; ++round) {
      for (size_t i = 0; i < kBatch; ++i, ++next) {
        for (auto& pool : pools) pool.Add(stream[next]);
      }
      auto batch = pools[0].TakeBatch(kBatch);
      for (size_t p = 1; p < kPools; ++p) pools[p].RemoveCommitted(batch);
      benchmark::DoNotOptimize(batch.data());
    }
  }
  state.SetItemsProcessed(int64_t(state.iterations()) *
                          int64_t(kBatch * kRounds));
}
BENCHMARK(BM_TxPoolGossipFanout);

// The replica id sets at ycsb-pbft16's size: 16 replicas, each with a pool
// and a committed-id set that already hold the 28,000 ids 16 clients
// minted as (client+1)<<40 | seq. Each round gossips 200 fresh
// transactions, interleaved across the clients, to every replica (a
// committed-set probe, then Add), and the block that carries them
// commits everywhere (committed-set inserts, RemoveCommitted).
// BM_TxPoolGossipFanout's 2,000 ids keep every set small; these sets
// start at 28,000 ids each.
void BM_TxPoolSeenProbe(benchmark::State& state) {
  const size_t kReplicas = 16;
  const uint64_t kClients = 16;
  const uint64_t kResidentPerClient = 28000 / kClients;
  const size_t kBatch = 200;
  const size_t kRounds = 10;
  auto id_of = [&](uint64_t n) {
    return (n % kClients + 1) << 40 | (n / kClients);
  };
  std::vector<chain::TxPtr> resident;
  resident.reserve(kClients * kResidentPerClient);
  for (uint64_t n = 0; n < kClients * kResidentPerClient; ++n) {
    chain::Transaction tx;
    tx.id = id_of(n);
    resident.push_back(chain::Share(std::move(tx)));
  }
  std::vector<chain::TxPtr> stream;
  stream.reserve(kBatch * kRounds);
  for (size_t i = 0; i < kBatch * kRounds; ++i) {
    stream.push_back(BenchTx(id_of(resident.size() + i)));
  }
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<chain::TxPool> pools(kReplicas);
    std::vector<util::FlatIdSet> committed(kReplicas);
    for (size_t r = 0; r < kReplicas; ++r) {
      pools[r].RemoveCommitted(resident);
      for (const auto& tx : resident) committed[r].insert(tx->id);
    }
    state.ResumeTiming();
    size_t next = 0;
    for (size_t round = 0; round < kRounds; ++round) {
      for (size_t i = 0; i < kBatch; ++i, ++next) {
        for (size_t r = 0; r < kReplicas; ++r) {
          if (committed[r].count(stream[next]->id) == 0) {
            pools[r].Add(stream[next]);
          }
        }
      }
      auto batch = pools[0].TakeBatch(kBatch);
      for (size_t r = 0; r < kReplicas; ++r) {
        for (const auto& tx : batch) committed[r].insert(tx->id);
        pools[r].RemoveCommitted(batch);
      }
      benchmark::DoNotOptimize(batch.data());
    }
  }
  state.SetItemsProcessed(int64_t(state.iterations()) *
                          int64_t(kBatch * kRounds));
}
BENCHMARK(BM_TxPoolSeenProbe);

// Both trie benchmarks run over MemKv without a node cache, as every
// platform builds its trie, and with fig12's Ethereum cache.
void BM_TriePut(benchmark::State& state) {
  storage::MemKv kv;
  storage::MerklePatriciaTrie trie(&kv, size_t(state.range(0)));
  Hash256 root = storage::MerklePatriciaTrie::EmptyRoot();
  Rng rng(1);
  uint64_t i = 0;
  for (auto _ : state) {
    auto r = trie.Put(root, "key" + std::to_string(i++ % 100000),
                      "value-payload-100b");
    root = *r;
  }
  state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_TriePut)->Arg(0)->Arg(storage::kDiskTrieCacheEntries);

void BM_TrieGet(benchmark::State& state) {
  storage::MemKv kv;
  storage::MerklePatriciaTrie trie(&kv, size_t(state.range(0)));
  Hash256 root = storage::MerklePatriciaTrie::EmptyRoot();
  for (uint64_t i = 0; i < 50000; ++i) {
    root = *trie.Put(root, "key" + std::to_string(i), "value");
  }
  Rng rng(2);
  std::string out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        trie.Get(root, "key" + std::to_string(rng.Uniform(50000)), &out));
  }
  state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_TrieGet)->Arg(0)->Arg(storage::kDiskTrieCacheEntries);

void BM_BucketTreePut(benchmark::State& state) {
  storage::MemKv kv;
  storage::BucketMerkleTree tree(&kv, 1024);
  uint64_t i = 0;
  for (auto _ : state) {
    tree.Put("key" + std::to_string(i++ % 100000), "value-payload-100b");
  }
  state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_BucketTreePut);

// A Smallbank-shaped block for the bucket tree: 784 balance writes over a
// store of 20k accounts, and the block that writes the old balances
// back, so that the two can be committed, or replayed, alternately.
struct BucketBlocks {
  static constexpr int kKeys = 20000;
  static constexpr int kWrites = 784;

  static std::string Key(int i) {
    return chain::StateDb::FullKey("smallbank", "c_acct" + std::to_string(i));
  }
  static std::unique_ptr<chain::BucketStateDb> Genesis(storage::KvStore* kv) {
    chain::StateDb::WriteSet genesis;
    for (int i = 0; i < kKeys; ++i) genesis[Key(i)] = {true, "i100000"};
    auto db = std::make_unique<chain::BucketStateDb>(kv);
    db->Commit(genesis);
    return db;
  }

  BucketBlocks() {
    Rng rng(5);
    for (int i = 0; i < kWrites; ++i) {
      const std::string key = Key(i * (kKeys / kWrites));
      there[key] = {true, "i" + std::to_string(100000 + rng.Range(1, 99))};
      back[key] = {true, "i100000"};
    }
  }

  chain::StateDb::WriteSet there, back;
};

void BM_BucketCommit(benchmark::State& state) {
  BucketBlocks blocks;
  storage::MemKv kv;
  auto db = BucketBlocks::Genesis(&kv);
  bool odd = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(db->Commit(odd ? blocks.back : blocks.there));
    odd = !odd;
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * BucketBlocks::kWrites);
}
BENCHMARK(BM_BucketCommit);

// The same blocks taken from another replica's logged commits.
void BM_BucketReplay(benchmark::State& state) {
  BucketBlocks blocks;
  storage::MemKv recorder_kv, kv;
  auto recorder = BucketBlocks::Genesis(&recorder_kv);
  auto db = BucketBlocks::Genesis(&kv);
  chain::StateDb::CommitLog there, back;
  recorder->Commit(blocks.there, &there);
  recorder->Commit(blocks.back, &back);
  bool odd = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(odd ? db->Replay(blocks.back, back)
                                 : db->Replay(blocks.there, there));
    odd = !odd;
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * BucketBlocks::kWrites);
}
BENCHMARK(BM_BucketReplay);

void BM_MemKvPut(benchmark::State& state) {
  storage::MemKv kv;
  uint64_t i = 0;
  for (auto _ : state) {
    kv.Put("key" + std::to_string(i++ % 100000), "value-payload-100b");
  }
  state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_MemKvPut);

// Reads with 32-byte binary keys, the shape of a trie node key (a node's
// SHA-256), from a store of 100k entries.
void BM_MemKvGet(benchmark::State& state) {
  constexpr uint64_t kEntries = 100000;
  storage::MemKv kv;
  std::vector<Hash256> keys;
  keys.reserve(kEntries);
  for (uint64_t i = 0; i < kEntries; ++i) {
    keys.push_back(Sha256::Digest(std::to_string(i)));
    kv.Put(Slice(reinterpret_cast<const char*>(keys.back().bytes.data()), 32),
           "value-payload-100b");
  }
  Rng rng(3);
  std::string out;
  for (auto _ : state) {
    const Hash256& k = keys[rng.Uniform(kEntries)];
    benchmark::DoNotOptimize(
        kv.Get(Slice(reinterpret_cast<const char*>(k.bytes.data()), 32), &out));
  }
  state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_MemKvGet);

void BM_DiskKvPut(benchmark::State& state) {
  auto kv = storage::DiskKv::Open("/tmp/bb_bench_diskkv.log");
  uint64_t i = 0;
  for (auto _ : state) {
    (*kv)->Put("key" + std::to_string(i++ % 100000), "value-payload-100b");
  }
  state.SetItemsProcessed(int64_t(state.iterations()));
  std::remove("/tmp/bb_bench_diskkv.log");
}
BENCHMARK(BM_DiskKvPut);

void BM_VmDispatch(benchmark::State& state) {
  // Tight arithmetic loop: measures raw interpreter dispatch speed at a
  // given dispatch_overhead (0 = Parity-class, 60 = geth-class).
  auto program = vm::Assemble(R"(
  PUSH 0
loop:
  PUSH 1
  ADD
  DUP 0
  PUSH 100000
  LT
  JUMPI loop
  RETURN
)");
  vm::VmOptions opts;
  opts.dispatch_overhead = uint32_t(state.range(0));
  vm::Interpreter interp(opts);
  vm::MapHost host;
  vm::TxContext ctx;
  ctx.function = "main";
  for (auto _ : state) {
    auto r = interp.Execute(*program, ctx, &host);
    benchmark::DoNotOptimize(r.return_value);
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * 100000 * 6);
}
BENCHMARK(BM_VmDispatch)->Arg(0)->Arg(12)->Arg(60);

void BM_ContractYcsbWrite(benchmark::State& state) {
  auto program = vm::Assemble(workloads::KvStoreCasm());
  vm::Interpreter interp;
  vm::MapHost host;
  vm::TxContext ctx;
  ctx.function = "write";
  ctx.args = {vm::Value("user123"), vm::Value(std::string(100, 'v'))};
  for (auto _ : state) {
    benchmark::DoNotOptimize(interp.Execute(*program, ctx, &host));
  }
  state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_ContractYcsbWrite);

void BM_SimulationEventLoop(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    int count = 0;
    for (int i = 0; i < 10000; ++i) {
      sim.At(double(i) * 0.001, [&count] { ++count; });
    }
    sim.RunToCompletion();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * 10000);
}
BENCHMARK(BM_SimulationEventLoop);

// Same loop, but each callback pays the disabled observation-hook test
// that every instrumented site performs (one pointer test: no tracer or
// flight recorder attached). The CI perf-smoke gate holds the ratio of
// this benchmark to BM_SimulationEventLoop under 1.02 — the "zero
// overhead when disabled" contract of docs/OBSERVABILITY.md.
void BM_SimulationEventLoopObsOff(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    int count = 0;
    for (int i = 0; i < 10000; ++i) {
      sim.At(double(i) * 0.001, [&count, &sim] {
        if (auto* hook = sim.hook()) {
          hook->Emit({.kind = obs::EventKind::kPhase, .t = sim.Now(),
                      .name = "bench.tick"});
        }
        ++count;
      });
    }
    sim.RunToCompletion();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * 10000);
}
BENCHMARK(BM_SimulationEventLoopObsOff);

// Same loop again, but each callback opens a BB_PROF_SCOPE with no
// profiler attached to the thread — the disabled wall-profiler cost
// (one thread-local load + branch in ctor and dtor). The CI perf-smoke
// gate holds the ratio to BM_SimulationEventLoop under 1.03, the
// "<3% overhead when disabled" contract of docs/OBSERVABILITY.md.
void BM_SimulationEventLoopProfOff(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    int count = 0;
    for (int i = 0; i < 10000; ++i) {
      sim.At(double(i) * 0.001, [&count] {
        BB_PROF_SCOPE("driver.bench_tick");
        ++count;
      });
    }
    sim.RunToCompletion();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * 10000);
}
BENCHMARK(BM_SimulationEventLoopProfOff);

// And the disabled byte-accounting cost: the pointer test every
// instrumented container pays when no MemTracker is attached, plus a
// null mem::Gauge re-sync (the PlatformNode epilogue shape). The CI
// perf-smoke gate holds the ratio to BM_SimulationEventLoop under 1.03 —
// memory observability must also be free when off (docs/OBSERVABILITY.md).
void BM_SimulationEventLoopMemOff(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    int count = 0;
    obs::mem::Gauge gauge;  // default-constructed: not attached
    for (int i = 0; i < 10000; ++i) {
      sim.At(double(i) * 0.001, [&count, &sim, &gauge] {
        if (auto* mt = sim.memtracker()) {
          mt->Track(obs::MemTracker::kGlobalNode, obs::mem::kSimEvents, 1);
        }
        gauge.Set(uint64_t(count));
        ++count;
      });
    }
    sim.RunToCompletion();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * 10000);
}
BENCHMARK(BM_SimulationEventLoopMemOff);

// sim_schedule: raw cost of pushing events through the queue in the
// mostly-monotonic pattern real runs produce (network delays of a few
// ms to a few hundred ms ahead of Now), then draining them. Dominated
// by queue insert/extract, not by the callbacks.
void BM_SimSchedule(benchmark::State& state) {
  const int kBatch = 10000;
  // Delay ladder approximating latency + CPU-cost + timer scales.
  static const double kDelays[] = {0.0005, 0.002, 0.01, 0.05, 0.003,
                                   0.25,   0.001, 1.0,  0.02, 0.007};
  for (auto _ : state) {
    sim::Simulation sim;
    uint64_t count = 0;
    for (int i = 0; i < kBatch; ++i) {
      sim.After(kDelays[i % 10], [&count] { ++count; });
      // Interleave scheduling with draining, as real runs do.
      if (i % 64 == 63) sim.RunUntil(sim.Now() + 0.001);
    }
    sim.RunToCompletion();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * kBatch);
}
BENCHMARK(BM_SimSchedule);

// sim_dispatch: self-perpetuating event chains — each event schedules
// its successor, so the queue stays small and the cost measured is the
// per-event dispatch path (pop, callable invocation, state capture).
void BM_SimDispatch(benchmark::State& state) {
  // Capture-heavy callable (two pointers, a double, an int), typical of
  // the network/consensus callbacks the real platforms schedule. Each
  // event reschedules a copy of itself, so the queue stays small and
  // the measured cost is the per-event dispatch path (pop, callable
  // invocation, state capture).
  struct Hop {
    sim::Simulation* sim;
    uint64_t* fired;
    double step;
    int left;
    void operator()() {
      ++*fired;
      if (left > 1) sim->After(step, Hop{sim, fired, step, left - 1});
    }
  };
  const int kChains = 16;
  const int kHops = 1000;
  for (auto _ : state) {
    sim::Simulation sim;
    uint64_t fired = 0;
    for (int c = 0; c < kChains; ++c) {
      sim.After(0.001 * (c + 1), Hop{&sim, &fired, 0.001 * (c + 1), kHops});
    }
    sim.RunToCompletion();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * kChains * kHops);
}
BENCHMARK(BM_SimDispatch);

// network_send: the full Send -> queue -> deliver -> HandleMessage path
// between two nodes, the single hottest edge in every macro benchmark.
void BM_NetworkSend(benchmark::State& state) {
  class Sink : public sim::Node {
   public:
    using sim::Node::Node;
    double HandleMessage(const sim::Message&) override { return 0; }
  };
  sim::Simulation sim;
  sim::Network net(&sim, {});
  Sink a(0, &net), b(1, &net);
  const int kBatch = 64;
  for (auto _ : state) {
    for (int i = 0; i < kBatch; ++i) {
      sim::Message m;
      m.from = 0;
      m.to = 1;
      m.kind = sim::MsgKind::kPbftPrepare;  // the hottest kind in PBFT runs
      m.size_bytes = 100;
      net.Send(std::move(m));
    }
    sim.RunUntil(sim.Now() + 1.0);
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * kBatch);
}
BENCHMARK(BM_NetworkSend);

// network_broadcast64: one PBFT-style vote round at 64 nodes. Every node
// sends one vote to each of the other 63 (one shared payload per sender,
// as HostBroadcast does), and each receiver pays PBFT's default 200 us
// per-message CPU, so arrivals queue behind busy windows the way they do
// in a donothing-pbft64 run. Items are messages delivered.
void BM_NetworkBroadcast64(benchmark::State& state) {
  constexpr sim::NodeId kNodes = 64;
  class Voter : public sim::Node {
   public:
    using sim::Node::Node;
    double HandleMessage(const sim::Message&) override { return 0.0002; }
  };
  sim::Simulation sim;
  sim::Network net(&sim, {});
  std::vector<std::unique_ptr<Voter>> voters;
  for (sim::NodeId id = 0; id < kNodes; ++id) {
    voters.push_back(std::make_unique<Voter>(id, &net));
  }
  for (auto _ : state) {
    for (sim::NodeId from = 0; from < kNodes; ++from) {
      sim::Payload vote = uint64_t{from};
      for (sim::NodeId to = 0; to < kNodes; ++to) {
        if (to == from) continue;
        sim::Message m;
        m.from = from;
        m.to = to;
        m.kind = sim::MsgKind::kPbftPrepare;
        m.payload = vote;
        m.size_bytes = 100;
        net.Send(std::move(m));
      }
    }
    sim.RunUntil(sim.Now() + 1.0);
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * kNodes * (kNodes - 1));
}
BENCHMARK(BM_NetworkBroadcast64);

void BM_NetworkMessageRoundtrip(benchmark::State& state) {
  class Sink : public sim::Node {
   public:
    using sim::Node::Node;
    double HandleMessage(const sim::Message&) override { return 0; }
  };
  sim::Simulation sim;
  sim::Network net(&sim, {});
  Sink a(0, &net), b(1, &net);
  for (auto _ : state) {
    sim::Message m;
    m.from = 0;
    m.to = 1;
    m.kind = sim::MsgKind::kPbftPrepare;
    m.size_bytes = 100;
    net.Send(std::move(m));
    sim.RunUntil(sim.Now() + 0.01);
  }
  state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_NetworkMessageRoundtrip);

}  // namespace
}  // namespace bb

BENCHMARK_MAIN();
