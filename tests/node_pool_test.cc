// Node pool tests. The replicas of a platform keep their trie nodes in
// one storage::NodePool, each through its own PoolKv view, and a replica
// at another's pre-state root replays that replica's logged commit
// instead of running its trie (chain::StateDb::Replay). Each replica must
// come out exactly as if it had its own MemKv and ran the trie: same
// root, byte accounting, trie counters, capacity refusals and MemTracker
// counters.

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "chain/state_db.h"
#include "core/driver.h"
#include "obs/memtrack.h"
#include "platform/platform.h"
#include "platform/registry.h"
#include "storage/memkv.h"
#include "storage/node_pool.h"
#include "util/random.h"
#include "workloads/ycsb.h"

namespace bb {
namespace {

using chain::StateDb;
using chain::TrieStateDb;
using storage::MemKv;
using storage::NodePool;
using storage::PoolKv;

void ExpectSameCounter(const obs::MemTracker& got, const obs::MemTracker& want,
                       uint32_t node, const std::string& tag) {
  auto g = got.counter(node, obs::mem::kStorageState);
  auto w = want.counter(node, obs::mem::kStorageState);
  EXPECT_EQ(g.current, w.current) << tag;
  EXPECT_EQ(g.peak, w.peak) << tag;
  EXPECT_EQ(g.allocs, w.allocs) << tag;
  EXPECT_EQ(g.frees, w.frees) << tag;
}

// --- PoolKv against MemKv ----------------------------------------------------

TEST(PoolKvTest, MatchesMemKvOpByOp) {
  constexpr uint64_t kCapacity = 6000;
  for (uint64_t seed : {1, 2, 3}) {
    Rng rng(seed);
    NodePool pool;
    obs::MemTracker pooled_mt, ref_mt;
    PoolKv view(&pool, kCapacity), other(&pool);
    MemKv ref(kCapacity);
    view.set_mem_gauge({&pooled_mt, 0, obs::mem::kStorageState});
    ref.set_mem_gauge({&ref_mt, 0, obs::mem::kStorageState});
    // Keys address their values, as trie node hashes do.
    auto value_of = [](uint64_t k) {
      return std::string(1 + (k * 7) % 90, char('a' + k % 26));
    };
    int refused = 0;
    for (int step = 0; step < 2000; ++step) {
      uint64_t k = rng.Uniform(64);
      std::string key = "k" + std::to_string(k);
      std::string tag = "seed " + std::to_string(seed) + " step " +
                        std::to_string(step) + " " + key;
      switch (rng.Uniform(4)) {
        case 0:
        case 1: {
          Status got = view.Put(key, value_of(k));
          Status want = ref.Put(key, value_of(k));
          EXPECT_EQ(got.code(), want.code()) << tag;
          refused += got.IsOutOfMemory();
          break;
        }
        case 2:
          EXPECT_EQ(view.Delete(key).code(), ref.Delete(key).code()) << tag;
          break;
        default: {
          // The other view's nodes are in the pool but not in this view.
          ASSERT_TRUE(other.Put(key, value_of(k)).ok());
          std::string got, want;
          Status gs = view.Get(key, &got), ws = ref.Get(key, &want);
          EXPECT_EQ(gs.code(), ws.code()) << tag;
          EXPECT_EQ(got, want) << tag;
        }
      }
      ASSERT_EQ(view.size_bytes(), ref.size_bytes()) << tag;
      ASSERT_EQ(view.live_bytes(), ref.live_bytes()) << tag;
      ASSERT_EQ(view.num_entries(), ref.num_entries()) << tag;
    }
    EXPECT_GT(refused, 0) << "the capacity must be reached";
    std::map<std::string, std::string> got, want;
    view.Scan([&](Slice k, Slice v) {
      return got.emplace(k.ToString(), v.ToString()).second;
    });
    ref.Scan([&](Slice k, Slice v) {
      return want.emplace(k.ToString(), v.ToString()).second;
    });
    EXPECT_EQ(got, want);
    ExpectSameCounter(pooled_mt, ref_mt, 0, "seed " + std::to_string(seed));
  }
}

TEST(PoolKvTest, ReplayTakesNothingPastCapacity) {
  NodePool pool;
  PoolKv writer(&pool);
  std::vector<NodePool::Id> log;
  writer.set_put_log(&log);
  ASSERT_TRUE(writer.Put("a", std::string(100, 'a')).ok());
  ASSERT_TRUE(writer.Put("b", std::string(100, 'b')).ok());
  ASSERT_TRUE(writer.Put("a", std::string(100, 'a')).ok());
  writer.set_put_log(nullptr);
  ASSERT_EQ(log.size(), 3u);

  // Two distinct nodes fit in 2 * (101 + 96) bytes and not in one less.
  PoolKv tight(&pool, 2 * (101 + 96) - 1);
  EXPECT_FALSE(tight.Replay(log));
  EXPECT_EQ(tight.num_entries(), 0u);
  EXPECT_FALSE(tight.Owns(log[0]));
  std::string v;
  EXPECT_TRUE(tight.Get("a", &v).IsNotFound());

  PoolKv roomy(&pool, 2 * (101 + 96));
  EXPECT_TRUE(roomy.Replay(log));
  EXPECT_EQ(roomy.num_entries(), 2u);
  EXPECT_EQ(roomy.size_bytes(), writer.size_bytes());
  ASSERT_TRUE(roomy.Get("b", &v).ok());
  EXPECT_EQ(v, std::string(100, 'b'));
}

// --- Replaying trie commits --------------------------------------------------

/// One replica kept two ways: a trie over a view of the shared pool, and
/// the reference, a trie over its own MemKv, given the same operations.
struct Replica {
  Replica(NodePool* pool, uint64_t capacity, uint32_t node,
          obs::MemTracker* pooled_mt, obs::MemTracker* ref_mt)
      : view(pool, capacity), ref_kv(capacity), db(&view), ref(&ref_kv) {
    view.set_mem_gauge({pooled_mt, node, obs::mem::kStorageState});
    ref_kv.set_mem_gauge({ref_mt, node, obs::mem::kStorageState});
  }

  PoolKv view;
  MemKv ref_kv;
  TrieStateDb db;
  TrieStateDb ref;
};

StateDb::WriteSet RandomWrites(Rng& rng) {
  // A small key space and a few values: writes often restore earlier
  // versions of a subtree, so commits rewrite nodes their replica (or
  // only some replica) already holds.
  static const char* kValues[] = {"a", "bb", "ccc",
                                  "a-longer-value-that-makes-a-bigger-leaf"};
  StateDb::WriteSet w;
  size_t n = 1 + rng.Uniform(12);
  for (size_t i = 0; i < n; ++i) {
    std::string key =
        StateDb::FullKey("ns", "k" + std::to_string(rng.Uniform(40)));
    if (rng.Uniform(4) == 0) {
      w[key] = {false, {}};
    } else {
      w[key] = {true, kValues[rng.Uniform(4)]};
    }
  }
  return w;
}

void ExpectSame(const Replica& r, uint32_t node,
                const obs::MemTracker& pooled_mt,
                const obs::MemTracker& ref_mt, const std::string& tag) {
  EXPECT_EQ(r.db.current_root(), r.ref.current_root()) << tag;
  EXPECT_EQ(r.view.size_bytes(), r.ref_kv.size_bytes()) << tag;
  EXPECT_EQ(r.view.live_bytes(), r.ref_kv.live_bytes()) << tag;
  EXPECT_EQ(r.view.num_entries(), r.ref_kv.num_entries()) << tag;
  const storage::TrieStats& g = r.db.trie_stats();
  const storage::TrieStats& w = r.ref.trie_stats();
  EXPECT_EQ(g.node_reads, w.node_reads) << tag;
  EXPECT_EQ(g.node_writes, w.node_writes) << tag;
  EXPECT_EQ(g.bytes_written, w.bytes_written) << tag;
  ExpectSameCounter(pooled_mt, ref_mt, node, tag);
}

TEST(CommitReplayTest, ReplicasMatchTheirOwnMemKvTries) {
  for (uint64_t seed : {7, 8, 9, 10}) {
    Rng rng(seed);
    NodePool pool;
    obs::MemTracker pooled_mt, ref_mt;
    // a records every commit. b also commits fork branches and rewinds,
    // so it holds nodes a does not. c's store fills up part-way.
    Replica a(&pool, 0, 0, &pooled_mt, &ref_mt);
    Replica b(&pool, 0, 1, &pooled_mt, &ref_mt);
    Replica c(&pool, 40'000, 2, &pooled_mt, &ref_mt);
    Replica* replicas[] = {&a, &b, &c};
    int replayed = 0, refused = 0, private_nodes = 0;
    for (int round = 0; round < 120; ++round) {
      std::string tag =
          "seed " + std::to_string(seed) + " round " + std::to_string(round);
      const Hash256 pre_root = a.db.current_root();
      if (round % 5 == 2 && b.db.current_root() == pre_root) {
        StateDb::WriteSet fork = RandomWrites(rng);
        ASSERT_TRUE(b.db.Commit(fork).ok()) << tag;
        ASSERT_TRUE(b.ref.Commit(fork).ok()) << tag;
        ASSERT_TRUE(b.db.ResetTo(pre_root).ok());
        ASSERT_TRUE(b.ref.ResetTo(pre_root).ok());
        ExpectSame(b, 1, pooled_mt, ref_mt, tag + " fork");
        // A view never serves another replica's nodes.
        for (NodePool::Id id = 0; id < pool.size(); ++id) {
          if (!b.view.Owns(id) || a.view.Owns(id)) continue;
          ++private_nodes;
          std::string v;
          EXPECT_TRUE(a.view.Get(pool.key(id), &v).IsNotFound()) << tag;
          EXPECT_TRUE(b.view.Get(pool.key(id), &v).ok()) << tag;
        }
      }

      const StateDb::WriteSet w = RandomWrites(rng);
      StateDb::CommitLog log;
      auto got = a.db.Commit(w, &log);
      auto want = a.ref.Commit(w);
      ASSERT_TRUE(got.ok() && want.ok()) << tag;
      EXPECT_TRUE(log.recorded) << tag;
      EXPECT_EQ(log.root, *want) << tag;
      ExpectSame(a, 0, pooled_mt, ref_mt, tag + " recorder");

      for (uint32_t node : {1u, 2u}) {
        Replica& r = *replicas[node];
        std::string rtag = tag + " node " + std::to_string(node);
        // A replica at the recorder's pre-state root takes its log; one
        // elsewhere (c after a refused commit) commits on its own.
        const bool at_root = r.db.current_root() == pre_root;
        auto rgot = at_root ? r.db.Replay(w, log) : r.db.Commit(w);
        auto rwant = r.ref.Commit(w);
        EXPECT_EQ(rgot.status().code(), rwant.status().code()) << rtag;
        if (rgot.ok() && rwant.ok()) {
          EXPECT_EQ(*rgot, *rwant) << rtag;
        }
        if (at_root) (rgot.ok() ? replayed : refused) += 1;
        ExpectSame(r, node, pooled_mt, ref_mt, rtag);
      }
    }
    EXPECT_GT(replayed, 0) << "seed " << seed;
    EXPECT_GT(refused, 0) << "seed " << seed << ": c must fill up";
    EXPECT_GT(private_nodes, 0) << "seed " << seed;
  }
}

TEST(CommitReplayTest, UnrecordedOrPrivateLogsApplyTheWrites) {
  // No pool: a TrieStateDb over a plain store records nothing and
  // commits the writes itself.
  MemKv kv1, kv2;
  TrieStateDb d1(&kv1), d2(&kv2);
  StateDb::WriteSet w;
  w[StateDb::FullKey("ns", "k")] = {true, "v"};
  StateDb::CommitLog log;
  auto r1 = d1.Commit(w, &log);
  ASSERT_TRUE(r1.ok());
  EXPECT_FALSE(log.recorded);
  auto r2 = d2.Replay(w, log);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(*r1, *r2);
  EXPECT_EQ(kv1.size_bytes(), kv2.size_bytes());
}

// --- One pool per platform ---------------------------------------------------

TEST(PlatformPoolTest, GenesisIsBuiltOnceAndReplicasShareNodes) {
  auto opts = platform::PlatformRegistry::Instance().Make("ethereum");
  ASSERT_TRUE(opts.ok());
  sim::Simulation sim(3);
  platform::Platform p(&sim, *opts, 4);
  workloads::YcsbConfig yc;
  yc.record_count = 200;
  workloads::YcsbWorkload wl(yc);
  ASSERT_TRUE(wl.Setup(&p).ok());
  // The genesis trie exists once; every server owns all of it.
  const storage::KvStore& store0 = p.node(0).stack().data().store();
  EXPECT_EQ(p.node_pool().size(), store0.num_entries());
  for (size_t i = 1; i < 4; ++i) {
    const storage::KvStore& s = p.node(i).stack().data().store();
    EXPECT_EQ(s.num_entries(), store0.num_entries()) << "node " << i;
    EXPECT_EQ(s.size_bytes(), store0.size_bytes()) << "node " << i;
    EXPECT_EQ(p.node(i).state().current_root(),
              p.node(0).state().current_root());
  }

  core::DriverConfig dc;
  dc.num_clients = 2;
  dc.request_rate = 15;
  dc.duration = 30;
  dc.drain = 15;
  core::Driver d(&p, &wl, dc);
  d.Run();
  ASSERT_GT(d.stats().total_committed(), 0u);
  size_t sum = 0, most = 0;
  for (size_t i = 0; i < 4; ++i) {
    size_t n = p.node(i).stack().data().store().num_entries();
    sum += n;
    most = std::max(most, n);
  }
  EXPECT_GE(p.node_pool().size(), most);
  EXPECT_LT(p.node_pool().size(), sum / 2) << "replicas share their nodes";
  EXPECT_EQ(p.exec_memo().size(), 0u);
}

}  // namespace
}  // namespace bb
