// Bucket commit replay tests. The first replica to commit a write set
// into its bucket tree logs each write's digest delta; a replica at the
// same pre-state root replays that log (chain::StateDb::Replay): the
// same store writes, each delta added to its bucket, the logged root
// adopted. Every taker must come out exactly as an independent
// BucketStateDb::Apply of the same writes on the same pre-state: root,
// store accounting, tree updates, MemTracker counters, and the write a
// full store refuses, with its status.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <map>
#include <memory>
#include <string>

#include "chain/state_db.h"
#include "obs/memtrack.h"
#include "storage/diskkv.h"
#include "storage/memkv.h"
#include "util/random.h"

namespace bb {
namespace {

using chain::BucketStateDb;
using chain::StateDb;
using storage::KvStore;

// Few buckets, so that writes in one set often share one.
constexpr size_t kBuckets = 64;

std::map<std::string, std::string> Contents(const KvStore& kv) {
  std::map<std::string, std::string> out;
  kv.Scan([&](Slice k, Slice v) {
    return out.emplace(k.ToString(), v.ToString()).second;
  });
  return out;
}

/// The root of a fresh tree over `kv`'s entries: rebuilt from the
/// contents, whatever digests the tree under test kept.
Hash256 RebuiltRoot(const KvStore& kv) {
  StateDb::WriteSet all;
  for (auto& [k, v] : Contents(kv)) all[k] = {true, v};
  storage::MemKv fresh;
  BucketStateDb db(&fresh, kBuckets);
  auto root = db.Commit(all);
  EXPECT_TRUE(root.ok());
  return root.ok() ? *root : Hash256::Zero();
}

std::unique_ptr<KvStore> OpenStore(const std::string& disk_path,
                                   uint64_t capacity) {
  if (disk_path.empty()) return std::make_unique<storage::MemKv>(capacity);
  auto disk = storage::DiskKv::Open(disk_path);
  EXPECT_TRUE(disk.ok()) << disk_path;
  return disk.ok() ? std::unique_ptr<KvStore>(std::move(*disk)) : nullptr;
}

/// One replica kept two ways, each over its own store of one kind: `db`
/// takes the recorder's logs where it can, `ref` applies every write set.
struct Replica {
  /// An empty `disk_path` puts both over MemKv with `capacity`.
  Replica(const std::string& disk_path, uint64_t capacity, uint32_t node,
          obs::MemTracker* mt, obs::MemTracker* ref_mt)
      : path(disk_path),
        kv(OpenStore(path, capacity)),
        ref_kv(OpenStore(path.empty() ? path : path + ".ref", capacity)),
        db(kv.get(), kBuckets),
        ref(ref_kv.get(), kBuckets) {
    kv->set_mem_gauge({mt, node, obs::mem::kStorageState});
    ref_kv->set_mem_gauge({ref_mt, node, obs::mem::kStorageState});
  }
  ~Replica() {
    kv.reset();
    ref_kv.reset();
    if (!path.empty()) {
      std::remove(path.c_str());
      std::remove((path + ".ref").c_str());
    }
  }

  std::string path;
  std::unique_ptr<KvStore> kv, ref_kv;
  BucketStateDb db, ref;
};

StateDb::WriteSet RandomWrites(Rng& rng) {
  StateDb::WriteSet w;
  if (rng.Uniform(8) == 0) return w;  // an empty block
  size_t n = 1 + rng.Uniform(16);
  for (size_t i = 0; i < n; ++i) {
    std::string key =
        StateDb::FullKey("ns", "k" + std::to_string(rng.Uniform(48)));
    if (rng.Uniform(4) == 0) {
      w[key] = {false, {}};  // the key may or may not be present
    } else {
      // Overwrites grow and shrink values.
      w[key] = {true, std::string(1 + rng.Uniform(120),
                                  char('a' + rng.Uniform(26)))};
    }
  }
  return w;
}

void ExpectSameCounter(const obs::MemTracker& got, const obs::MemTracker& want,
                       uint32_t node, const std::string& tag) {
  auto g = got.counter(node, obs::mem::kStorageState);
  auto w = want.counter(node, obs::mem::kStorageState);
  EXPECT_EQ(g.current, w.current) << tag;
  EXPECT_EQ(g.peak, w.peak) << tag;
  EXPECT_EQ(g.allocs, w.allocs) << tag;
  EXPECT_EQ(g.frees, w.frees) << tag;
}

// Equal contents and tree updates also pin a refused write: the writes
// before it stay and it and those after it do not.
void ExpectSame(const Replica& r, uint32_t node, const obs::MemTracker& mt,
                const obs::MemTracker& ref_mt, const std::string& tag) {
  EXPECT_EQ(r.db.current_root(), r.ref.current_root()) << tag;
  EXPECT_EQ(RebuiltRoot(*r.kv), r.db.current_root()) << tag;
  EXPECT_EQ(r.kv->size_bytes(), r.ref_kv->size_bytes()) << tag;
  EXPECT_EQ(r.kv->live_bytes(), r.ref_kv->live_bytes()) << tag;
  EXPECT_EQ(r.kv->num_entries(), r.ref_kv->num_entries()) << tag;
  EXPECT_EQ(r.db.updates(), r.ref.updates()) << tag;
  EXPECT_EQ(Contents(*r.kv), Contents(*r.ref_kv)) << tag;
  ExpectSameCounter(mt, ref_mt, node, tag);
}

TEST(BucketReplayTest, TakersMatchTheirOwnApply) {
  const std::string dir = testing::TempDir() + "/bb_bucket_replay_" +
                          std::to_string(::getpid());
  for (uint64_t seed : {3, 4, 5, 6}) {
    Rng rng(seed);
    obs::MemTracker mt, ref_mt;
    // 0 records every commit; 1 and 2 take them over a MemKv and a
    // DiskKv; 3's store fills up part-way through a replayed set.
    Replica recorder("", 0, 0, &mt, &ref_mt);
    Replica mem("", 0, 1, &mt, &ref_mt);
    Replica disk(dir + "_" + std::to_string(seed) + ".kv", 0, 2, &mt,
                 &ref_mt);
    Replica tight("", 6'000, 3, &mt, &ref_mt);
    Replica* takers[] = {&mem, &disk, &tight};
    int replayed = 0, refused = 0, absent_deletes = 0;
    for (int round = 0; round < 150; ++round) {
      std::string tag =
          "seed " + std::to_string(seed) + " round " + std::to_string(round);
      const Hash256 pre_root = recorder.db.current_root();
      const StateDb::WriteSet w = RandomWrites(rng);
      for (const auto& [key, write] : w) {
        absent_deletes += !write.present && !recorder.kv->Contains(key);
      }
      StateDb::CommitLog log;
      auto got = recorder.db.Commit(w, &log);
      auto want = recorder.ref.Commit(w);
      ASSERT_TRUE(got.ok() && want.ok()) << tag;
      EXPECT_TRUE(log.recorded) << tag;
      EXPECT_EQ(log.deltas.size(), w.size()) << tag;
      EXPECT_EQ(log.root, *want) << tag;
      ExpectSame(recorder, 0, mt, ref_mt, tag + " recorder");

      for (uint32_t node : {1u, 2u, 3u}) {
        Replica& r = *takers[node - 1];
        std::string rtag = tag + " node " + std::to_string(node);
        // A taker at the recorder's pre-state root replays its log; one
        // elsewhere (after a refused commit) commits on its own.
        const bool at_root = r.db.current_root() == pre_root;
        auto rgot = at_root ? r.db.Replay(w, log) : r.db.Commit(w);
        auto rwant = r.ref.Commit(w);
        EXPECT_EQ(rgot.status().code(), rwant.status().code()) << rtag;
        EXPECT_EQ(rgot.status().ToString(), rwant.status().ToString())
            << rtag;
        if (rgot.ok() && rwant.ok()) {
          EXPECT_EQ(*rgot, *rwant) << rtag;
        }
        if (at_root) (rgot.ok() ? replayed : refused) += 1;
        ExpectSame(r, node, mt, ref_mt, rtag);
      }
    }
    EXPECT_GT(replayed, 0) << "seed " << seed;
    EXPECT_GT(refused, 0) << "seed " << seed << ": 3 must fill up";
    EXPECT_GT(absent_deletes, 0) << "seed " << seed;
  }
}

TEST(BucketReplayTest, RefusedRecorderLogsNothing) {
  StateDb::WriteSet w;
  w[StateDb::FullKey("ns", "a")] = {true, std::string(40, 'a')};
  w[StateDb::FullKey("ns", "b")] = {true, std::string(400, 'b')};
  // Room for the first write only.
  storage::MemKv kv1(200), kv2(200), ref_kv(200);
  BucketStateDb recorder(&kv1, kBuckets), taker(&kv2, kBuckets),
      ref(&ref_kv, kBuckets);
  StateDb::CommitLog log;
  auto got = recorder.Commit(w, &log);
  ASSERT_TRUE(got.status().IsOutOfMemory());
  EXPECT_FALSE(log.recorded);
  EXPECT_TRUE(log.deltas.empty());
  // Without a log the taker applies the writes and is refused alike.
  auto taken = taker.Replay(w, log);
  auto want = ref.Commit(w);
  EXPECT_TRUE(taken.status().IsOutOfMemory());
  EXPECT_TRUE(want.status().IsOutOfMemory());
  EXPECT_EQ(taker.current_root(), ref.current_root());
  EXPECT_EQ(taker.current_root(), recorder.current_root());
  EXPECT_EQ(kv2.num_entries(), 1u);
  EXPECT_EQ(taker.updates(), 1u);
}

}  // namespace
}  // namespace bb
