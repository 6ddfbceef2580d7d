// Storage-layer tests: MemKv capacity semantics, DiskKv durability and
// compaction, classic Merkle proofs, Patricia-trie versioning/delete
// invariants (with property sweeps against a reference map), and the
// bucket-Merkle tree's incremental digests.

#include <gtest/gtest.h>

#include <cstdio>
#include <unistd.h>
#include <map>

#include "storage/bucket_tree.h"
#include "storage/diskkv.h"
#include "storage/memkv.h"
#include "storage/merkle_tree.h"
#include "storage/patricia_trie.h"
#include "util/random.h"

namespace bb::storage {
namespace {

std::string TempPath(const std::string& tag) {
  return testing::TempDir() + "/bb_" + tag + "_" +
         std::to_string(::getpid()) + ".log";
}

// --- MemKv -------------------------------------------------------------------

TEST(MemKvTest, PutGetDelete) {
  MemKv kv;
  EXPECT_TRUE(kv.Put("a", "1").ok());
  std::string v;
  ASSERT_TRUE(kv.Get("a", &v).ok());
  EXPECT_EQ(v, "1");
  EXPECT_TRUE(kv.Put("a", "2").ok());
  ASSERT_TRUE(kv.Get("a", &v).ok());
  EXPECT_EQ(v, "2");
  EXPECT_TRUE(kv.Delete("a").ok());
  EXPECT_TRUE(kv.Get("a", &v).IsNotFound());
  EXPECT_TRUE(kv.Delete("a").IsNotFound());
}

TEST(MemKvTest, CapacityEnforced) {
  MemKv kv(900);
  std::string big(400, 'x');
  EXPECT_TRUE(kv.Put("k1", big).ok());
  // A second large value exceeds the 900-byte budget incl. overhead.
  Status s = kv.Put("k2", big);
  EXPECT_TRUE(s.IsOutOfMemory());
  // Overwrite that shrinks is always fine.
  EXPECT_TRUE(kv.Put("k1", "small").ok());
}

TEST(MemKvTest, LiveBytesTracksContent) {
  MemKv kv;
  kv.Put("key", "value");
  EXPECT_EQ(kv.live_bytes(), 8u);
  kv.Put("key", "v");
  EXPECT_EQ(kv.live_bytes(), 4u);
  kv.Delete("key");
  EXPECT_EQ(kv.live_bytes(), 0u);
}

TEST(MemKvTest, ScanVisitsAll) {
  MemKv kv;
  for (int i = 0; i < 50; ++i) kv.Put("k" + std::to_string(i), "v");
  int n = 0;
  kv.Scan([&](Slice, Slice) {
    ++n;
    return true;
  });
  EXPECT_EQ(n, 50);
  n = 0;
  kv.Scan([&](Slice, Slice) {
    ++n;
    return n < 10;  // early stop
  });
  EXPECT_EQ(n, 10);
}

// --- DiskKv -------------------------------------------------------------------

TEST(DiskKvTest, PutGetDelete) {
  auto kv = DiskKv::Open(TempPath("basic"));
  ASSERT_TRUE(kv.ok());
  EXPECT_TRUE((*kv)->Put("alpha", "one").ok());
  EXPECT_TRUE((*kv)->Put("beta", "two").ok());
  std::string v;
  ASSERT_TRUE((*kv)->Get("alpha", &v).ok());
  EXPECT_EQ(v, "one");
  EXPECT_TRUE((*kv)->Delete("alpha").ok());
  EXPECT_TRUE((*kv)->Get("alpha", &v).IsNotFound());
  ASSERT_TRUE((*kv)->Get("beta", &v).ok());
  EXPECT_EQ(v, "two");
}

TEST(DiskKvTest, OverwriteKeepsLatest) {
  auto kv = DiskKv::Open(TempPath("overwrite"));
  ASSERT_TRUE(kv.ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE((*kv)->Put("k", "v" + std::to_string(i)).ok());
  }
  std::string v;
  ASSERT_TRUE((*kv)->Get("k", &v).ok());
  EXPECT_EQ(v, "v99");
  EXPECT_EQ((*kv)->num_entries(), 1u);
  EXPECT_GT((*kv)->garbage_bytes(), 0u);
}

TEST(DiskKvTest, CompactionReclaimsGarbage) {
  DiskKvOptions opts;
  opts.compaction_min_bytes = 1;  // compact eagerly for the test
  auto kv = DiskKv::Open(TempPath("compact"), opts);
  ASSERT_TRUE(kv.ok());
  std::string big(1000, 'z');
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE((*kv)->Put("k" + std::to_string(i % 5), big).ok());
  }
  EXPECT_GT((*kv)->compactions_run(), 0);
  // After explicit compaction, garbage drops to zero and data survives.
  ASSERT_TRUE((*kv)->Compact().ok());
  EXPECT_EQ((*kv)->garbage_bytes(), 0u);
  std::string v;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE((*kv)->Get("k" + std::to_string(i), &v).ok());
    EXPECT_EQ(v, big);
  }
}

TEST(DiskKvTest, RandomizedAgainstReference) {
  auto kv = DiskKv::Open(TempPath("fuzz"));
  ASSERT_TRUE(kv.ok());
  std::map<std::string, std::string> ref;
  Rng rng(5);
  for (int i = 0; i < 3000; ++i) {
    std::string key = "k" + std::to_string(rng.Uniform(200));
    int action = int(rng.Uniform(3));
    if (action == 0 && ref.count(key)) {
      EXPECT_TRUE((*kv)->Delete(key).ok());
      ref.erase(key);
    } else if (action != 0) {
      std::string val = rng.AsciiString(rng.Uniform(64) + 1);
      EXPECT_TRUE((*kv)->Put(key, val).ok());
      ref[key] = val;
    }
  }
  EXPECT_EQ((*kv)->num_entries(), ref.size());
  for (const auto& [k, v] : ref) {
    std::string got;
    ASSERT_TRUE((*kv)->Get(k, &got).ok()) << k;
    EXPECT_EQ(got, v);
  }
}


TEST(DiskKvTest, RecoversIndexFromExistingLog) {
  std::string path = TempPath("recover");
  {
    auto kv = DiskKv::Open(path);
    ASSERT_TRUE(kv.ok());
    for (int i = 0; i < 300; ++i) {
      ASSERT_TRUE(
          (*kv)->Put("k" + std::to_string(i % 50), "v" + std::to_string(i))
              .ok());
    }
    ASSERT_TRUE((*kv)->Delete("k7").ok());
    ASSERT_TRUE((*kv)->Delete("k13").ok());
  }  // closes the file; state lives only in the log now
  DiskKvOptions reopen;
  reopen.truncate = false;
  auto kv = DiskKv::Open(path, reopen);
  ASSERT_TRUE(kv.ok());
  EXPECT_EQ((*kv)->num_entries(), 48u);
  std::string v;
  ASSERT_TRUE((*kv)->Get("k5", &v).ok());
  EXPECT_EQ(v, "v255");  // the last write wins after replay
  EXPECT_TRUE((*kv)->Get("k7", &v).IsNotFound());
  // And the reopened store keeps working.
  ASSERT_TRUE((*kv)->Put("k7", "resurrected").ok());
  ASSERT_TRUE((*kv)->Get("k7", &v).ok());
  EXPECT_EQ(v, "resurrected");
  std::remove(path.c_str());
}

TEST(DiskKvTest, RecoveryDiscardsTornTail) {
  std::string path = TempPath("torn");
  {
    auto kv = DiskKv::Open(path);
    ASSERT_TRUE(kv.ok());
    ASSERT_TRUE((*kv)->Put("alpha", "one").ok());
    ASSERT_TRUE((*kv)->Put("beta", "two").ok());
  }
  // Simulate a crash mid-write: chop bytes off the end of the log.
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    long size = std::ftell(f);
    ASSERT_EQ(0, ::ftruncate(::fileno(f), size - 3));
    std::fclose(f);
  }
  DiskKvOptions reopen;
  reopen.truncate = false;
  auto kv = DiskKv::Open(path, reopen);
  ASSERT_TRUE(kv.ok());
  std::string v;
  ASSERT_TRUE((*kv)->Get("alpha", &v).ok());
  EXPECT_EQ(v, "one");
  EXPECT_TRUE((*kv)->Get("beta", &v).IsNotFound());  // torn record dropped
  // New writes go after the last complete record.
  ASSERT_TRUE((*kv)->Put("gamma", "three").ok());
  ASSERT_TRUE((*kv)->Get("gamma", &v).ok());
  EXPECT_EQ(v, "three");
  std::remove(path.c_str());
}

TEST(DiskKvTest, ReopenMissingFileStartsFresh) {
  std::string path = TempPath("fresh");
  std::remove(path.c_str());
  DiskKvOptions reopen;
  reopen.truncate = false;
  auto kv = DiskKv::Open(path, reopen);
  ASSERT_TRUE(kv.ok());
  EXPECT_EQ((*kv)->num_entries(), 0u);
  EXPECT_TRUE((*kv)->Put("a", "1").ok());
  std::remove(path.c_str());
}

// --- Classic Merkle tree ---------------------------------------------------------

TEST(MerkleTreeTest, EmptyTreeZeroRoot) {
  MerkleTree t({});
  EXPECT_TRUE(t.root().IsZero());
}

TEST(MerkleTreeTest, SingleLeafRootIsLeaf) {
  Hash256 leaf = Sha256::Digest("tx");
  MerkleTree t({leaf});
  EXPECT_EQ(t.root(), leaf);
}

TEST(MerkleTreeTest, RootChangesWithContent) {
  std::vector<Hash256> a = {Sha256::Digest("1"), Sha256::Digest("2")};
  std::vector<Hash256> b = {Sha256::Digest("1"), Sha256::Digest("3")};
  EXPECT_NE(MerkleTree(a).root(), MerkleTree(b).root());
}

TEST(MerkleTreeTest, OrderMatters) {
  std::vector<Hash256> a = {Sha256::Digest("1"), Sha256::Digest("2")};
  std::vector<Hash256> b = {Sha256::Digest("2"), Sha256::Digest("1")};
  EXPECT_NE(MerkleTree(a).root(), MerkleTree(b).root());
}

// Reference fold: one SHA-256 over each concatenated pair, the odd tail
// paired with itself, no batching.
Hash256 NaiveMerkleRoot(std::vector<Hash256> level) {
  while (level.size() > 1) {
    std::vector<Hash256> next;
    for (size_t i = 0; i < level.size(); i += 2) {
      const Hash256& r = i + 1 < level.size() ? level[i + 1] : level[i];
      std::string concat;
      concat.append(reinterpret_cast<const char*>(level[i].bytes.data()), 32);
      concat.append(reinterpret_cast<const char*>(r.bytes.data()), 32);
      next.push_back(Sha256::Digest(concat));
    }
    level = std::move(next);
  }
  return level[0];
}

TEST(MerkleTreeTest, BatchedLevelsMatchNaiveFoldOnEveryBackend) {
  std::vector<Sha256::Backend> backends = {Sha256::Backend::kScalar};
  for (auto b : {Sha256::Backend::kShaNi, Sha256::Backend::kAvx2}) {
    if (Sha256::BackendAvailable(b)) backends.push_back(b);
  }
  // Leaf counts around the 8-lane pair kernel width, odd and even.
  for (size_t n : {size_t(2), size_t(5), size_t(8), size_t(9), size_t(16),
                   size_t(17), size_t(23)}) {
    std::vector<Hash256> leaves;
    for (size_t i = 0; i < n; ++i) {
      leaves.push_back(Sha256::Digest("leaf" + std::to_string(i)));
    }
    Sha256::SetBackend(Sha256::Backend::kScalar);
    Hash256 want = NaiveMerkleRoot(leaves);
    for (auto b : backends) {
      Sha256::SetBackend(b);
      EXPECT_EQ(MerkleTree(leaves).root(), want)
          << "n=" << n << " backend=" << int(b);
    }
  }
  Sha256::SetBackend(Sha256::Backend::kAuto);
}

class MerkleProofTest : public testing::TestWithParam<size_t> {};

TEST_P(MerkleProofTest, AllProofsVerify) {
  size_t n = GetParam();
  std::vector<Hash256> leaves;
  for (size_t i = 0; i < n; ++i) {
    leaves.push_back(Sha256::Digest("leaf" + std::to_string(i)));
  }
  MerkleTree t(leaves);
  for (size_t i = 0; i < n; ++i) {
    auto proof = t.Prove(i);
    EXPECT_TRUE(MerkleTree::Verify(t.root(), leaves[i], proof)) << i;
    // A proof must not verify for a different leaf.
    if (n > 1) {
      EXPECT_FALSE(
          MerkleTree::Verify(t.root(), leaves[(i + 1) % n], proof));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MerkleProofTest,
                         testing::Values(1, 2, 3, 4, 7, 8, 33, 100));

// --- Patricia trie ---------------------------------------------------------------

class TrieTest : public testing::Test {
 protected:
  MemKv kv_;
  MerklePatriciaTrie trie_{&kv_};
  Hash256 root_ = MerklePatriciaTrie::EmptyRoot();

  void Put(const std::string& k, const std::string& v) {
    auto r = trie_.Put(root_, k, v);
    ASSERT_TRUE(r.ok());
    root_ = *r;
  }
  void Del(const std::string& k) {
    auto r = trie_.Delete(root_, k);
    ASSERT_TRUE(r.ok());
    root_ = *r;
  }
  std::string Get(const std::string& k) {
    std::string v;
    Status s = trie_.Get(root_, k, &v);
    return s.ok() ? v : "<miss>";
  }
};

TEST_F(TrieTest, PutGet) {
  Put("hello", "world");
  EXPECT_EQ(Get("hello"), "world");
  EXPECT_EQ(Get("hell"), "<miss>");
  EXPECT_EQ(Get("hellos"), "<miss>");
}

TEST_F(TrieTest, PrefixKeysCoexist) {
  Put("a", "1");
  Put("ab", "2");
  Put("abc", "3");
  EXPECT_EQ(Get("a"), "1");
  EXPECT_EQ(Get("ab"), "2");
  EXPECT_EQ(Get("abc"), "3");
}

TEST_F(TrieTest, OverwriteChangesRoot) {
  Put("k", "v1");
  Hash256 r1 = root_;
  Put("k", "v2");
  EXPECT_NE(root_, r1);
  EXPECT_EQ(Get("k"), "v2");
}

TEST_F(TrieTest, OldVersionsRemainReadable) {
  Put("k", "v1");
  Hash256 r1 = root_;
  Put("k", "v2");
  Put("j", "x");
  std::string v;
  ASSERT_TRUE(trie_.Get(r1, "k", &v).ok());
  EXPECT_EQ(v, "v1");
  EXPECT_TRUE(trie_.Get(r1, "j", &v).IsNotFound());
}

TEST_F(TrieTest, DeleteRestoresPriorRoot) {
  Put("alpha", "1");
  Hash256 before = root_;
  Put("beta", "2");
  Del("beta");
  // Content-addressed nodes: removing the only difference must restore
  // the exact prior root hash.
  EXPECT_EQ(root_, before);
}

TEST_F(TrieTest, DeleteMissingIsNotFound) {
  Put("a", "1");
  auto r = trie_.Delete(root_, "zzz");
  EXPECT_TRUE(r.status().IsNotFound());
}

TEST_F(TrieTest, DeleteToEmpty) {
  Put("only", "1");
  Del("only");
  EXPECT_TRUE(root_.IsZero());
}

TEST_F(TrieTest, InsertionOrderIndependence) {
  MemKv kv2;
  MerklePatriciaTrie t2(&kv2);
  Hash256 r2 = MerklePatriciaTrie::EmptyRoot();
  std::vector<std::pair<std::string, std::string>> items = {
      {"cat", "1"}, {"car", "2"}, {"cart", "3"}, {"dog", "4"}, {"", "5"}};
  for (const auto& [k, v] : items) Put(k, v);
  for (auto it = items.rbegin(); it != items.rend(); ++it) {
    auto r = t2.Put(r2, it->first, it->second);
    ASSERT_TRUE(r.ok());
    r2 = *r;
  }
  EXPECT_EQ(root_, r2);
}

class TriePropertyTest : public testing::TestWithParam<uint64_t> {};

TEST_P(TriePropertyTest, MatchesReferenceMapUnderRandomOps) {
  MemKv kv;
  MerklePatriciaTrie trie(&kv);
  Hash256 root = MerklePatriciaTrie::EmptyRoot();
  std::map<std::string, std::string> ref;
  Rng rng(GetParam());

  for (int i = 0; i < 2000; ++i) {
    std::string key = "key" + std::to_string(rng.Uniform(150));
    switch (rng.Uniform(4)) {
      case 0: {  // delete
        auto r = trie.Delete(root, key);
        if (ref.count(key)) {
          ASSERT_TRUE(r.ok());
          root = *r;
          ref.erase(key);
        } else {
          EXPECT_TRUE(r.status().IsNotFound());
        }
        break;
      }
      default: {  // put
        std::string val = rng.AsciiString(rng.Uniform(40) + 1);
        auto r = trie.Put(root, key, val);
        ASSERT_TRUE(r.ok());
        root = *r;
        ref[key] = val;
        break;
      }
    }
  }
  for (const auto& [k, v] : ref) {
    std::string got;
    ASSERT_TRUE(trie.Get(root, k, &got).ok()) << k;
    EXPECT_EQ(got, v);
  }
  // Rebuilding from scratch in sorted order gives the same root
  // (canonical-form invariant).
  MemKv kv2;
  MerklePatriciaTrie t2(&kv2);
  Hash256 r2 = MerklePatriciaTrie::EmptyRoot();
  for (const auto& [k, v] : ref) {
    auto r = t2.Put(r2, k, v);
    ASSERT_TRUE(r.ok());
    r2 = *r;
  }
  EXPECT_EQ(root, r2);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TriePropertyTest,
                         testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(TrieCacheTest, CacheHitsRecorded) {
  MemKv kv;
  MerklePatriciaTrie trie(&kv, 1024);
  Hash256 root = MerklePatriciaTrie::EmptyRoot();
  for (int i = 0; i < 100; ++i) {
    auto r = trie.Put(root, "k" + std::to_string(i), "v");
    ASSERT_TRUE(r.ok());
    root = *r;
  }
  std::string v;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(trie.Get(root, "k" + std::to_string(i), &v).ok());
  }
  EXPECT_GT(trie.stats().cache_hits, 0u);
  EXPECT_GT(trie.stats().node_writes, 100u);  // write amplification
}

TEST(TrieCacheTest, ZeroCacheStillCorrect) {
  MemKv kv;
  MerklePatriciaTrie trie(&kv, 0);
  Hash256 root = MerklePatriciaTrie::EmptyRoot();
  auto r = trie.Put(root, "a", "1");
  ASSERT_TRUE(r.ok());
  std::string v;
  ASSERT_TRUE(trie.Get(*r, "a", &v).ok());
  EXPECT_EQ(v, "1");
  EXPECT_EQ(trie.stats().cache_hits, 0u);
  EXPECT_EQ(trie.stats().cache_misses, 0u);
  EXPECT_GT(trie.stats().node_reads, 0u);
}

TEST(TrieCacheTest, CacheIsInvisibleToTheModel) {
  // The decoded-node cache may only save reads: over either store and at
  // any capacity (none, evicting, never evicting) the trie must produce the
  // same root after every step and write the same nodes.
  const size_t kCapacities[] = {0, 16, kDiskTrieCacheEntries};
  const std::string disk_path = TempPath("trie_cache");
  struct Run {
    std::unique_ptr<KvStore> store;
    std::unique_ptr<MerklePatriciaTrie> trie;
    Hash256 root = MerklePatriciaTrie::EmptyRoot();
  };
  std::vector<Run> runs;
  for (size_t cap : kCapacities) {
    for (bool on_disk : {false, true}) {
      Run r;
      if (on_disk) {
        auto d = DiskKv::Open(disk_path + "." + std::to_string(cap));
        ASSERT_TRUE(d.ok()) << d.status().ToString();
        r.store = std::move(*d);
      } else {
        r.store = std::make_unique<MemKv>();
      }
      r.trie = std::make_unique<MerklePatriciaTrie>(r.store.get(), cap);
      runs.push_back(std::move(r));
    }
  }

  Rng rng(2024);
  for (int step = 0; step < 1500; ++step) {
    std::string key = "key" + std::to_string(rng.Uniform(200));
    bool del = rng.Uniform(4) == 0;
    std::string val = del ? "" : rng.AsciiString(rng.Uniform(40) + 1);
    for (Run& r : runs) {
      auto next =
          del ? r.trie->Delete(r.root, key) : r.trie->Put(r.root, key, val);
      if (del && next.status().IsNotFound()) continue;
      ASSERT_TRUE(next.ok()) << next.status().ToString();
      r.root = *next;
      std::string got;  // repeated reads are what a cache serves
      Status read = r.trie->Get(r.root, key, &got);
      ASSERT_TRUE(del ? read.IsNotFound() : read.ok()) << read.ToString();
    }
    for (const Run& r : runs) {
      ASSERT_EQ(r.root, runs[0].root) << "step " << step;
    }
  }

  const TrieStats& uncached = runs[0].trie->stats();
  for (size_t i = 0; i < runs.size(); ++i) {
    const TrieStats& s = runs[i].trie->stats();
    SCOPED_TRACE("run " + std::to_string(i));
    EXPECT_EQ(s.node_writes, uncached.node_writes);
    EXPECT_EQ(s.bytes_written, uncached.bytes_written);
    EXPECT_EQ(s.node_reads, uncached.node_reads);
    // Against the uncached trie over the same kind of store.
    EXPECT_EQ(runs[i].store->size_bytes(), runs[i % 2].store->size_bytes());
    if (i < 2) {
      EXPECT_EQ(s.cache_hits + s.cache_misses, 0u);
    } else {
      EXPECT_GT(s.cache_hits, 0u);
      EXPECT_EQ(s.cache_hits + s.cache_misses, s.node_reads);
    }
  }
  runs.clear();
  for (size_t cap : kCapacities) {
    std::remove((disk_path + "." + std::to_string(cap)).c_str());
  }
}


TEST(TrieCapacityTest, FullStoreFailsPut) {
  // A bounded backing store (Parity keeping all state in memory) must
  // surface OutOfMemory instead of silently dropping trie nodes.
  MemKv kv(4096);
  MerklePatriciaTrie trie(&kv, 0);
  Hash256 root = MerklePatriciaTrie::EmptyRoot();
  Status last = Status::Ok();
  for (int i = 0; i < 200 && last.ok(); ++i) {
    auto r = trie.Put(root, "key" + std::to_string(i), std::string(64, 'v'));
    if (r.ok()) {
      root = *r;
    } else {
      last = r.status();
    }
  }
  EXPECT_TRUE(last.IsOutOfMemory());
}


class TrieProofTest : public testing::TestWithParam<uint64_t> {};

TEST_P(TrieProofTest, ProofsVerifyAndTamperingIsDetected) {
  MemKv kv;
  MerklePatriciaTrie trie(&kv);
  Hash256 root = MerklePatriciaTrie::EmptyRoot();
  Rng rng(GetParam());
  std::map<std::string, std::string> ref;
  for (int i = 0; i < 300; ++i) {
    std::string k = "acct" + std::to_string(rng.Uniform(120));
    std::string v = rng.AsciiString(rng.Uniform(30) + 1);
    root = *trie.Put(root, k, v);
    ref[k] = v;
  }
  for (const auto& [k, v] : ref) {
    auto proof = trie.Prove(root, k);
    ASSERT_TRUE(proof.ok()) << k;
    EXPECT_TRUE(MerklePatriciaTrie::VerifyProof(root, k, v, *proof)) << k;
    // Wrong value must not verify.
    EXPECT_FALSE(MerklePatriciaTrie::VerifyProof(root, k, v + "x", *proof));
    // Wrong key must not verify.
    EXPECT_FALSE(
        MerklePatriciaTrie::VerifyProof(root, k + "zz", v, *proof));
    // Tampered node must not verify.
    if (!proof->empty()) {
      auto bad = *proof;
      bad.back()[bad.back().size() / 2] ^= 1;
      EXPECT_FALSE(MerklePatriciaTrie::VerifyProof(root, k, v, bad));
    }
    // Wrong root must not verify.
    EXPECT_FALSE(MerklePatriciaTrie::VerifyProof(Sha256::Digest("other"), k,
                                                 v, *proof));
  }
  // Absent key: no proof.
  EXPECT_TRUE(trie.Prove(root, "missing-key").status().IsNotFound());
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrieProofTest, testing::Values(1, 2, 3));

TEST(TrieProofTest, ProofFromOldVersionStillVerifies) {
  MemKv kv;
  MerklePatriciaTrie trie(&kv);
  Hash256 r1 = *trie.Put(MerklePatriciaTrie::EmptyRoot(), "k", "v1");
  Hash256 r2 = *trie.Put(r1, "k", "v2");
  auto proof1 = trie.Prove(r1, "k");
  ASSERT_TRUE(proof1.ok());
  EXPECT_TRUE(MerklePatriciaTrie::VerifyProof(r1, "k", "v1", *proof1));
  // The old proof does not verify against the new root.
  EXPECT_FALSE(MerklePatriciaTrie::VerifyProof(r2, "k", "v1", *proof1));
}

// --- Bucket-Merkle tree -----------------------------------------------------------

TEST(BucketTreeTest, PutGetDelete) {
  MemKv kv;
  BucketMerkleTree t(&kv, 64);
  EXPECT_TRUE(t.Put("a", "1").ok());
  std::string v;
  ASSERT_TRUE(t.Get("a", &v).ok());
  EXPECT_EQ(v, "1");
  EXPECT_TRUE(t.Delete("a").ok());
  EXPECT_TRUE(t.Get("a", &v).IsNotFound());
}

TEST(BucketTreeTest, RootReflectsContent) {
  MemKv kv;
  BucketMerkleTree t(&kv, 64);
  Hash256 empty = t.RootHash();
  t.Put("a", "1");
  Hash256 r1 = t.RootHash();
  EXPECT_NE(r1, empty);
  t.Put("b", "2");
  Hash256 r2 = t.RootHash();
  EXPECT_NE(r2, r1);
  t.Delete("b");
  EXPECT_EQ(t.RootHash(), r1);  // incremental digest is exact
  t.Delete("a");
  EXPECT_EQ(t.RootHash(), empty);
}

TEST(BucketTreeTest, OrderIndependentRoot) {
  MemKv kv1, kv2;
  BucketMerkleTree a(&kv1, 64), b(&kv2, 64);
  a.Put("x", "1");
  a.Put("y", "2");
  b.Put("y", "2");
  b.Put("x", "1");
  EXPECT_EQ(a.RootHash(), b.RootHash());
}

TEST(BucketTreeTest, OverwriteUpdatesDigest) {
  MemKv kv1, kv2;
  BucketMerkleTree a(&kv1, 64), b(&kv2, 64);
  a.Put("x", "old");
  a.Put("x", "new");
  b.Put("x", "new");
  EXPECT_EQ(a.RootHash(), b.RootHash());
}

TEST(BucketTreeTest, NoWriteAmplification) {
  // Unlike the trie, bucket state stores exactly one KV entry per key.
  MemKv kv;
  BucketMerkleTree t(&kv, 64);
  for (int i = 0; i < 500; ++i) {
    t.Put("key" + std::to_string(i), std::string(100, 'v'));
  }
  EXPECT_EQ(kv.num_entries(), 500u);
}

}  // namespace
}  // namespace bb::storage
