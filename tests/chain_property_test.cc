// Chain-layer property tests: fork-choice convergence (any delivery
// order of the same block set yields the same canonical chain), state
// replay equivalence across reorgs, and pool conservation under
// take/requeue/commit churn.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>

#include "chain/chain_store.h"
#include "chain/state_db.h"
#include "chain/txpool.h"
#include "storage/diskkv.h"
#include "storage/memkv.h"
#include "util/random.h"

namespace bb::chain {
namespace {

// Builds a random block tree of `n` blocks over a genesis, with forks.
std::vector<BlockPtr> RandomBlockTree(Rng& rng, size_t n) {
  std::vector<BlockPtr> all{Seal(Block())};
  for (size_t i = 0; i < n; ++i) {
    const Block& parent = *all[rng.Uniform(all.size())];
    Block b;
    b.header.parent = parent.HashOf();
    b.header.height = parent.header.height + 1;
    b.header.nonce = rng.Next();
    b.header.weight = 1 + rng.Uniform(3);
    b.SealTxRoot();
    all.push_back(Seal(std::move(b)));
  }
  all.erase(all.begin());  // genesis is supplied by the store
  return all;
}

class ForkChoiceConvergenceTest : public testing::TestWithParam<uint64_t> {};

TEST_P(ForkChoiceConvergenceTest, DeliveryOrderIrrelevant) {
  Rng rng(GetParam());
  std::vector<BlockPtr> blocks = RandomBlockTree(rng, 60);

  // Reference: insert in creation (parent-first) order.
  ChainStore ref((Block()));
  for (const auto& b : blocks) ref.AddBlock(b);
  ASSERT_EQ(ref.pending_orphans(), 0u);

  for (int shuffle = 0; shuffle < 5; ++shuffle) {
    std::vector<BlockPtr> shuffled = blocks;
    for (size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1], shuffled[rng.Uniform(i)]);
    }
    ChainStore cs((Block()));
    for (const auto& b : shuffled) cs.AddBlock(b);
    EXPECT_EQ(cs.pending_orphans(), 0u);
    EXPECT_EQ(cs.total_blocks(), ref.total_blocks());
    // The head is unique only up to cumulative weight: equal-weight
    // ties resolve first-seen, so height/hash may differ across orders,
    // but the head's chain-work never does.
    EXPECT_EQ(cs.CumulativeWeightOf(cs.head()),
              ref.CumulativeWeightOf(ref.head()));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ForkChoiceConvergenceTest,
                         testing::Values(1, 2, 3, 4, 5));

TEST(ReorgStateTest, ReplayAfterReorgMatchesDirectExecution) {
  // Execute keys on branch A, reorg to branch B, verify state equals a
  // fresh execution of branch B alone — the PlatformNode invariant, here
  // exercised at the StateDb level.
  storage::MemKv kv1, kv2;
  TrieStateDb db(&kv1), fresh(&kv2);

  // Branch A writes.
  db.Put("c", "k1", "A1");
  db.Put("c", "k2", "A2");
  auto fork_point = db.Commit();
  ASSERT_TRUE(fork_point.ok());
  db.Put("c", "k3", "A3");
  ASSERT_TRUE(db.Commit().ok());

  // Reorg: rewind to the fork point, apply branch B.
  ASSERT_TRUE(db.ResetTo(*fork_point).ok());
  db.Put("c", "k3", "B3");
  db.Put("c", "k4", "B4");
  auto after_reorg = db.Commit();
  ASSERT_TRUE(after_reorg.ok());

  // Fresh execution of fork-point + branch B.
  fresh.Put("c", "k1", "A1");
  fresh.Put("c", "k2", "A2");
  ASSERT_TRUE(fresh.Commit().ok());
  fresh.Put("c", "k3", "B3");
  fresh.Put("c", "k4", "B4");
  auto direct = fresh.Commit();
  ASSERT_TRUE(direct.ok());

  EXPECT_EQ(*after_reorg, *direct) << "roots must agree after replay";
}


TEST(StateBackendTest, TrieRootsIndependentOfBackingStore) {
  // The trie's roots are content-addressed: MemKv- and DiskKv-backed
  // tries must produce identical roots for identical operations.
  storage::MemKv mem;
  auto disk = storage::DiskKv::Open(testing::TempDir() + "/bb_backend.log");
  ASSERT_TRUE(disk.ok());
  TrieStateDb a(&mem), b(disk->get());
  Rng rng(99);
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 200; ++i) {
      std::string k = "k" + std::to_string(rng.Uniform(300));
      std::string v = rng.AsciiString(20);
      a.Put("ns", k, v);
      b.Put("ns", k, v);
    }
    auto ra = a.Commit();
    auto rb = b.Commit();
    ASSERT_TRUE(ra.ok());
    ASSERT_TRUE(rb.ok());
    EXPECT_EQ(*ra, *rb) << "round " << round;
  }
  std::remove((testing::TempDir() + "/bb_backend.log").c_str());
}

class PoolChurnTest : public testing::TestWithParam<uint64_t> {};

TEST_P(PoolChurnTest, NoTransactionLostOrDuplicated) {
  Rng rng(GetParam());
  TxPool pool;
  std::vector<TxPtr> committed;
  std::vector<TxPtr> in_flight;  // taken, not yet committed
  uint64_t next_id = 1;
  uint64_t added = 0;

  for (int step = 0; step < 2000; ++step) {
    switch (rng.Uniform(4)) {
      case 0: {  // new transaction
        Transaction tx;
        tx.id = next_id++;
        tx.Seal();
        if (pool.Add(Share(std::move(tx)))) ++added;
        break;
      }
      case 1: {  // take a batch (as a proposer would)
        auto batch = pool.TakeBatch(1 + rng.Uniform(5), 0,
                                    rng.Bernoulli(0.5));
        for (auto& tx : batch) in_flight.push_back(std::move(tx));
        break;
      }
      case 2: {  // commit some in-flight txs (block accepted)
        size_t n = std::min<size_t>(in_flight.size(), rng.Uniform(4));
        std::vector<TxPtr> block(in_flight.end() - long(n), in_flight.end());
        in_flight.resize(in_flight.size() - n);
        pool.RemoveCommitted(block);
        for (auto& tx : block) committed.push_back(std::move(tx));
        break;
      }
      case 3: {  // proposal failed: requeue (view change / orphan)
        pool.Requeue(in_flight);
        in_flight.clear();
        break;
      }
    }
  }
  // Conservation: every admitted tx is exactly one of
  // {pending, in flight, committed}.
  EXPECT_EQ(added, pool.pending() + in_flight.size() + committed.size());
  // No duplicates among committed ids.
  std::set<uint64_t> ids;
  for (const auto& tx : committed) {
    EXPECT_TRUE(ids.insert(tx->id).second) << "duplicate commit " << tx->id;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PoolChurnTest, testing::Values(7, 8, 9, 10));

}  // namespace
}  // namespace bb::chain
