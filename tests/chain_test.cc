// Chain-layer tests: transaction serialization, block sealing, tx pool
// semantics, ChainStore fork choice / reorgs / orphan buffering, and
// both StateDb models (versioned trie vs mutable bucket).

#include <gtest/gtest.h>

#include <type_traits>

#include "chain/block.h"
#include "chain/chain_store.h"
#include "chain/state_db.h"
#include "chain/txpool.h"
#include "storage/memkv.h"
#include "storage/merkle_tree.h"
#include "util/random.h"

namespace bb::chain {
namespace {

Transaction MakeTx(uint64_t id, const std::string& fn = "f") {
  Transaction tx;
  tx.id = id;
  tx.sender = "s" + std::to_string(id);
  tx.contract = "c";
  tx.function = fn;
  tx.args = {vm::Value(int64_t(id)), vm::Value("payload")};
  tx.value = int64_t(id * 10);
  tx.Seal();
  return tx;
}

TxPtr Tx(uint64_t id, const std::string& fn = "f") {
  return Share(MakeTx(id, fn));
}

// --- Transaction -----------------------------------------------------------------

TEST(TransactionTest, SerializeRoundTrip) {
  Transaction tx = MakeTx(42, "doStuff");
  auto back = Transaction::Deserialize(tx.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->id, tx.id);
  EXPECT_EQ(back->sender, tx.sender);
  EXPECT_EQ(back->contract, tx.contract);
  EXPECT_EQ(back->function, tx.function);
  EXPECT_EQ(back->value, tx.value);
  ASSERT_EQ(back->args.size(), 2u);
  EXPECT_TRUE(back->args[0] == tx.args[0]);
  EXPECT_TRUE(back->args[1] == tx.args[1]);
}

TEST(TransactionTest, HashChangesWithContent) {
  Transaction a = MakeTx(1), b = MakeTx(2);
  EXPECT_NE(a.HashOf(), b.HashOf());
  EXPECT_EQ(a.HashOf(), MakeTx(1).HashOf());
}

TEST(TransactionTest, DeserializeRejectsTruncation) {
  std::string enc = MakeTx(7).Serialize();
  enc.resize(enc.size() / 2);
  EXPECT_FALSE(Transaction::Deserialize(enc).ok());
}

// --- Block -----------------------------------------------------------------------

static_assert(!std::is_copy_constructible_v<Block>,
              "a sealed block is shared through BlockPtr, never copied");
static_assert(std::is_nothrow_move_constructible_v<Block>);
static_assert(std::is_same_v<decltype(Block::txs), std::vector<TxPtr>>,
              "a block shares its transactions with the pools, never copies");

TEST(BlockTest, TxRootCommitsToTransactions) {
  Block b1, b2;
  b1.txs = {Tx(1), Tx(2)};
  b2.txs = {Tx(1), Tx(3)};
  b1.SealTxRoot();
  b2.SealTxRoot();
  EXPECT_NE(b1.header.tx_root, b2.header.tx_root);
  EXPECT_NE(Seal(std::move(b1))->HashOf(), Seal(std::move(b2))->HashOf());
}

TEST(BlockTest, TxRootIsMerkleRootOfTxHashes) {
  Block b;
  b.txs = {Tx(1), Tx(2), Tx(3, "other")};
  b.SealTxRoot();
  // The leaves are the serialize-then-hash digests, not just whatever the
  // sealed transactions carry.
  std::vector<Hash256> leaves;
  for (const auto& tx : b.txs) leaves.push_back(Sha256::Digest(tx->Serialize()));
  EXPECT_EQ(b.header.tx_root, storage::MerkleTree(std::move(leaves)).root());
}

TEST(BlockTest, SizeGrowsWithTxs) {
  size_t empty = Seal(Block())->SizeBytes();
  Block b;
  b.txs.push_back(Tx(1));
  EXPECT_GT(Seal(std::move(b))->SizeBytes(), empty);
}

// --- Seal contract ---------------------------------------------------------------

// Seal computes each hash and size once; these pin the sealed values to
// the serialize-then-hash definitions every golden digest depends on.

TEST(BlockTest, SealedHashIsHeaderHash) {
  Block b;
  b.txs = {Tx(1), Tx(2)};
  b.SealTxRoot();
  b.header.height = 3;
  b.header.proposer = 2;
  b.header.timestamp = 1.25;
  b.header.nonce = 77;
  BlockPtr sealed = Seal(std::move(b));
  EXPECT_EQ(sealed->HashOf(), sealed->header.HashOf());
}

TEST(BlockTest, SealedSizeIsHeaderPlusTxSizes) {
  Block b;
  b.txs = {Tx(1), Tx(2, "aLongerFunctionName")};
  BlockPtr sealed = Seal(std::move(b));
  size_t want = 200;
  for (const auto& tx : sealed->txs) want += tx->SizeBytes();
  EXPECT_EQ(sealed->SizeBytes(), want);
}

TEST(TransactionTest, SealedHashAndSizeFollowSerialization) {
  Transaction tx = MakeTx(9, "doStuff");
  EXPECT_EQ(tx.HashOf(), Sha256::Digest(tx.Serialize()));
  EXPECT_EQ(tx.SizeBytes(), tx.Serialize().size() + 97);
}

TEST(TransactionTest, DeserializeSeals) {
  Transaction tx = MakeTx(5);
  auto back = Transaction::Deserialize(tx.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->HashOf(), tx.HashOf());
  EXPECT_EQ(back->SizeBytes(), tx.SizeBytes());
}

TEST(TransactionTest, ResealFollowsIdRewrite) {
  Transaction tx = MakeTx(9);
  // Copies carry the sealed values; a rewritten id (as the sharding
  // coordinator's records have) is sealed again.
  Transaction copy = tx;
  EXPECT_EQ(copy.HashOf(), tx.HashOf());
  copy.id = 10;
  copy.Seal();
  EXPECT_NE(copy.HashOf(), tx.HashOf());
  EXPECT_EQ(copy.HashOf(), Sha256::Digest(copy.Serialize()));
}

// --- TxPool ----------------------------------------------------------------------

TEST(TxPoolTest, DeduplicatesById) {
  TxPool pool;
  EXPECT_TRUE(pool.Add(Tx(1)));
  EXPECT_FALSE(pool.Add(Tx(1)));
  EXPECT_EQ(pool.pending(), 1u);
}

TEST(TxPoolTest, TakeBatchRespectsCount) {
  TxPool pool;
  for (uint64_t i = 0; i < 10; ++i) pool.Add(Tx(i));
  auto batch = pool.TakeBatch(4);
  EXPECT_EQ(batch.size(), 4u);
  EXPECT_EQ(pool.pending(), 6u);
  EXPECT_EQ(batch[0]->id, 0u);  // FIFO
}

TEST(TxPoolTest, TakeBatchRespectsBytes) {
  TxPool pool;
  for (uint64_t i = 0; i < 10; ++i) pool.Add(Tx(i));
  size_t one_tx = Tx(0)->SizeBytes();
  auto batch = pool.TakeBatch(10, one_tx * 3);
  EXPECT_LE(batch.size(), 3u);
  EXPECT_GE(batch.size(), 1u);
}

TEST(TxPoolTest, RemoveCommittedFiltersQueue) {
  TxPool pool;
  for (uint64_t i = 0; i < 5; ++i) pool.Add(Tx(i));
  pool.RemoveCommitted({Tx(1), Tx(3)});
  EXPECT_EQ(pool.pending(), 3u);
  auto batch = pool.TakeBatch(10);
  EXPECT_EQ(batch[0]->id, 0u);
  EXPECT_EQ(batch[1]->id, 2u);
  EXPECT_EQ(batch[2]->id, 4u);
}

TEST(TxPoolTest, CommittedViaGossipNeverAdmitted) {
  TxPool pool;
  pool.RemoveCommitted({Tx(9)});  // block arrived before the tx gossip
  EXPECT_FALSE(pool.Add(Tx(9)));
  EXPECT_EQ(pool.pending(), 0u);
}

TEST(TxPoolTest, RequeueRestoresTxs) {
  TxPool pool;
  pool.Add(Tx(1));
  auto batch = pool.TakeBatch(10);
  EXPECT_EQ(pool.pending(), 0u);
  pool.Requeue(batch);
  EXPECT_EQ(pool.pending(), 1u);
  // Requeue of something already pending is a no-op.
  pool.Requeue(batch);
  EXPECT_EQ(pool.pending(), 1u);
}

TEST(TxPoolTest, SharesTransactionsThroughAddTakeBatchAndRequeue) {
  TxPool pool;
  TxPtr a = Tx(1), b = Tx(2);
  pool.Add(a);
  pool.Add(b);
  auto batch = pool.TakeBatch(10);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].get(), a.get());
  EXPECT_EQ(batch[1].get(), b.get());
  pool.Requeue(batch);
  auto again = pool.TakeBatch(10);
  ASSERT_EQ(again.size(), 2u);
  EXPECT_EQ(again[0].get(), a.get());
  EXPECT_EQ(again[1].get(), b.get());
}

TEST(TxPoolTest, FreedSlotDropsItsReference) {
  TxPool pool;
  TxPtr taken = Tx(1);
  pool.Add(taken);
  EXPECT_EQ(taken.use_count(), 2);  // the caller and the slot
  pool.TakeBatch(10);
  EXPECT_EQ(taken.use_count(), 1);
  // A committed entry is deleted lazily: its slot keeps the reference
  // until the cursor purges it.
  TxPtr committed = Tx(2);
  pool.Add(committed);
  pool.RemoveCommitted({committed});
  EXPECT_EQ(committed.use_count(), 2);
  pool.Add(Tx(3));
  pool.TakeBatch(10);
  EXPECT_EQ(committed.use_count(), 1);
  // Compaction frees dead slots too.
  std::vector<TxPtr> many;
  for (uint64_t id = 10; id < 110; ++id) many.push_back(Tx(id));
  for (const auto& tx : many) pool.Add(tx);
  pool.RemoveCommitted(many);
  for (const auto& tx : many) EXPECT_EQ(tx.use_count(), 1);
}

TEST(TxPoolTest, SeenWindowRecyclesOldCommittedIds) {
  TxPool pool;
  pool.set_seen_window(2);
  pool.Add(Tx(1));
  pool.Add(Tx(2));
  pool.RemoveCommitted(pool.TakeBatch(10));
  // Three more admissions rotate the two-generation window twice, so ids
  // 1 and 2 fall off the back...
  for (uint64_t id = 3; id <= 5; ++id) pool.Add(Tx(id));
  EXPECT_FALSE(pool.Seen(1));
  EXPECT_FALSE(pool.Seen(2));
  EXPECT_TRUE(pool.Seen(4));
  // ...and a recycled id is admitted again.
  EXPECT_TRUE(pool.Add(Tx(1)));
  EXPECT_FALSE(pool.Add(Tx(4)));
}

TEST(TxPoolTest, PendingIdOutsideSeenWindowNotReadmitted) {
  TxPool pool;
  pool.set_seen_window(1);
  pool.Add(Tx(10));
  pool.Add(Tx(11));
  pool.Add(Tx(12));  // id 10 is out of the window but still pending
  EXPECT_FALSE(pool.Seen(10));
  EXPECT_FALSE(pool.Add(Tx(10)));  // queue membership still dedupes
  EXPECT_EQ(pool.pending(), 3u);
}

TEST(TxPoolTest, LazyDeletionPreservesOrderAcrossCompaction) {
  TxPool pool;
  for (uint64_t i = 0; i < 300; ++i) pool.Add(Tx(i));
  // Commit a large middle span to force the dead-entry compaction path.
  std::vector<TxPtr> committed;
  for (uint64_t i = 10; i < 280; ++i) committed.push_back(Tx(i));
  pool.RemoveCommitted(committed);
  EXPECT_EQ(pool.pending(), 30u);
  auto batch = pool.TakeBatch(1000);
  ASSERT_EQ(batch.size(), 30u);
  for (size_t i = 0; i < 10; ++i) EXPECT_EQ(batch[i]->id, i);
  for (size_t i = 10; i < 30; ++i) EXPECT_EQ(batch[i]->id, 270 + i);
}

TEST(TxPoolTest, LifoTakesNewestFirstThroughDeadEntries) {
  TxPool pool;
  for (uint64_t i = 0; i < 6; ++i) pool.Add(Tx(i));
  pool.RemoveCommitted({Tx(4), Tx(5)});
  auto batch = pool.TakeBatch(2, 0, /*lifo=*/true);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0]->id, 3u);
  EXPECT_EQ(batch[1]->id, 2u);
}

// --- ChainStore -------------------------------------------------------------------

BlockPtr MakeBlock(const Hash256& parent, uint64_t height, uint64_t nonce,
                   uint64_t weight = 1) {
  Block b;
  b.header.parent = parent;
  b.header.height = height;
  b.header.nonce = nonce;
  b.header.weight = weight;
  b.SealTxRoot();
  return Seal(std::move(b));
}

TEST(ChainStoreTest, GenesisIsHead) {
  ChainStore cs((Block()));
  EXPECT_EQ(cs.head_height(), 0u);
  EXPECT_EQ(cs.total_blocks(), 0u);
  EXPECT_NE(cs.GetBlock(cs.head()), nullptr);
}

TEST(ChainStoreTest, LinearExtension) {
  ChainStore cs((Block()));
  Hash256 h = cs.head();
  for (int i = 1; i <= 5; ++i) {
    auto r = cs.AddBlock(MakeBlock(h, uint64_t(i), uint64_t(i)));
    EXPECT_TRUE(r.attached);
    EXPECT_TRUE(r.head_changed);
    h = cs.head();
    EXPECT_EQ(cs.head_height(), uint64_t(i));
    EXPECT_EQ(cs.head_height(), cs.HeightOf(cs.head()));
  }
  EXPECT_EQ(cs.main_chain_blocks(), 5u);
  EXPECT_EQ(cs.orphaned_blocks(), 0u);
}

TEST(ChainStoreTest, DuplicateIgnored) {
  ChainStore cs((Block()));
  BlockPtr b = MakeBlock(cs.head(), 1, 1);
  cs.AddBlock(b);
  auto r = cs.AddBlock(b);
  EXPECT_TRUE(r.duplicate);
  EXPECT_EQ(cs.total_blocks(), 1u);
}

TEST(ChainStoreTest, HeavierForkWins) {
  ChainStore cs((Block()));
  Hash256 genesis = cs.head();
  BlockPtr light = MakeBlock(genesis, 1, 1, 10);
  BlockPtr heavy = MakeBlock(genesis, 1, 2, 20);
  cs.AddBlock(light);
  EXPECT_EQ(cs.head(), light->HashOf());
  auto r = cs.AddBlock(heavy);
  EXPECT_TRUE(r.head_changed);
  EXPECT_EQ(cs.head(), heavy->HashOf());
  EXPECT_EQ(cs.head_height(), cs.HeightOf(cs.head()));
  EXPECT_EQ(cs.orphaned_blocks(), 1u);
  EXPECT_EQ(cs.reorgs(), 1u);
}

TEST(ChainStoreTest, LongerChainWinsAtEqualWeight) {
  ChainStore cs((Block()));
  Hash256 genesis = cs.head();
  BlockPtr a1 = MakeBlock(genesis, 1, 1);
  BlockPtr b1 = MakeBlock(genesis, 1, 2);
  BlockPtr b2 = MakeBlock(b1->HashOf(), 2, 3);
  cs.AddBlock(a1);
  cs.AddBlock(b1);
  EXPECT_EQ(cs.head(), a1->HashOf());  // first seen wins ties
  cs.AddBlock(b2);
  EXPECT_EQ(cs.head(), b2->HashOf());
  EXPECT_EQ(cs.head_height(), 2u);
  EXPECT_TRUE(cs.IsCanonical(b1->HashOf()));
  EXPECT_FALSE(cs.IsCanonical(a1->HashOf()));
}

TEST(ChainStoreTest, OrphanBufferAttachesOutOfOrder) {
  ChainStore cs((Block()));
  Hash256 genesis = cs.head();
  BlockPtr b1 = MakeBlock(genesis, 1, 1);
  BlockPtr b2 = MakeBlock(b1->HashOf(), 2, 2);
  BlockPtr b3 = MakeBlock(b2->HashOf(), 3, 3);
  auto r3 = cs.AddBlock(b3);
  EXPECT_FALSE(r3.attached);
  EXPECT_EQ(cs.pending_orphans(), 1u);
  cs.AddBlock(b2);
  EXPECT_EQ(cs.pending_orphans(), 2u);
  auto r1 = cs.AddBlock(b1);
  EXPECT_TRUE(r1.attached);
  EXPECT_TRUE(r1.head_changed);
  EXPECT_EQ(cs.head_height(), 3u);
  EXPECT_EQ(cs.head_height(), cs.HeightOf(cs.head()));
  EXPECT_EQ(cs.head(), b3->HashOf());
  EXPECT_EQ(cs.pending_orphans(), 0u);
}

TEST(ChainStoreTest, InvalidHeightDropped) {
  ChainStore cs((Block()));
  BlockPtr b1 = MakeBlock(cs.head(), 1, 1);
  cs.AddBlock(b1);
  auto r = cs.AddBlock(MakeBlock(b1->HashOf(), 5, 2, 100));
  EXPECT_FALSE(r.head_changed);
  EXPECT_EQ(cs.invalid_blocks(), 1u);
  EXPECT_EQ(cs.head(), b1->HashOf());
  EXPECT_EQ(cs.head_height(), 1u);
  EXPECT_EQ(cs.head_height(), cs.HeightOf(cs.head()));
}

TEST(ChainStoreTest, CanonicalRangeReturnsOrderedBlocks) {
  ChainStore cs((Block()));
  Hash256 h = cs.head();
  std::vector<Hash256> hashes;
  for (int i = 1; i <= 10; ++i) {
    BlockPtr b = MakeBlock(h, uint64_t(i), uint64_t(i));
    hashes.push_back(b->HashOf());
    cs.AddBlock(b);
    h = cs.head();
  }
  auto range = cs.CanonicalRange(3, 7);
  ASSERT_EQ(range.size(), 4u);
  for (size_t i = 0; i < range.size(); ++i) {
    EXPECT_EQ(range[i]->header.height, 4 + i);
    EXPECT_EQ(range[i]->HashOf(), hashes[3 + i]);
  }
  // Out-of-range is clamped.
  EXPECT_EQ(cs.CanonicalRange(8, 100).size(), 2u);
  EXPECT_TRUE(cs.CanonicalRange(10, 10).empty());
}

TEST(ChainStoreTest, DeepReorg) {
  ChainStore cs((Block()));
  Hash256 genesis = cs.head();
  // Build chain A of length 3.
  Hash256 h = genesis;
  for (int i = 0; i < 3; ++i) {
    BlockPtr b = MakeBlock(h, uint64_t(i + 1), uint64_t(100 + i));
    cs.AddBlock(b);
    h = b->HashOf();
  }
  EXPECT_EQ(cs.head_height(), 3u);
  // Build hidden chain B of length 5 from genesis (the partition /
  // selfish-mining scenario).
  Hash256 hb = genesis;
  for (int i = 0; i < 5; ++i) {
    BlockPtr b = MakeBlock(hb, uint64_t(i + 1), uint64_t(200 + i));
    cs.AddBlock(b);
    hb = b->HashOf();
  }
  EXPECT_EQ(cs.head_height(), 5u);
  EXPECT_EQ(cs.head_height(), cs.HeightOf(cs.head()));
  EXPECT_EQ(cs.head(), hb);
  EXPECT_EQ(cs.orphaned_blocks(), 3u);
  EXPECT_EQ(cs.CanonicalAt(1)->header.nonce, 200u);
}

// --- StateDb ---------------------------------------------------------------------

template <typename T>
std::unique_ptr<StateDb> MakeDb(storage::KvStore* kv);

template <>
std::unique_ptr<StateDb> MakeDb<TrieStateDb>(storage::KvStore* kv) {
  return std::make_unique<TrieStateDb>(kv);
}
template <>
std::unique_ptr<StateDb> MakeDb<BucketStateDb>(storage::KvStore* kv) {
  return std::make_unique<BucketStateDb>(kv);
}

template <typename T>
class StateDbTest : public testing::Test {
 protected:
  storage::MemKv kv_;
  std::unique_ptr<StateDb> db_ = MakeDb<T>(&kv_);
};

using StateDbModels = testing::Types<TrieStateDb, BucketStateDb>;
TYPED_TEST_SUITE(StateDbTest, StateDbModels);

TYPED_TEST(StateDbTest, PendingWritesVisibleBeforeCommit) {
  ASSERT_TRUE(this->db_->Put("ns", "k", "v").ok());
  std::string v;
  ASSERT_TRUE(this->db_->Get("ns", "k", &v).ok());
  EXPECT_EQ(v, "v");
}

TYPED_TEST(StateDbTest, AbortDropsPending) {
  this->db_->Put("ns", "k", "v");
  this->db_->Abort();
  std::string v;
  EXPECT_TRUE(this->db_->Get("ns", "k", &v).IsNotFound());
}

TYPED_TEST(StateDbTest, CommitChangesRoot) {
  Hash256 r0 = this->db_->current_root();
  this->db_->Put("ns", "k", "v");
  auto r1 = this->db_->Commit();
  ASSERT_TRUE(r1.ok());
  EXPECT_NE(*r1, r0);
  std::string v;
  ASSERT_TRUE(this->db_->Get("ns", "k", &v).ok());
  EXPECT_EQ(v, "v");
}

TYPED_TEST(StateDbTest, NamespacesAreIsolated) {
  this->db_->Put("a", "k", "1");
  this->db_->Put("b", "k", "2");
  ASSERT_TRUE(this->db_->Commit().ok());
  std::string v;
  ASSERT_TRUE(this->db_->Get("a", "k", &v).ok());
  EXPECT_EQ(v, "1");
  ASSERT_TRUE(this->db_->Get("b", "k", &v).ok());
  EXPECT_EQ(v, "2");
  EXPECT_TRUE(this->db_->Get("c", "k", &v).IsNotFound());
}

TYPED_TEST(StateDbTest, DeleteRemoves) {
  this->db_->Put("ns", "k", "v");
  ASSERT_TRUE(this->db_->Commit().ok());
  this->db_->Delete("ns", "k");
  std::string v;
  EXPECT_TRUE(this->db_->Get("ns", "k", &v).IsNotFound());
  ASSERT_TRUE(this->db_->Commit().ok());
  EXPECT_TRUE(this->db_->Get("ns", "k", &v).IsNotFound());
}

// A write set taken from one replica's buffer commits into another
// replica's store, left unchanged, to the same root and contents.
TYPED_TEST(StateDbTest, TakenWriteSetCommitsElsewhereToTheSameRoot) {
  storage::MemKv other_kv;
  std::unique_ptr<StateDb> other = MakeDb<TypeParam>(&other_kv);
  for (StateDb* db : {this->db_.get(), other.get()}) {
    ASSERT_TRUE(db->Put("ns", "gone", "x").ok());
    ASSERT_TRUE(db->Commit().ok());
  }
  ASSERT_TRUE(this->db_->Put("ns", "k", "v").ok());
  ASSERT_TRUE(this->db_->Delete("ns", "gone").ok());
  const StateDb::WriteSet writes = this->db_->TakePending();
  EXPECT_FALSE(this->db_->has_pending());
  ASSERT_EQ(writes.size(), 2u);

  auto mine = this->db_->Commit(writes);
  auto theirs = other->Commit(writes);
  ASSERT_TRUE(mine.ok());
  ASSERT_TRUE(theirs.ok());
  EXPECT_EQ(*mine, *theirs);
  EXPECT_EQ(writes.size(), 2u);
  std::string v;
  ASSERT_TRUE(other->Get("ns", "k", &v).ok());
  EXPECT_EQ(v, "v");
  EXPECT_TRUE(other->Get("ns", "gone", &v).IsNotFound());
}

TEST(TrieStateDbTest, HistoricalReadsWork) {
  storage::MemKv kv;
  TrieStateDb db(&kv);
  db.Put("ns", "k", "v1");
  auto r1 = db.Commit();
  ASSERT_TRUE(r1.ok());
  db.Put("ns", "k", "v2");
  auto r2 = db.Commit();
  ASSERT_TRUE(r2.ok());
  std::string v;
  ASSERT_TRUE(db.GetAt(*r1, "ns", "k", &v).ok());
  EXPECT_EQ(v, "v1");
  ASSERT_TRUE(db.GetAt(*r2, "ns", "k", &v).ok());
  EXPECT_EQ(v, "v2");
  EXPECT_TRUE(db.supports_versioned_reads());
}

TEST(TrieStateDbTest, ResetToRewindsState) {
  storage::MemKv kv;
  TrieStateDb db(&kv);
  db.Put("ns", "k", "v1");
  auto r1 = db.Commit();
  db.Put("ns", "k", "v2");
  ASSERT_TRUE(db.Commit().ok());
  ASSERT_TRUE(db.ResetTo(*r1).ok());
  std::string v;
  ASSERT_TRUE(db.Get("ns", "k", &v).ok());
  EXPECT_EQ(v, "v1");
}

TEST(BucketStateDbTest, NoVersionedReads) {
  storage::MemKv kv;
  BucketStateDb db(&kv);
  EXPECT_FALSE(db.supports_versioned_reads());
  std::string v;
  EXPECT_EQ(db.GetAt(Hash256::Zero(), "ns", "k", &v).code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(db.ResetTo(Hash256::Zero()).code(), StatusCode::kUnavailable);
}

// A commit the store refuses part-way leaves the earlier writes in the
// store; the state root must still describe exactly what the store holds.
TEST(BucketStateDbTest, RootDescribesStoreAfterRefusedCommit) {
  storage::MemKv kv(600);
  BucketStateDb db(&kv);
  ASSERT_TRUE(db.Put("ns", "a", "1").ok());
  ASSERT_TRUE(db.Commit().ok());
  ASSERT_TRUE(db.Put("ns", "a", "2").ok());
  ASSERT_TRUE(db.Put("ns", "b", std::string(1000, 'x')).ok());
  EXPECT_FALSE(db.Commit().ok());  // "a" lands, "b" is refused

  storage::MemKv fresh_kv;
  BucketStateDb fresh(&fresh_kv);
  ASSERT_TRUE(fresh.Put("ns", "a", "2").ok());
  auto root = fresh.Commit();
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(db.current_root(), *root);
}

TEST(StateHostTest, TransferMovesBalances) {
  storage::MemKv kv;
  TrieStateDb db(&kv);
  StateHost host(&db, "doubler");
  ASSERT_TRUE(StateHost::Credit(&db, "doubler", 500).ok());
  ASSERT_TRUE(host.Transfer("alice", 200).ok());
  EXPECT_EQ(StateHost::BalanceOf(db, "doubler"), 300);
  EXPECT_EQ(StateHost::BalanceOf(db, "alice"), 200);
}

TEST(StateHostTest, StateOpsUseContractNamespace) {
  storage::MemKv kv;
  TrieStateDb db(&kv);
  StateHost a(&db, "c1"), b(&db, "c2");
  ASSERT_TRUE(a.PutState("k", "from_c1").ok());
  std::string v;
  EXPECT_TRUE(b.GetState("k", &v).IsNotFound());  // isolation
  ASSERT_TRUE(a.GetState("k", &v).ok());
  EXPECT_EQ(v, "from_c1");
}

}  // namespace
}  // namespace bb::chain
