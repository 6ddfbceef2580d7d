#include "chain/state_db.h"

#include <cassert>
#include <charconv>

#include "obs/profiler.h"

namespace bb::chain {

// --- StateDb ----------------------------------------------------------------

Status StateDb::Get(const std::string& ns, const std::string& key,
                    std::string* value) const {
  std::string fk = FullKey(ns, key);
  auto it = pending_.find(fk);
  if (it == pending_.end()) return ReadCommitted(fk, value);
  if (!it->second.present) return Status::NotFound();
  *value = it->second.value;
  return Status::Ok();
}

Status StateDb::Put(const std::string& ns, const std::string& key,
                    const std::string& value) {
  pending_[FullKey(ns, key)] = {true, value};
  return Status::Ok();
}

Status StateDb::Delete(const std::string& ns, const std::string& key) {
  pending_[FullKey(ns, key)] = {false, {}};
  return Status::Ok();
}

Result<Hash256> StateDb::Commit() {
  auto root = Apply(pending_);
  if (root.ok()) pending_.clear();
  return root;
}

Result<Hash256> StateDb::Commit(const WriteSet& writes, CommitLog* record) {
  assert(pending_.empty());
  return record != nullptr ? ApplyAndLog(writes, record) : Apply(writes);
}

Result<Hash256> StateDb::Replay(const WriteSet& writes, const CommitLog& log) {
  assert(pending_.empty());
  return log.recorded ? ReplayLog(writes, log) : Apply(writes);
}

// --- TrieStateDb ------------------------------------------------------------

TrieStateDb::TrieStateDb(storage::KvStore* store, size_t cache_entries)
    : store_(store), trie_(store, cache_entries) {}

TrieStateDb::TrieStateDb(storage::PoolKv* store)
    : store_(store), pool_(store), trie_(store) {}

Result<Hash256> TrieStateDb::Apply(const WriteSet& writes) {
  BB_PROF_SCOPE("storage.trie_commit");
  Hash256 root = root_;
  for (const auto& [key, w] : writes) {
    if (w.present) {
      auto r = trie_.Put(root, key, w.value);
      if (!r.ok()) return r.status();
      root = *r;
    } else {
      auto r = trie_.Delete(root, key);
      if (r.ok()) {
        root = *r;
      } else if (!r.status().IsNotFound()) {
        return r.status();
      }
    }
  }
  root_ = root;
  return root;
}

Result<Hash256> TrieStateDb::ApplyAndLog(const WriteSet& writes,
                                         CommitLog* log) {
  if (pool_ == nullptr) return Apply(writes);
  assert(!log->recorded && log->puts.empty());
  const storage::TrieStats before = trie_.stats();
  pool_->set_put_log(&log->puts);
  auto root = Apply(writes);
  pool_->set_put_log(nullptr);
  if (!root.ok()) {
    log->puts.clear();
    return root;
  }
  log->recorded = true;
  log->root = *root;
  log->node_reads = trie_.stats().node_reads - before.node_reads;
  log->bytes_written = trie_.stats().bytes_written - before.bytes_written;
  return root;
}

Result<Hash256> TrieStateDb::ReplayLog(const WriteSet& writes,
                                       const CommitLog& log) {
  if (pool_ == nullptr) return Apply(writes);
  {
    // Profiled as a commit: every replica still commits every block.
    BB_PROF_SCOPE("storage.trie_commit");
    // The log's Puts are the ones this trie would make from the same
    // root, since nodes are content-addressed and there is no cache.
    if (pool_->Replay(log.puts)) {
      trie_.CountNodeReads(log.node_reads);
      trie_.CountNodeWrites(log.puts.size(), log.bytes_written);
      root_ = log.root;
      return root_;
    }
  }
  // The new nodes would overflow this store: the writes fail at the same
  // write they would have anyway.
  return Apply(writes);
}

Status TrieStateDb::ResetTo(const Hash256& root) {
  Abort();
  root_ = root;
  return Status::Ok();
}

Status TrieStateDb::GetAt(const Hash256& root, const std::string& ns,
                          const std::string& key, std::string* value) const {
  return trie_.Get(root, FullKey(ns, key), value);
}

// --- BucketStateDb ----------------------------------------------------------

BucketStateDb::BucketStateDb(storage::KvStore* store, size_t num_buckets)
    : store_(store), tree_(store, num_buckets) {
  root_ = tree_.RootHash();
}

BucketStateDb::BucketStateDb(storage::GroupKv* store, size_t num_buckets)
    : BucketStateDb(static_cast<storage::KvStore*>(store), num_buckets) {
  group_ = store;
}

Result<Hash256> BucketStateDb::Apply(const WriteSet& writes) {
  BB_PROF_SCOPE("storage.bucket_commit");
  Status s;
  for (const auto& [key, w] : writes) {
    s = w.present ? tree_.Put(key, w.value) : tree_.Delete(key);
    if (s.IsNotFound()) s = Status::Ok();  // deleting an absent key
    if (!s.ok()) break;
  }
  // The store is mutated in place, so writes before a refused one stay:
  // the root always describes what the store holds.
  root_ = tree_.RootHash();
  if (group_ != nullptr) group_->Seal();
  if (!s.ok()) return s;
  return root_;
}

Result<Hash256> BucketStateDb::ApplyAndLog(const WriteSet& writes,
                                           CommitLog* log) {
  assert(!log->recorded && log->deltas.empty());
  log->deltas.reserve(writes.size());
  const uint64_t from = group_ != nullptr ? group_->cursor() : 0;
  tree_.set_delta_log(&log->deltas);
  auto root = Apply(writes);
  tree_.set_delta_log(nullptr);
  if (!root.ok()) {
    log->deltas = {};
    return root;
  }
  log->recorded = true;
  log->root = *root;
  if (group_ != nullptr && !group_->diverged()) {
    log->group = group_->store();
    log->group_from = from;
    log->group_to = group_->cursor();
  }
  return root;
}

bool BucketStateDb::TakeFromGroup(const WriteSet& writes,
                                  const CommitLog& log) {
  charges_.clear();
  auto delta = log.deltas.begin();
  for (const auto& [key, w] : writes) {
    const int64_t old_bytes = int64_t(delta->old_size);
    if (w.present) {
      const int64_t value_bytes = int64_t(w.value.size());
      charges_.push_back(delta->present
                             ? storage::GroupKv::Charge{value_bytes - old_bytes, 0}
                             : storage::GroupKv::Charge{
                                   int64_t(key.size()) + value_bytes, 1});
    } else if (delta->present) {
      charges_.push_back({-(int64_t(key.size()) + old_bytes), -1});
    }
    ++delta;
  }
  if (!group_->Take(log.group, log.group_from, log.group_to, charges_)) {
    return false;
  }
  delta = log.deltas.begin();
  for (const auto& [key, w] : writes) {
    // A delete of an absent key changed nothing.
    if (w.present || delta->present) tree_.AddDelta(*delta);
    ++delta;
  }
  return true;
}

Result<Hash256> BucketStateDb::ReplayLog(const WriteSet& writes,
                                         const CommitLog& log) {
  // Profiled as a commit: every replica still commits every block.
  BB_PROF_SCOPE("storage.bucket_commit");
  assert(log.deltas.size() == writes.size());
  if (group_ != nullptr && !group_->diverged() &&
      TakeFromGroup(writes, log)) {
    tree_.AdoptRoot(log.root);
    root_ = log.root;
    return root_;
  }
  // Otherwise the same store writes: on a private store, or on the
  // private copy of a view that left its group.
  auto delta = log.deltas.begin();
  for (const auto& [key, w] : writes) {
    Status s = w.present ? tree_.ReplayPut(key, w.value, *delta)
                         : tree_.ReplayDelete(key, *delta);
    ++delta;
    if (s.ok() || s.IsNotFound()) continue;  // NotFound: an absent key
    // Refused where Apply would be: the writes before it stay.
    root_ = tree_.RootHash();
    return s;
  }
  tree_.AdoptRoot(log.root);
  root_ = log.root;
  return root_;
}

// --- StateHost --------------------------------------------------------------

namespace {
constexpr char kBalanceNs[] = "__bal";

int64_t ParseBalance(const std::string& raw) {
  int64_t v = 0;
  std::from_chars(raw.data(), raw.data() + raw.size(), v);
  return v;
}
}  // namespace

int64_t StateHost::BalanceOf(const StateDb& db, const std::string& account) {
  std::string raw;
  if (!db.Get(kBalanceNs, account, &raw).ok()) return 0;
  return ParseBalance(raw);
}

Status StateHost::Credit(StateDb* db, const std::string& account,
                         int64_t amount) {
  int64_t bal = BalanceOf(*db, account);
  return db->Put(kBalanceNs, account, std::to_string(bal + amount));
}

Status StateHost::Transfer(const std::string& to, int64_t amount) {
  BB_RETURN_IF_ERROR(Credit(db_, contract_, -amount));
  return Credit(db_, to, amount);
}

}  // namespace bb::chain
