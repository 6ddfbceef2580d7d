// GroupStore: one consensus group's flat key/value state, held once, and
// GroupKv, one replica's KvStore view of it.
//
// In the paper's Hyperledger model every node keeps the bucket tree's
// entries flat in its own storage engine (§3.1.2). The replicas of one
// consensus group commit the same blocks in the same order, so those
// stores hold identical contents at different heights. The group store
// numbers the group's commits 1, 2, ... and keeps a short version list
// per key: (commit number, value or tombstone). A view has a cursor, the
// commit it has reached, and reads the newest version at or below it.
//
// The view at the newest commit writes the next one: its Puts and
// Deletes open commit head() + 1 and Seal closes it. Another view then
// takes that commit without touching the store (Take): it moves its
// cursor and charges each write's byte change, which the writer logged.
// Each view keeps its own accounting, and it is MemKv's exactly: given
// the same Puts and Deletes, a view reports the same size_bytes,
// live_bytes and entry count, refuses the same write at the same
// capacity and steps the mem gauge the same way as a private MemKv.
//
// A view that cannot follow the group's sequence diverges: it copies its
// contents at its cursor into a private MemKv and continues there, out
// of the group. That happens when its capacity refuses a write, when it
// writes while behind the newest commit (a fork, or a block it executed
// itself while lagging) and when it is asked to take a commit that is
// not the next one from its cursor.
//
// Versions older than the slowest attached view's cursor are dropped,
// except the newest one at or below it. So a lagging or crashed view
// pins every version written since its cursor, as the execution memo
// pins every later block's entry for it (platform/exec_memo.h), and
// catches up by taking the commits in order.
//
// Commit numbers depend on which replica writes first and never reach an
// output. A store belongs to one Platform, and neither it nor its views
// are safe for concurrent use.

#ifndef BLOCKBENCH_STORAGE_GROUP_STORE_H_
#define BLOCKBENCH_STORAGE_GROUP_STORE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "storage/kvstore.h"
#include "storage/memkv.h"

namespace bb::storage {

class GroupKv;

class GroupStore {
 public:
  GroupStore() = default;
  GroupStore(const GroupStore&) = delete;
  GroupStore& operator=(const GroupStore&) = delete;

  /// Commits written so far; a view at cursor c reads commits 1..c.
  uint64_t head() const { return head_; }
  /// Keys with at least one version.
  size_t num_keys() const { return map_.size(); }
  /// Views that still follow the group.
  size_t num_views() const { return views_.size(); }
  /// Calls fn for every version held, newest last within a key.
  void ScanVersions(
      const std::function<void(Slice key, uint64_t commit, bool present)>&
          fn) const;

 private:
  friend class GroupKv;

  struct Version {
    uint64_t commit;
    bool present;
    std::string value;
  };
  using Node = KeyMap<std::vector<Version>>::value_type;

  void Attach(GroupKv* view) { views_.push_back(view); }
  /// Removes a view that diverged or is destroyed, abandoning its open
  /// commit; frees everything once no view is left.
  void Detach(GroupKv* view);
  /// Writes one version of `node`'s key into the open commit.
  void Write(Node* node, bool present, Slice value);
  /// Removes the open commit's versions.
  void Rollback();
  /// Drops the versions no attached view can read any more.
  void Collect();

  KeyMap<std::vector<Version>> map_;
  uint64_t head_ = 0;
  /// The view whose commit head_ is open, or null.
  GroupKv* writer_ = nullptr;
  std::vector<GroupKv*> views_;
  /// Every version Collect has not yet visited, in commit order, with
  /// its key's node (unordered_map nodes never move).
  std::deque<std::pair<uint64_t, Node*>> written_;
};

class GroupKv : public KvStore {
 public:
  /// What one write of a commit another view made does to a view's
  /// accounting: the change in live bytes and in entries (+1 for a new
  /// key, -1 for a deleted one, 0 for an overwrite).
  struct Charge {
    int64_t live_bytes;
    int32_t entries;
  };

  /// Attaches at commit 0, the empty state. `store` is shared with the
  /// group's other views; not owned. capacity_bytes = 0 means
  /// unlimited, as for MemKv.
  explicit GroupKv(GroupStore* store, uint64_t capacity_bytes = 0);
  ~GroupKv() override;

  /// Writes into the commit this view has open, opening the next one
  /// when the view is at the newest; diverges first when it is not.
  Status Put(Slice key, Slice value) override;
  Status Get(Slice key, std::string* value) const override;
  Status Delete(Slice key) override;
  void Scan(
      const std::function<bool(Slice key, Slice value)>& fn) const override;

  size_t num_entries() const override {
    return private_ ? private_->num_entries() : num_entries_;
  }
  uint64_t size_bytes() const override {
    return private_ ? private_->size_bytes()
                    : MemKvBytes(live_bytes_, num_entries_);
  }
  uint64_t live_bytes() const override {
    return private_ ? private_->live_bytes() : live_bytes_;
  }

  /// Closes the commit this view's writes opened, if any.
  void Seal();
  /// Takes commit `to`, which another view of `store` wrote from commit
  /// `from` (to == from when it wrote nothing), charging its writes in
  /// order. Returns false, having diverged, when this view cannot: it
  /// is not at `from` of this store, or a charge would take it past its
  /// capacity. A diverged view returns false and stays private.
  bool Take(const GroupStore* store, uint64_t from, uint64_t to,
            std::span<const Charge> charges);
  /// Copies the contents at the cursor into a private MemKv and leaves
  /// the group; a no-op once diverged.
  void Diverge();

  const GroupStore* store() const { return store_; }
  /// The commit this view reads at (meaningless once diverged).
  uint64_t cursor() const { return cursor_; }
  bool diverged() const { return private_ != nullptr; }

 private:
  friend class GroupStore;

  /// The version of a key this view reads, or null when it reads none.
  const GroupStore::Version* Visible(const GroupStore::Node& node) const;
  /// Diverges unless this view may write into the store: it holds the
  /// open commit, or none is open and it is at the newest.
  void FollowOrDiverge();

  GroupStore* store_;
  uint64_t capacity_;
  uint64_t cursor_ = 0;
  uint64_t live_bytes_ = 0;
  size_t num_entries_ = 0;
  /// The view's own contents once it diverged.
  std::unique_ptr<MemKv> private_;
};

}  // namespace bb::storage

#endif  // BLOCKBENCH_STORAGE_GROUP_STORE_H_
