// ExecMemo: one platform's record of block executions, shared by its
// replicas so that each block runs through the execution layer once.
//
// Execution costs are modelled, not measured (gas x seconds_per_gas,
// native_op_cpu per op), and contracts read nothing but the world state,
// so a block's outputs are a pure function of (pre-state root, block).
// The first replica to apply a block from a root executes it and records
// the outputs here; any other replica whose state sits at the same root
// takes them instead: it adds the recorded CPU and counters and commits
// the recorded write set into its own state. Where it can, the taker
// replays the recorder's logged commit instead of running its own tree
// (see StateDb::Replay): a trie over memkv keeps its nodes in the
// platform's shared storage::NodePool and adopts the logged node ids; a
// bucket tree over memkv is a view of its consensus group's
// storage::GroupStore, which the recorder's commit already wrote, so the
// taker moves its view's cursor, charges the logged byte changes and
// adds the logged digest deltas; a bucket tree over diskkv makes the
// same writes on its own log and adds the deltas. Either way there is no
// entry hashing and no root rebuild. Each replica keeps its own root,
// byte accounting, tree counters and capacity, so these come out as if
// it had executed; a group view that cannot follow the group's commits
// continues on a private copy.
//
// The table belongs to one Platform: replicas of one simulation share
// it and nothing else does, so parallel sweep jobs share no state.

#ifndef BLOCKBENCH_PLATFORM_EXEC_MEMO_H_
#define BLOCKBENCH_PLATFORM_EXEC_MEMO_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "chain/state_db.h"
#include "sim/node.h"
#include "util/sha256.h"

namespace bb::platform {

class ExecMemo {
 public:
  /// The outputs of one block applied from one pre-state root.
  struct Entry {
    /// Modelled CPU of each transaction, in block order.
    std::vector<double> tx_cpu;
    uint64_t executed = 0;
    uint64_t failed = 0;
    uint64_t gas = 0;
    /// State-tree node reads the execution made (0 on the bucket tree).
    uint64_t node_reads = 0;
    /// The block's buffered writes, as committed.
    chain::StateDb::WriteSet writes;
    /// The recorder's commit of `writes`, when it succeeded and its
    /// model logs commits: takers replay it instead of running their
    /// own tree.
    chain::StateDb::CommitLog commit;
  };

  /// A replica's consensus group: node ids [base, base + size).
  struct Group {
    sim::NodeId base = 0;
    size_t size = 1;
  };

  explicit ExecMemo(size_t num_nodes) : exec_height_(num_nodes, 0) {}

  /// The entry for `block` applied from `pre_root`, or null.
  const Entry* Find(const Hash256& pre_root, const Hash256& block) const;
  /// Records that a replica other than the recorder has applied the
  /// entry Find returned. Frees it once every other member of the
  /// recorder's group has.
  void Taken(const Hash256& pre_root, const Hash256& block);
  /// Adds the (empty) entry that `group`'s member is about to fill by
  /// executing `block`, at `height`, from `pre_root`.
  Entry* Record(const Hash256& pre_root, const Hash256& block,
                uint64_t height, Group group);
  /// Notes that `node` of `group` has executed up to `height`; frees the
  /// group's entries every member has executed up to.
  void SetExecHeight(sim::NodeId node, uint64_t height, Group group);

  size_t size() const { return entries_.size(); }

 private:
  struct Key {
    Hash256 root;
    Hash256 block;
    bool operator==(const Key& o) const {
      return root == o.root && block == o.block;
    }
  };
  struct KeyHasher {
    size_t operator()(const Key& k) const {
      return size_t(k.root.Prefix64() ^ k.block.Prefix64());
    }
  };
  struct Slot {
    Entry entry;
    uint64_t height = 0;
    Group group;
    size_t takes = 0;
  };

  std::unordered_map<Key, Slot, KeyHasher> entries_;
  /// Executed height of every node, by id.
  std::vector<uint64_t> exec_height_;
};

}  // namespace bb::platform

#endif  // BLOCKBENCH_PLATFORM_EXEC_MEMO_H_
