#include "platform/exec_memo.h"

#include <algorithm>

namespace bb::platform {

const ExecMemo::Entry* ExecMemo::Find(const Hash256& pre_root,
                                      const Hash256& block) const {
  auto it = entries_.find(Key{pre_root, block});
  return it == entries_.end() ? nullptr : &it->second.entry;
}

void ExecMemo::Taken(const Hash256& pre_root, const Hash256& block) {
  auto it = entries_.find(Key{pre_root, block});
  if (it == entries_.end()) return;
  // A replica that re-applies a block after a reorg counts twice; the
  // entry is then freed early and a later replica executes instead.
  if (++it->second.takes + 1 >= it->second.group.size) entries_.erase(it);
}

ExecMemo::Entry* ExecMemo::Record(const Hash256& pre_root,
                                  const Hash256& block, uint64_t height,
                                  Group group) {
  Slot& slot = entries_[Key{pre_root, block}];  // Find missed: a new slot
  slot.height = height;
  slot.group = group;
  return &slot.entry;
}

void ExecMemo::SetExecHeight(sim::NodeId node, uint64_t height,
                             Group group) {
  exec_height_[node] = height;
  if (entries_.empty()) return;
  auto first = exec_height_.begin() + long(group.base);
  uint64_t reached = *std::min_element(first, first + long(group.size));
  // Every member has applied some block at each height up to `reached`,
  // so the group's entries there are taken or on a fork branch. A member
  // that later reorgs onto that branch misses and executes it.
  std::erase_if(entries_, [&](const auto& kv) {
    return kv.second.group.base == group.base && kv.second.height <= reached;
  });
}

}  // namespace bb::platform
