#include "storage/group_store.h"

#include <algorithm>
#include <cassert>

namespace bb::storage {

// --- GroupStore --------------------------------------------------------------

void GroupStore::ScanVersions(
    const std::function<void(Slice key, uint64_t commit, bool present)>& fn)
    const {
  for (const auto& [key, versions] : map_) {
    for (const Version& v : versions) fn(key, v.commit, v.present);
  }
}

void GroupStore::Detach(GroupKv* view) {
  if (writer_ == view) Rollback();
  std::erase(views_, view);
  if (views_.empty()) {
    map_.clear();
    written_.clear();
    return;
  }
  Collect();
}

void GroupStore::Write(Node* node, bool present, Slice value) {
  std::vector<Version>& versions = node->second;
  if (!versions.empty() && versions.back().commit == head_) {
    // Written earlier in the same commit.
    versions.back().present = present;
    versions.back().value.assign(value.data(), value.size());
    return;
  }
  versions.push_back({head_, present, value.ToString()});
  written_.emplace_back(head_, node);
}

void GroupStore::Rollback() {
  while (!written_.empty() && written_.back().first == head_) {
    Node* node = written_.back().second;
    written_.pop_back();
    node->second.pop_back();
    if (node->second.empty()) map_.erase(map_.find(node->first));
  }
  --head_;
  writer_->cursor_ = head_;
  writer_ = nullptr;
}

void GroupStore::Collect() {
  if (writer_ != nullptr || views_.empty()) return;
  uint64_t low = views_.front()->cursor_;
  for (const GroupKv* view : views_) low = std::min(low, view->cursor_);
  while (!written_.empty() && written_.front().first <= low) {
    const auto [commit, node] = written_.front();
    written_.pop_front();
    std::vector<Version>& versions = node->second;
    // Keep the newest version at or below `low` and every later one.
    size_t keep = versions.size() - 1;
    while (versions[keep].commit > low) --keep;
    versions.erase(versions.begin(), versions.begin() + long(keep));
    // A lone tombstone that every view has passed reads as no version.
    // Only its own entry can still name the node: versions Collect has
    // not visited are newer than every version it dropped.
    if (versions.size() == 1 && !versions[0].present &&
        versions[0].commit == commit) {
      map_.erase(map_.find(node->first));
    }
  }
}

// --- GroupKv -----------------------------------------------------------------

GroupKv::GroupKv(GroupStore* store, uint64_t capacity_bytes)
    : store_(store), capacity_(capacity_bytes) {
  store_->Attach(this);
}

GroupKv::~GroupKv() {
  if (private_ == nullptr) store_->Detach(this);
}

const GroupStore::Version* GroupKv::Visible(
    const GroupStore::Node& node) const {
  for (auto v = node.second.rbegin(); v != node.second.rend(); ++v) {
    if (v->commit <= cursor_) return v->present ? &*v : nullptr;
  }
  return nullptr;
}

void GroupKv::FollowOrDiverge() {
  if (private_ != nullptr || store_->writer_ == this) return;
  if (store_->writer_ != nullptr || cursor_ != store_->head_) Diverge();
}

Status GroupKv::Put(Slice key, Slice value) {
  FollowOrDiverge();
  if (private_ != nullptr) {
    BB_RETURN_IF_ERROR(private_->Put(key, value));
    SyncMemGauge();
    return Status::Ok();
  }
  auto it = store_->map_.find(key.view());
  const GroupStore::Version* old =
      it == store_->map_.end() ? nullptr : Visible(*it);
  uint64_t live = live_bytes_ + value.size();
  live = old != nullptr ? live - old->value.size() : live + key.size();
  const size_t entries = num_entries_ + (old == nullptr ? 1 : 0);
  if (capacity_ > 0 && MemKvBytes(live, entries) > capacity_) {
    // The private copy refuses the same write.
    Diverge();
    return private_->Put(key, value);
  }
  if (store_->writer_ == nullptr) {
    store_->writer_ = this;
    cursor_ = ++store_->head_;
  }
  if (it == store_->map_.end()) {
    it = store_->map_.emplace(key.ToString(), std::vector<GroupStore::Version>{})
             .first;
  }
  store_->Write(&*it, true, value);
  live_bytes_ = live;
  num_entries_ = entries;
  SyncMemGauge();
  return Status::Ok();
}

Status GroupKv::Get(Slice key, std::string* value) const {
  if (private_ != nullptr) return private_->Get(key, value);
  auto it = store_->map_.find(key.view());
  const GroupStore::Version* v =
      it == store_->map_.end() ? nullptr : Visible(*it);
  if (v == nullptr) return Status::NotFound();
  *value = v->value;
  return Status::Ok();
}

Status GroupKv::Delete(Slice key) {
  FollowOrDiverge();
  if (private_ != nullptr) {
    BB_RETURN_IF_ERROR(private_->Delete(key));
    SyncMemGauge();
    return Status::Ok();
  }
  auto it = store_->map_.find(key.view());
  const GroupStore::Version* old =
      it == store_->map_.end() ? nullptr : Visible(*it);
  if (old == nullptr) return Status::NotFound();
  const uint64_t freed = key.size() + old->value.size();
  if (store_->writer_ == nullptr) {
    store_->writer_ = this;
    cursor_ = ++store_->head_;
  }
  store_->Write(&*it, false, Slice());
  live_bytes_ -= freed;
  --num_entries_;
  SyncMemGauge();
  return Status::Ok();
}

void GroupKv::Scan(
    const std::function<bool(Slice key, Slice value)>& fn) const {
  if (private_ != nullptr) return private_->Scan(fn);
  for (const auto& node : store_->map_) {
    const GroupStore::Version* v = Visible(node);
    if (v != nullptr && !fn(node.first, v->value)) return;
  }
}

void GroupKv::Seal() {
  if (store_->writer_ != this) return;
  store_->writer_ = nullptr;
  store_->Collect();
}

bool GroupKv::Take(const GroupStore* store, uint64_t from, uint64_t to,
                   std::span<const Charge> charges) {
  if (private_ != nullptr) return false;
  bool fits = store == store_ && cursor_ == from && store_->writer_ == nullptr;
  assert(!fits || to == from + (charges.empty() ? 0 : 1));
  // Check every step first: a refused write must leave the writes
  // before it, which the private copy replays.
  int64_t live = int64_t(live_bytes_);
  int64_t entries = int64_t(num_entries_);
  for (auto c = charges.begin(); fits && c != charges.end(); ++c) {
    live += c->live_bytes;
    entries += c->entries;
    fits = capacity_ == 0 ||
           MemKvBytes(uint64_t(live), size_t(entries)) <= capacity_;
  }
  if (!fits) {
    Diverge();
    return false;
  }
  for (const Charge& c : charges) {
    live_bytes_ = uint64_t(int64_t(live_bytes_) + c.live_bytes);
    num_entries_ = size_t(int64_t(num_entries_) + c.entries);
    SyncMemGauge();
  }
  if (to != cursor_) {
    cursor_ = to;
    store_->Collect();
  }
  return true;
}

void GroupKv::Diverge() {
  if (private_ != nullptr) return;
  auto copy = std::make_unique<MemKv>(capacity_);
  Scan([&](Slice key, Slice value) { return copy->Put(key, value).ok(); });
  assert(copy->size_bytes() == size_bytes());
  private_ = std::move(copy);
  store_->Detach(this);
}

}  // namespace bb::storage
