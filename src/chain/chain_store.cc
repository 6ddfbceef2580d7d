#include "chain/chain_store.h"

#include <cassert>

namespace bb::chain {

ChainStore::ChainStore(Block genesis) {
  genesis.header.height = 0;
  BlockPtr sealed = Seal(std::move(genesis));
  Hash256 h = sealed->HashOf();
  genesis_ = h;
  head_ = h;
  stored_bytes_ += sealed->SizeBytes();
  entries_.emplace(h, Entry{std::move(sealed), 0});
  canonical_.push_back(h);
}

const Block* ChainStore::GetBlock(const Hash256& hash) const {
  auto it = entries_.find(hash);
  return it == entries_.end() ? nullptr : it->second.block.get();
}

BlockPtr ChainStore::GetBlockPtr(const Hash256& hash) const {
  auto it = entries_.find(hash);
  return it == entries_.end() ? nullptr : it->second.block;
}

uint64_t ChainStore::HeightOf(const Hash256& hash) const {
  auto it = entries_.find(hash);
  assert(it != entries_.end());
  return it->second.block->header.height;
}

uint64_t ChainStore::CumulativeWeightOf(const Hash256& hash) const {
  auto it = entries_.find(hash);
  assert(it != entries_.end());
  return it->second.cumulative_weight;
}

ChainStore::AddResult ChainStore::AddBlock(BlockPtr block) {
  AddResult r;
  Hash256 h = block->HashOf();
  if (entries_.count(h)) {
    r.duplicate = true;
    r.attached = true;
    return r;
  }
  auto parent = entries_.find(block->header.parent);
  if (parent == entries_.end()) {
    stored_bytes_ += block->SizeBytes();
    orphans_[block->header.parent].push_back(std::move(block));
    ++orphan_buffer_count_;
    return r;
  }
  r.attached = true;

  Hash256 old_head = head_;
  Attach(std::move(block));
  if (head_ != old_head) {
    r.head_changed = true;
    const Block* new_head = GetBlock(head_);
    if (new_head->header.parent != old_head) ++reorgs_;
    UpdateCanonical();
  }
  return r;
}

void ChainStore::Attach(BlockPtr block) {
  // Iterative attach: adding one block may unlock buffered descendants.
  std::vector<BlockPtr> to_attach;
  to_attach.push_back(std::move(block));
  while (!to_attach.empty()) {
    BlockPtr b = std::move(to_attach.back());
    to_attach.pop_back();
    Hash256 h = b->HashOf();
    if (entries_.count(h)) continue;
    auto parent = entries_.find(b->header.parent);
    assert(parent != entries_.end());
    // The height is part of the hashed header; a block claiming the
    // wrong height is invalid and dropped.
    if (b->header.height != parent->second.block->header.height + 1) {
      ++invalid_blocks_;
      continue;
    }
    uint64_t cw = parent->second.cumulative_weight + b->header.weight;
    stored_bytes_ += b->SizeBytes();
    entries_.emplace(h, Entry{std::move(b), cw});

    if (cw > entries_.at(head_).cumulative_weight) head_ = h;

    auto waiting = orphans_.find(h);
    if (waiting != orphans_.end()) {
      for (auto& w : waiting->second) {
        --orphan_buffer_count_;
        // Re-added above if it attaches; an invalid/duplicate orphan
        // really is released, so the subtraction stands.
        stored_bytes_ -= w->SizeBytes();
        to_attach.push_back(std::move(w));
      }
      orphans_.erase(waiting);
    }
  }
}

void ChainStore::UpdateCanonical() {
  uint64_t height = HeightOf(head_);
  canonical_.resize(height + 1);
  Hash256 cur = head_;
  while (true) {
    uint64_t h = HeightOf(cur);
    if (h < canonical_.size() && canonical_[h] == cur) break;
    canonical_[h] = cur;
    if (h == 0) break;
    cur = entries_.at(cur).block->header.parent;
  }
}

const Block* ChainStore::CanonicalAt(uint64_t height) const {
  if (height >= canonical_.size()) return nullptr;
  return GetBlock(canonical_[height]);
}

BlockPtr ChainStore::CanonicalAtPtr(uint64_t height) const {
  if (height >= canonical_.size()) return nullptr;
  return GetBlockPtr(canonical_[height]);
}

std::vector<const Block*> ChainStore::CanonicalRange(
    uint64_t from_exclusive, uint64_t to_inclusive) const {
  std::vector<const Block*> out;
  uint64_t to = std::min<uint64_t>(to_inclusive, canonical_.size() - 1);
  for (uint64_t h = from_exclusive + 1; h <= to; ++h) {
    out.push_back(GetBlock(canonical_[h]));
  }
  return out;
}

std::vector<BlockPtr> ChainStore::CanonicalRangePtr(
    uint64_t from_exclusive, uint64_t to_inclusive) const {
  std::vector<BlockPtr> out;
  uint64_t to = std::min<uint64_t>(to_inclusive, canonical_.size() - 1);
  for (uint64_t h = from_exclusive + 1; h <= to; ++h) {
    out.push_back(GetBlockPtr(canonical_[h]));
  }
  return out;
}

bool ChainStore::IsCanonical(const Hash256& hash) const {
  auto it = entries_.find(hash);
  if (it == entries_.end()) return false;
  uint64_t h = it->second.block->header.height;
  return h < canonical_.size() && canonical_[h] == hash;
}

}  // namespace bb::chain
