#include "chain/txpool.h"

namespace bb::chain {

uint32_t TxPool::AllocSlot(TxPtr tx) {
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = uint32_t(slots_.size());
    slots_.emplace_back();
    slot_ids_.push_back(0);
    slot_sizes_.push_back(0);
    slot_live_.push_back(0);
  }
  slot_ids_[slot] = tx->id;
  slot_sizes_[slot] = uint32_t(tx->SizeBytes());
  slot_live_[slot] = 1;
  slot_bytes_ += slot_sizes_[slot];
  slots_[slot] = std::move(tx);
  return slot;
}

// Only called once the slot's order_ entry has been removed; until then a
// recycled slot could alias the stale entry.
void TxPool::FreeSlot(uint32_t slot) {
  slots_[slot].reset();  // drop this pool's reference
  slot_bytes_ -= slot_sizes_[slot];
  free_slots_.push_back(slot);
}

void TxPool::Admit(TxPtr tx) {
  const uint64_t id = tx->id;
  uint32_t slot = AllocSlot(std::move(tx));
  in_queue_.Put(id, slot);
  order_.push_back(slot);
  ++live_;
}

bool TxPool::Add(TxPtr tx) {
  // Queue membership first: it matters only when the dedup window is
  // smaller than the pending queue, since a pending id that fell out of
  // the window must still not be admitted twice. Then one window probe
  // both tests and records the id.
  if (in_queue_.Find(tx->id) != nullptr || !seen_.Insert(tx->id)) {
    return false;
  }
  Admit(std::move(tx));
  return true;
}

std::vector<TxPtr> TxPool::TakeBatch(size_t max_count, size_t max_bytes,
                                     bool lifo) {
  std::vector<TxPtr> batch;
  size_t bytes = 0;
  while (live_ > 0 && batch.size() < max_count) {
    uint32_t slot = lifo ? order_.back() : order_.front();
    if (!slot_live_[slot]) {
      // Lazily-deleted entry: purge it and keep scanning.
      if (lifo) order_.pop_back(); else order_.pop_front();
      FreeSlot(slot);
      continue;
    }
    size_t tx_bytes = slot_sizes_[slot];
    if (max_bytes != 0 && !batch.empty() && bytes + tx_bytes > max_bytes) {
      break;
    }
    bytes += tx_bytes;
    in_queue_.Erase(slot_ids_[slot]);
    batch.push_back(std::move(slots_[slot]));
    slot_live_[slot] = 0;
    --live_;
    if (lifo) order_.pop_back(); else order_.pop_front();
    FreeSlot(slot);
  }
  return batch;
}

void TxPool::RemoveCommitted(const std::vector<TxPtr>& txs) {
  for (const auto& tx : txs) {
    seen_.Insert(tx->id);  // gossip may deliver the block before the tx
    if (const uint32_t* slot = in_queue_.Find(tx->id)) {
      slot_live_[*slot] = 0;
      --live_;
      in_queue_.Erase(tx->id);
    }
  }
  MaybeCompact();
}

void TxPool::Requeue(const std::vector<TxPtr>& txs) {
  for (const auto& tx : txs) {
    if (in_queue_.Find(tx->id) != nullptr) continue;
    Admit(tx);
  }
}

void TxPool::MaybeCompact() {
  size_t dead = order_.size() - live_;
  if (dead <= live_ + 64) return;
  std::deque<uint32_t> kept;
  for (uint32_t slot : order_) {
    if (slot_live_[slot]) {
      kept.push_back(slot);
    } else {
      FreeSlot(slot);
    }
  }
  order_ = std::move(kept);
}

}  // namespace bb::chain
