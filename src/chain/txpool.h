// TxPool: a node's pending-transaction pool with id-based deduplication
// (transactions arrive both from clients and from peer gossip).
//
// Slots hold TxPtr handles: every replica's pool shares the one sealed
// transaction its admitting server gossiped, so admission, batching and
// requeueing move pointers, never payloads. Layout is struct-of-arrays:
// the handles live in a recycled slot vector while the hot metadata
// consulted by TakeBatch/RemoveCommitted — ids, wire sizes, liveness —
// sits in parallel flat arrays. Admission order is a deque of slot
// indices with lazy deletion: RemoveCommitted only flips a liveness bit,
// and dead entries are purged when the FIFO/LIFO cursor reaches them or
// when they outnumber the live ones. Observable behaviour (admission
// order, batch boundaries, dedup) is identical to the original
// deque-of-Transaction implementation.

#ifndef BLOCKBENCH_CHAIN_TXPOOL_H_
#define BLOCKBENCH_CHAIN_TXPOOL_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "chain/transaction.h"
#include "util/flat_id_table.h"

namespace bb::chain {

class TxPool {
 public:
  /// Adds a transaction; returns false if it was already seen (pending,
  /// or committed within the dedup window). The pool shares `tx`.
  bool Add(TxPtr tx);

  /// Takes up to max_count transactions whose sizes sum to at most
  /// max_bytes (0 = no byte limit). FIFO by default; lifo = true takes
  /// the most recently admitted first (Parity's effective ordering,
  /// which keeps commit latency low while old transactions starve).
  std::vector<TxPtr> TakeBatch(size_t max_count, size_t max_bytes = 0,
                               bool lifo = false);

  /// Removes committed transactions from the pending queue (e.g. when a
  /// peer's block wins) without forgetting their ids.
  void RemoveCommitted(const std::vector<TxPtr>& txs);

  /// Re-queues transactions (e.g. from an orphaned block).
  void Requeue(const std::vector<TxPtr>& txs);

  size_t pending() const { return live_; }
  /// Wire bytes resident in slots — includes committed-but-unpurged
  /// entries whose handles lazy deletion has not released yet. These are
  /// logical bytes: a transaction shared by N pools counts in each.
  uint64_t slot_bytes() const { return slot_bytes_; }
  bool Seen(uint64_t id) const { return seen_.Contains(id); }

  /// Dedup-window size (ids remembered per generation; two generations
  /// are kept, so an id is forgotten after between W and 2W newer ids).
  /// The default is large enough that a run has to commit over a million
  /// transactions before any id is recycled.
  size_t seen_window() const { return seen_.window(); }
  void set_seen_window(size_t window) { seen_.set_window(window); }

 private:
  uint32_t AllocSlot(TxPtr tx);
  void FreeSlot(uint32_t slot);
  void Admit(TxPtr tx);
  void MaybeCompact();

  std::vector<TxPtr> slots_;           // handles, indexed by slot
  std::vector<uint64_t> slot_ids_;     // parallel: tx id
  std::vector<uint32_t> slot_sizes_;   // parallel: cached wire size
  std::vector<uint8_t> slot_live_;     // parallel: still pending?
  std::vector<uint32_t> free_slots_;   // recyclable slots
  std::deque<uint32_t> order_;         // admission order (may hold dead)
  size_t live_ = 0;                    // live entries in order_
  uint64_t slot_bytes_ = 0;            // wire bytes of occupied slots
  util::FlatIdMap<uint32_t> in_queue_;  // id -> slot for pending txs
  // Bounded dedup of admitted and committed ids: two bitmap generations,
  // one bit per id while ids come in dense client runs.
  util::SeenIdWindow seen_;
};

}  // namespace bb::chain

#endif  // BLOCKBENCH_CHAIN_TXPOOL_H_
