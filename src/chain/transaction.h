// Transaction: a signed request to invoke a contract function.

#ifndef BLOCKBENCH_CHAIN_TRANSACTION_H_
#define BLOCKBENCH_CHAIN_TRANSACTION_H_

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/sha256.h"
#include "vm/value.h"

namespace bb::chain {

/// A transaction is assembled mutably, sealed (Seal) and stamped with
/// its submit_time, then frozen behind a TxPtr (Share). From there one
/// object travels by reference: the client's outstanding set, the
/// submission and gossip messages, every replica's pool and the block.
struct Transaction {
  /// Client-assigned unique id (stands in for the tx hash handed back by
  /// the JSON-RPC submit call).
  uint64_t id = 0;
  std::string sender;
  /// Target contract address/name. Empty = plain value transfer.
  std::string contract;
  std::string function;
  vm::Args args;
  /// Currency attached to the call.
  int64_t value = 0;
  /// Virtual time at which the client submitted it (for latency stats).
  double submit_time = 0;

  /// Canonical byte encoding (deterministic; used for hashing and the
  /// transaction Merkle root). Excludes submit_time, so latency restamping
  /// never changes the hash.
  std::string Serialize() const;
  /// Decodes and seals.
  static Result<Transaction> Deserialize(Slice data);

  /// Computes the hash and wire size from one serialization. Call once
  /// every serialized field is final; copies carry the sealed values.
  void Seal();

  /// Content hash computed by Seal().
  Hash256 HashOf() const {
    assert(size_ != 0 && "transaction not sealed");
    return hash_;
  }
  /// Wire size computed by Seal(): serialized payload plus a signature
  /// envelope.
  size_t SizeBytes() const {
    assert(size_ != 0 && "transaction not sealed");
    return size_;
  }

 private:
  Hash256 hash_;
  size_t size_ = 0;
};

/// Shared immutable transaction handle, the unit of admission, gossip
/// and block assembly.
using TxPtr = std::shared_ptr<const Transaction>;

/// Freezes a sealed, stamped transaction behind a TxPtr. Nothing changes
/// it afterwards; a resubmission shares a fresh copy.
inline TxPtr Share(Transaction tx) {
  return std::make_shared<const Transaction>(std::move(tx));
}

}  // namespace bb::chain

#endif  // BLOCKBENCH_CHAIN_TRANSACTION_H_
