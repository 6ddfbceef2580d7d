// Transaction: a signed request to invoke a contract function.

#ifndef BLOCKBENCH_CHAIN_TRANSACTION_H_
#define BLOCKBENCH_CHAIN_TRANSACTION_H_

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

#include "util/sha256.h"
#include "vm/value.h"

namespace bb::chain {

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

}  // namespace bb::chain

#endif  // BLOCKBENCH_CHAIN_TRANSACTION_H_
