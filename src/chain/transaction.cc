#include "chain/transaction.h"

#include "obs/profiler.h"
#include "util/codec.h"

namespace bb::chain {

namespace {
// ECDSA signature + pubkey recovery envelope, as on Ethereum wire txs.
constexpr size_t kSignatureEnvelopeBytes = 97;
}  // namespace

std::string Transaction::Serialize() const {
  std::string out;
  PutFixed64(&out, id);
  PutLengthPrefixed(&out, sender);
  PutLengthPrefixed(&out, contract);
  PutLengthPrefixed(&out, function);
  PutFixed64(&out, uint64_t(value));
  PutVarint64(&out, args.size());
  for (const auto& a : args) PutLengthPrefixed(&out, a.Serialize());
  return out;
}

Result<Transaction> Transaction::Deserialize(Slice data) {
  Transaction tx;
  uint64_t v = 0;
  BB_RETURN_IF_ERROR(GetFixed64(&data, &tx.id));
  BB_RETURN_IF_ERROR(GetLengthPrefixed(&data, &tx.sender));
  BB_RETURN_IF_ERROR(GetLengthPrefixed(&data, &tx.contract));
  BB_RETURN_IF_ERROR(GetLengthPrefixed(&data, &tx.function));
  BB_RETURN_IF_ERROR(GetFixed64(&data, &v));
  tx.value = int64_t(v);
  uint64_t nargs = 0;
  BB_RETURN_IF_ERROR(GetVarint64(&data, &nargs));
  for (uint64_t i = 0; i < nargs; ++i) {
    std::string enc;
    BB_RETURN_IF_ERROR(GetLengthPrefixed(&data, &enc));
    auto val = vm::Value::Deserialize(enc);
    if (!val.ok()) return val.status();
    tx.args.push_back(std::move(*val));
  }
  tx.Seal();
  return tx;
}

void Transaction::Seal() {
  BB_PROF_SCOPE("hash.tx_seal");
  const std::string buf = Serialize();
  hash_ = Sha256::Digest(buf);
  size_ = buf.size() + kSignatureEnvelopeBytes;
}

}  // namespace bb::chain
