#include "storage/bucket_tree.h"

#include <cassert>

#include "storage/merkle_tree.h"

namespace bb::storage {

namespace {
Hash256 EntryDigest(Slice key, Slice value) {
  Sha256 h;
  uint8_t klen[4] = {uint8_t(key.size() >> 24), uint8_t(key.size() >> 16),
                     uint8_t(key.size() >> 8), uint8_t(key.size())};
  h.Update(klen, 4);  // length-prefix so (k,v) boundaries are unambiguous
  h.Update(key);
  h.Update(value);
  return h.Finish();
}
}  // namespace

BucketMerkleTree::BucketMerkleTree(KvStore* store, size_t num_buckets)
    : store_(store), buckets_(num_buckets) {}

size_t BucketMerkleTree::BucketOf(Slice key) const {
  return size_t(Sha256::Digest(key).Prefix64() % buckets_.size());
}

void BucketMerkleTree::DigestAdd(Hash256* acc, const Hash256& h) {
  // Addition mod 2^256, little-endian over the byte array.
  unsigned carry = 0;
  for (int i = 31; i >= 0; --i) {
    unsigned sum = unsigned(acc->bytes[i]) + unsigned(h.bytes[i]) + carry;
    acc->bytes[i] = uint8_t(sum & 0xff);
    carry = sum >> 8;
  }
}

void BucketMerkleTree::DigestSub(Hash256* acc, const Hash256& h) {
  unsigned borrow = 0;
  for (int i = 31; i >= 0; --i) {
    int diff = int(acc->bytes[i]) - int(h.bytes[i]) - int(borrow);
    if (diff < 0) {
      diff += 256;
      borrow = 1;
    } else {
      borrow = 0;
    }
    acc->bytes[i] = uint8_t(diff);
  }
}

// The mutators touch the digests only after the store accepted the
// write, so a refused write (MemKv capacity) leaves them describing what
// the store still holds.
Status BucketMerkleTree::Put(Slice key, Slice value) {
  Status s = store_->Get(key, &old_);
  if (!s.ok() && !s.IsNotFound()) return s;
  BB_RETURN_IF_ERROR(store_->Put(key, value));
  Hash256 delta = EntryDigest(key, value);
  if (s.ok()) DigestSub(&delta, EntryDigest(key, old_));
  Applied({uint32_t(BucketOf(key)), delta});
  return Status::Ok();
}

Status BucketMerkleTree::Get(Slice key, std::string* value) const {
  return store_->Get(key, value);
}

Status BucketMerkleTree::Delete(Slice key) {
  Status s = store_->Get(key, &old_);
  if (s.IsNotFound() && delta_log_ != nullptr) {
    delta_log_->push_back({0, Hash256::Zero()});
  }
  BB_RETURN_IF_ERROR(s);
  BB_RETURN_IF_ERROR(store_->Delete(key));
  Hash256 delta = Hash256::Zero();
  DigestSub(&delta, EntryDigest(key, old_));
  Applied({uint32_t(BucketOf(key)), delta});
  return Status::Ok();
}

Status BucketMerkleTree::ReplayPut(Slice key, Slice value,
                                   const Delta& delta) {
  BB_RETURN_IF_ERROR(store_->Put(key, value));
  Applied(delta);
  return Status::Ok();
}

Status BucketMerkleTree::ReplayDelete(Slice key, const Delta& delta) {
  BB_RETURN_IF_ERROR(store_->Delete(key));
  Applied(delta);
  return Status::Ok();
}

void BucketMerkleTree::Applied(const Delta& delta) {
  DigestAdd(&buckets_[delta.bucket], delta.digest);
  dirty_ = true;
  ++updates_;
  if (delta_log_ != nullptr) delta_log_->push_back(delta);
}

Hash256 BucketMerkleTree::RootHash() {
  if (dirty_) {
    root_ = MerkleTree(buckets_).root();
    dirty_ = false;
  }
  return root_;
}

void BucketMerkleTree::AdoptRoot(const Hash256& root) {
  root_ = root;
  dirty_ = false;
  assert(root_ == MerkleTree(buckets_).root());
}

}  // namespace bb::storage
