#include "storage/bucket_tree.h"

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

// Both mutators touch the digests only after the store accepted the
// write, so a refused write (MemKv capacity) leaves them describing what
// the store still holds.
Status BucketMerkleTree::Put(Slice key, Slice value) {
  std::string old;
  Status s = store_->Get(key, &old);
  if (!s.ok() && !s.IsNotFound()) return s;
  BB_RETURN_IF_ERROR(store_->Put(key, value));
  Hash256& bucket = buckets_[BucketOf(key)];
  if (s.ok()) DigestSub(&bucket, EntryDigest(key, old));
  DigestAdd(&bucket, EntryDigest(key, value));
  dirty_ = true;
  ++updates_;
  return Status::Ok();
}

Status BucketMerkleTree::Get(Slice key, std::string* value) const {
  return store_->Get(key, value);
}

Status BucketMerkleTree::Delete(Slice key) {
  std::string old;
  BB_RETURN_IF_ERROR(store_->Get(key, &old));
  BB_RETURN_IF_ERROR(store_->Delete(key));
  DigestSub(&buckets_[BucketOf(key)], EntryDigest(key, old));
  dirty_ = true;
  ++updates_;
  return Status::Ok();
}

Hash256 BucketMerkleTree::RootHash() {
  if (dirty_) {
    root_ = MerkleTree(buckets_).root();
    dirty_ = false;
  }
  return root_;
}

}  // namespace bb::storage
