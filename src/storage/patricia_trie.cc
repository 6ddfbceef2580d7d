#include "storage/patricia_trie.h"

#include <cassert>

#include "util/codec.h"

namespace bb::storage {

namespace {

Slice HashSlice(const Hash256& h) {
  return Slice(reinterpret_cast<const char*>(h.bytes.data()), 32);
}

size_t CommonPrefix(Slice a, Slice b) {
  size_t n = std::min(a.size(), b.size());
  size_t i = 0;
  while (i < n && a[i] == b[i]) ++i;
  return i;
}

}  // namespace

std::string MerklePatriciaTrie::ToNibbles(Slice key) {
  std::string out;
  out.reserve(key.size() * 2);
  for (size_t i = 0; i < key.size(); ++i) {
    uint8_t b = uint8_t(key[i]);
    out.push_back(char(b >> 4));
    out.push_back(char(b & 0xf));
  }
  return out;
}

std::string MerklePatriciaTrie::Encode(const Node& n) {
  std::string out;
  out.push_back(char(n.kind));
  switch (n.kind) {
    case Node::kLeaf:
      PutLengthPrefixed(&out, n.path);
      PutLengthPrefixed(&out, n.value);
      break;
    case Node::kExtension:
      PutLengthPrefixed(&out, n.path);
      out.append(HashSlice(n.child).data(), 32);
      break;
    case Node::kBranch: {
      uint32_t mask = 0;
      for (int i = 0; i < 16; ++i) {
        if (!n.children[i].IsZero()) mask |= (1u << i);
      }
      if (n.has_value) mask |= (1u << 16);
      PutFixed32(&out, mask);
      for (int i = 0; i < 16; ++i) {
        if (!n.children[i].IsZero()) {
          out.append(HashSlice(n.children[i]).data(), 32);
        }
      }
      if (n.has_value) PutLengthPrefixed(&out, n.value);
      break;
    }
  }
  return out;
}

Status MerklePatriciaTrie::Decode(Slice data, Node* n) {
  if (data.empty()) return Status::Corruption("empty trie node");
  uint8_t kind = uint8_t(data[0]);
  data.remove_prefix(1);
  *n = Node{};
  switch (kind) {
    case Node::kLeaf: {
      n->kind = Node::kLeaf;
      BB_RETURN_IF_ERROR(GetLengthPrefixed(&data, &n->path));
      BB_RETURN_IF_ERROR(GetLengthPrefixed(&data, &n->value));
      return Status::Ok();
    }
    case Node::kExtension: {
      n->kind = Node::kExtension;
      BB_RETURN_IF_ERROR(GetLengthPrefixed(&data, &n->path));
      if (data.size() < 32) return Status::Corruption("truncated ext child");
      std::memcpy(n->child.bytes.data(), data.data(), 32);
      return Status::Ok();
    }
    case Node::kBranch: {
      n->kind = Node::kBranch;
      uint32_t mask;
      BB_RETURN_IF_ERROR(GetFixed32(&data, &mask));
      for (int i = 0; i < 16; ++i) {
        if (mask & (1u << i)) {
          if (data.size() < 32) return Status::Corruption("truncated branch");
          std::memcpy(n->children[i].bytes.data(), data.data(), 32);
          data.remove_prefix(32);
        }
      }
      if (mask & (1u << 16)) {
        n->has_value = true;
        BB_RETURN_IF_ERROR(GetLengthPrefixed(&data, &n->value));
      }
      return Status::Ok();
    }
    default:
      return Status::Corruption("bad trie node kind");
  }
}

void MerklePatriciaTrie::CachePut(const Hash256& h, const Node& n) const {
  if (cache_capacity_ == 0) return;
  if (cache_.size() >= cache_capacity_ && !cache_order_.empty()) {
    cache_.erase(cache_order_.front());
    cache_order_.pop_front();
  }
  auto [it, inserted] = cache_.emplace(h, n);
  (void)it;
  if (inserted) cache_order_.push_back(h);
}

bool MerklePatriciaTrie::CacheGet(const Hash256& h, Node* n) const {
  auto it = cache_.find(h);
  if (it == cache_.end()) return false;
  *n = it->second;
  return true;
}

Hash256 MerklePatriciaTrie::Store(const Node& n) {
  std::string enc = Encode(n);
  Hash256 h = Sha256::Digest(enc);
  Status s = nodes_->Put(HashSlice(h), enc);
  if (!s.ok() && store_error_.ok()) {
    // Sticky: surfaced by Put/Delete so a full store (Parity's memory
    // cap) fails the whole operation instead of corrupting the trie.
    store_error_ = s;
  }
  ++stats_.node_writes;
  stats_.bytes_written += enc.size() + 32;
  CachePut(h, n);
  return h;
}

Status MerklePatriciaTrie::Load(const Hash256& h, Node* n) const {
  ++stats_.node_reads;
  if (cache_capacity_ > 0) {
    if (CacheGet(h, n)) {
      ++stats_.cache_hits;
      return Status::Ok();
    }
    ++stats_.cache_misses;
  }
  std::string enc;
  BB_RETURN_IF_ERROR(nodes_->Get(HashSlice(h), &enc));
  BB_RETURN_IF_ERROR(Decode(enc, n));
  CachePut(h, *n);
  return Status::Ok();
}

Result<Hash256> MerklePatriciaTrie::Put(const Hash256& root, Slice key,
                                        Slice value) {
  std::string nibbles = ToNibbles(key);
  store_error_ = Status::Ok();
  auto r = Insert(root, nibbles, value);
  if (r.ok() && !store_error_.ok()) return store_error_;
  return r;
}

Result<Hash256> MerklePatriciaTrie::Insert(const Hash256& node_hash,
                                           Slice nibbles, Slice value) {
  if (node_hash.IsZero()) {
    Node leaf;
    leaf.kind = Node::kLeaf;
    leaf.path = nibbles.ToString();
    leaf.value = value.ToString();
    return Store(leaf);
  }

  Node n;
  BB_RETURN_IF_ERROR(Load(node_hash, &n));

  switch (n.kind) {
    case Node::kLeaf: {
      Slice existing(n.path);
      size_t cp = CommonPrefix(existing, nibbles);
      if (cp == existing.size() && cp == nibbles.size()) {
        n.value = value.ToString();
        return Store(n);
      }
      // Split: branch at the divergence point.
      Node branch;
      branch.kind = Node::kBranch;
      // Existing leaf's remainder.
      if (cp == existing.size()) {
        branch.has_value = true;
        branch.value = n.value;
      } else {
        Node child;
        child.kind = Node::kLeaf;
        child.path = existing.ToString().substr(cp + 1);
        child.value = n.value;
        branch.children[uint8_t(existing[cp])] = Store(child);
      }
      // New key's remainder.
      if (cp == nibbles.size()) {
        branch.has_value = true;
        branch.value = value.ToString();
      } else {
        Node child;
        child.kind = Node::kLeaf;
        child.path = nibbles.ToString().substr(cp + 1);
        child.value = value.ToString();
        branch.children[uint8_t(nibbles[cp])] = Store(child);
      }
      Hash256 branch_hash = Store(branch);
      if (cp > 0) {
        Node ext;
        ext.kind = Node::kExtension;
        ext.path = nibbles.ToString().substr(0, cp);
        ext.child = branch_hash;
        return Store(ext);
      }
      return branch_hash;
    }

    case Node::kExtension: {
      Slice existing(n.path);
      size_t cp = CommonPrefix(existing, nibbles);
      if (cp == existing.size()) {
        Slice rest = nibbles;
        rest.remove_prefix(cp);
        auto child = Insert(n.child, rest, value);
        if (!child.ok()) return child.status();
        n.child = *child;
        return Store(n);
      }
      // Split the extension path.
      Node branch;
      branch.kind = Node::kBranch;
      {
        // Remainder of the extension beyond the branch slot.
        std::string ext_rest = existing.ToString().substr(cp + 1);
        Hash256 sub;
        if (ext_rest.empty()) {
          sub = n.child;
        } else {
          Node sub_ext;
          sub_ext.kind = Node::kExtension;
          sub_ext.path = ext_rest;
          sub_ext.child = n.child;
          sub = Store(sub_ext);
        }
        branch.children[uint8_t(existing[cp])] = sub;
      }
      if (cp == nibbles.size()) {
        branch.has_value = true;
        branch.value = value.ToString();
      } else {
        Node leaf;
        leaf.kind = Node::kLeaf;
        leaf.path = nibbles.ToString().substr(cp + 1);
        leaf.value = value.ToString();
        branch.children[uint8_t(nibbles[cp])] = Store(leaf);
      }
      Hash256 branch_hash = Store(branch);
      if (cp > 0) {
        Node ext;
        ext.kind = Node::kExtension;
        ext.path = nibbles.ToString().substr(0, cp);
        ext.child = branch_hash;
        return Store(ext);
      }
      return branch_hash;
    }

    case Node::kBranch: {
      if (nibbles.empty()) {
        n.has_value = true;
        n.value = value.ToString();
        return Store(n);
      }
      uint8_t idx = uint8_t(nibbles[0]);
      Slice rest = nibbles;
      rest.remove_prefix(1);
      auto child = Insert(n.children[idx], rest, value);
      if (!child.ok()) return child.status();
      n.children[idx] = *child;
      return Store(n);
    }
  }
  return Status::Internal("unreachable");
}

Status MerklePatriciaTrie::Get(const Hash256& root, Slice key,
                               std::string* value) const {
  std::string nibbles_storage = ToNibbles(key);
  Slice nibbles(nibbles_storage);
  Hash256 cur = root;
  while (true) {
    if (cur.IsZero()) return Status::NotFound();
    Node n;
    BB_RETURN_IF_ERROR(Load(cur, &n));
    switch (n.kind) {
      case Node::kLeaf:
        if (Slice(n.path) == nibbles) {
          *value = n.value;
          return Status::Ok();
        }
        return Status::NotFound();
      case Node::kExtension:
        if (!nibbles.starts_with(n.path)) return Status::NotFound();
        nibbles.remove_prefix(n.path.size());
        cur = n.child;
        break;
      case Node::kBranch:
        if (nibbles.empty()) {
          if (!n.has_value) return Status::NotFound();
          *value = n.value;
          return Status::Ok();
        }
        cur = n.children[uint8_t(nibbles[0])];
        nibbles.remove_prefix(1);
        break;
    }
  }
}

Result<Hash256> MerklePatriciaTrie::PrependPath(
    const std::string& nibble_prefix, const Hash256& h) {
  if (nibble_prefix.empty()) return h;
  Node n;
  BB_RETURN_IF_ERROR(Load(h, &n));
  if (n.kind == Node::kLeaf || n.kind == Node::kExtension) {
    n.path = nibble_prefix + n.path;
    return Store(n);
  }
  Node ext;
  ext.kind = Node::kExtension;
  ext.path = nibble_prefix;
  ext.child = h;
  return Store(ext);
}

Result<Hash256> MerklePatriciaTrie::NormalizeBranch(Node branch) {
  int child_count = 0;
  int only_idx = -1;
  for (int i = 0; i < 16; ++i) {
    if (!branch.children[i].IsZero()) {
      ++child_count;
      only_idx = i;
    }
  }
  if (child_count == 0 && !branch.has_value) {
    return Hash256::Zero();
  }
  if (child_count == 0 && branch.has_value) {
    Node leaf;
    leaf.kind = Node::kLeaf;
    leaf.path.clear();
    leaf.value = branch.value;
    return Store(leaf);
  }
  if (child_count == 1 && !branch.has_value) {
    // Collapse into the single child, prefixing its slot nibble.
    std::string prefix(1, char(only_idx));
    return PrependPath(prefix, branch.children[only_idx]);
  }
  return Store(branch);
}

Result<Hash256> MerklePatriciaTrie::Delete(const Hash256& root, Slice key) {
  std::string nibbles = ToNibbles(key);
  store_error_ = Status::Ok();
  bool deleted = false;
  auto r = Remove(root, nibbles, &deleted);
  if (!r.ok()) return r.status();
  if (!store_error_.ok()) return store_error_;
  if (!deleted) return Status::NotFound();
  return *r;
}

Result<Hash256> MerklePatriciaTrie::Remove(const Hash256& node_hash,
                                           Slice nibbles, bool* deleted) {
  if (node_hash.IsZero()) {
    *deleted = false;
    return node_hash;
  }
  Node n;
  BB_RETURN_IF_ERROR(Load(node_hash, &n));

  switch (n.kind) {
    case Node::kLeaf:
      if (Slice(n.path) == nibbles) {
        *deleted = true;
        return Hash256::Zero();
      }
      *deleted = false;
      return node_hash;

    case Node::kExtension: {
      if (!nibbles.starts_with(n.path)) {
        *deleted = false;
        return node_hash;
      }
      Slice rest = nibbles;
      rest.remove_prefix(n.path.size());
      auto child = Remove(n.child, rest, deleted);
      if (!child.ok()) return child.status();
      if (!*deleted) return node_hash;
      if (child->IsZero()) return Hash256::Zero();
      // Merge the extension path back onto the (possibly collapsed) child.
      return PrependPath(n.path, *child);
    }

    case Node::kBranch: {
      if (nibbles.empty()) {
        if (!n.has_value) {
          *deleted = false;
          return node_hash;
        }
        *deleted = true;
        n.has_value = false;
        n.value.clear();
        return NormalizeBranch(std::move(n));
      }
      uint8_t idx = uint8_t(nibbles[0]);
      Slice rest = nibbles;
      rest.remove_prefix(1);
      auto child = Remove(n.children[idx], rest, deleted);
      if (!child.ok()) return child.status();
      if (!*deleted) return node_hash;
      n.children[idx] = *child;
      return NormalizeBranch(std::move(n));
    }
  }
  return Status::Internal("unreachable");
}

Result<std::vector<std::string>> MerklePatriciaTrie::Prove(
    const Hash256& root, Slice key) const {
  std::vector<std::string> proof;
  std::string nibbles_storage = ToNibbles(key);
  Slice nibbles(nibbles_storage);
  Hash256 cur = root;
  while (true) {
    if (cur.IsZero()) return Status::NotFound();
    std::string enc;
    BB_RETURN_IF_ERROR(
        nodes_->Get(Slice(reinterpret_cast<const char*>(cur.bytes.data()), 32),
                    &enc));
    Node n;
    BB_RETURN_IF_ERROR(Decode(enc, &n));
    proof.push_back(enc);
    switch (n.kind) {
      case Node::kLeaf:
        if (Slice(n.path) == nibbles) return proof;
        return Status::NotFound();
      case Node::kExtension:
        if (!nibbles.starts_with(n.path)) return Status::NotFound();
        nibbles.remove_prefix(n.path.size());
        cur = n.child;
        break;
      case Node::kBranch:
        if (nibbles.empty()) {
          if (!n.has_value) return Status::NotFound();
          return proof;
        }
        cur = n.children[uint8_t(nibbles[0])];
        nibbles.remove_prefix(1);
        break;
    }
  }
}

bool MerklePatriciaTrie::VerifyProof(const Hash256& root_hash, Slice key,
                                     Slice value,
                                     const std::vector<std::string>& proof) {
  if (proof.empty()) return false;
  std::string nibbles_storage = ToNibbles(key);
  Slice nibbles(nibbles_storage);
  Hash256 expected = root_hash;
  for (size_t i = 0; i < proof.size(); ++i) {
    // The node's content hash must match the pointer we followed.
    if (Sha256::Digest(proof[i]) != expected) return false;
    Node n;
    if (!Decode(proof[i], &n).ok()) return false;
    bool is_last = (i + 1 == proof.size());
    switch (n.kind) {
      case Node::kLeaf:
        return is_last && Slice(n.path) == nibbles &&
               Slice(n.value) == value;
      case Node::kExtension:
        if (is_last || !nibbles.starts_with(n.path)) return false;
        nibbles.remove_prefix(n.path.size());
        expected = n.child;
        break;
      case Node::kBranch:
        if (nibbles.empty()) {
          return is_last && n.has_value && Slice(n.value) == value;
        }
        if (is_last) return false;
        expected = n.children[uint8_t(nibbles[0])];
        nibbles.remove_prefix(1);
        break;
    }
  }
  return false;
}

}  // namespace bb::storage
