#include "storage/diskkv.h"

#include <cassert>
#include <cstring>

#include "util/codec.h"

namespace bb::storage {

namespace {
// Record layout: varint(key_len) varint(value_len_or_tombstone) key value
// where value_len_or_tombstone = 2*value_len | tombstone_bit.
std::string EncodeHeader(Slice key, Slice value, bool tombstone) {
  std::string h;
  PutVarint64(&h, key.size());
  PutVarint64(&h, (uint64_t(value.size()) << 1) | (tombstone ? 1 : 0));
  return h;
}
}  // namespace

Result<std::unique_ptr<DiskKv>> DiskKv::Open(const std::string& path,
                                             DiskKvOptions options) {
  std::unique_ptr<DiskKv> kv(new DiskKv(path, options));
  if (options.truncate) {
    kv->file_ = std::fopen(path.c_str(), "w+b");
  } else {
    kv->file_ = std::fopen(path.c_str(), "r+b");
    if (kv->file_ == nullptr) {
      kv->file_ = std::fopen(path.c_str(), "w+b");  // fresh store
    } else {
      Status s = kv->Recover();
      if (!s.ok()) return s;
    }
  }
  if (kv->file_ == nullptr) {
    return Status::Unavailable("cannot open " + path);
  }
  return kv;
}

Status DiskKv::Recover() {
  // Read the whole log; later records for a key supersede earlier ones,
  // replaying exactly the write order. A truncated tail (torn final
  // write) ends recovery at the last complete record.
  std::fseek(file_, 0, SEEK_END);
  long file_size = std::ftell(file_);
  if (file_size < 0) return Status::Unavailable("ftell failed");
  std::string log(size_t(file_size), '\0');
  std::fseek(file_, 0, SEEK_SET);
  if (file_size > 0 &&
      std::fread(log.data(), 1, size_t(file_size), file_) !=
          size_t(file_size)) {
    return Status::Unavailable("recovery read failed");
  }

  Slice input(log);
  uint64_t offset = 0;
  while (!input.empty()) {
    Slice record_start = input;
    uint64_t key_len = 0, vlen_tag = 0;
    if (!GetVarint64(&input, &key_len).ok() ||
        !GetVarint64(&input, &vlen_tag).ok()) {
      break;  // torn header
    }
    uint64_t value_len = vlen_tag >> 1;
    bool tombstone = (vlen_tag & 1) != 0;
    if (input.size() < key_len + value_len) break;  // torn payload
    std::string_view key(input.data(), key_len);
    input.remove_prefix(key_len + value_len);
    uint64_t header_len =
        uint64_t(record_start.size() - input.size()) - key_len - value_len;
    uint32_t record_len = uint32_t(header_len + key_len + value_len);

    auto it = index_.find(key);
    if (it != index_.end()) {
      live_bytes_ -= key.size() + it->second.value_len;
      live_record_bytes_ -= it->second.record_len;
      index_.erase(it);
    }
    if (!tombstone) {
      Entry e;
      e.offset = offset;
      e.record_len = record_len;
      e.value_len = uint32_t(value_len);
      e.value_offset_in_record = uint32_t(header_len + key_len);
      index_.emplace(std::string(key), e);
      live_bytes_ += key_len + value_len;
      live_record_bytes_ += record_len;
    }
    offset += record_len;
  }
  log_bytes_ = offset;  // appends resume after the last complete record
  return Status::Ok();
}

DiskKv::~DiskKv() {
  if (file_ != nullptr) std::fclose(file_);
}

Status DiskKv::AppendRecord(Slice key, Slice value, bool tombstone,
                            Entry* entry) {
  std::string header = EncodeHeader(key, value, tombstone);
  uint64_t offset = log_bytes_;
  if (std::fseek(file_, long(offset), SEEK_SET) != 0) {
    return Status::Unavailable("seek failed");
  }
  if (std::fwrite(header.data(), 1, header.size(), file_) != header.size() ||
      std::fwrite(key.data(), 1, key.size(), file_) != key.size() ||
      std::fwrite(value.data(), 1, value.size(), file_) != value.size()) {
    return Status::Unavailable("write failed");
  }
  if (options_.flush_every_write) std::fflush(file_);
  uint32_t record_len = uint32_t(header.size() + key.size() + value.size());
  log_bytes_ += record_len;
  if (entry != nullptr) {
    entry->offset = offset;
    entry->record_len = record_len;
    entry->value_len = uint32_t(value.size());
    entry->value_offset_in_record = uint32_t(header.size() + key.size());
  }
  return Status::Ok();
}

Status DiskKv::Put(Slice key, Slice value) {
  Entry entry;
  BB_RETURN_IF_ERROR(AppendRecord(key, value, /*tombstone=*/false, &entry));
  auto it = index_.find(key.view());
  if (it != index_.end()) {
    live_bytes_ -= it->second.value_len;
    live_record_bytes_ -= it->second.record_len;
    it->second = entry;
  } else {
    live_bytes_ += key.size();
    index_.emplace(key.ToString(), entry);
  }
  live_bytes_ += value.size();
  live_record_bytes_ += entry.record_len;
  MaybeCompact();
  SyncMemGauge();
  return Status::Ok();
}

Status DiskKv::Get(Slice key, std::string* value) const {
  auto it = index_.find(key.view());
  if (it == index_.end()) return Status::NotFound();
  const Entry& e = it->second;
  value->resize(e.value_len);
  if (e.value_len == 0) return Status::Ok();
  if (std::fseek(file_, long(e.offset + e.value_offset_in_record), SEEK_SET) !=
      0) {
    return Status::Unavailable("seek failed");
  }
  if (std::fread(value->data(), 1, e.value_len, file_) != e.value_len) {
    return Status::Corruption("short read");
  }
  return Status::Ok();
}

Status DiskKv::Delete(Slice key) {
  auto it = index_.find(key.view());
  if (it == index_.end()) return Status::NotFound();
  BB_RETURN_IF_ERROR(AppendRecord(key, Slice(), /*tombstone=*/true, nullptr));
  live_bytes_ -= key.size() + it->second.value_len;
  live_record_bytes_ -= it->second.record_len;
  index_.erase(it);
  MaybeCompact();
  SyncMemGauge();
  return Status::Ok();
}

void DiskKv::Scan(
    const std::function<bool(Slice key, Slice value)>& fn) const {
  for (const auto& [k, e] : index_) {
    std::string v;
    if (!Get(k, &v).ok()) continue;
    if (!fn(k, v)) return;
  }
}

void DiskKv::MaybeCompact() {
  if (log_bytes_ < options_.compaction_min_bytes) return;
  if (double(garbage_bytes()) <
      options_.compaction_garbage_ratio * double(log_bytes_)) {
    return;
  }
  Compact();
}

Status DiskKv::Compact() {
  // Rewrite live records into a fresh log, then swap files.
  std::string tmp_path = path_ + ".compact";
  std::FILE* out = std::fopen(tmp_path.c_str(), "w+b");
  if (out == nullptr) return Status::Unavailable("cannot open compact file");

  KeyMap<Entry> new_index;
  new_index.reserve(index_.size());
  uint64_t new_log_bytes = 0;
  std::string value;
  for (const auto& [k, e] : index_) {
    Status s = Get(k, &value);
    if (!s.ok()) {
      std::fclose(out);
      std::remove(tmp_path.c_str());
      return s;
    }
    std::string header = EncodeHeader(k, value, false);
    Entry ne;
    ne.offset = new_log_bytes;
    ne.record_len = uint32_t(header.size() + k.size() + value.size());
    ne.value_len = uint32_t(value.size());
    ne.value_offset_in_record = uint32_t(header.size() + k.size());
    if (std::fwrite(header.data(), 1, header.size(), out) != header.size() ||
        std::fwrite(k.data(), 1, k.size(), out) != k.size() ||
        std::fwrite(value.data(), 1, value.size(), out) != value.size()) {
      std::fclose(out);
      std::remove(tmp_path.c_str());
      return Status::Unavailable("compaction write failed");
    }
    new_log_bytes += ne.record_len;
    new_index.emplace(k, ne);
  }
  std::fflush(out);
  std::fclose(std::exchange(file_, nullptr));
  std::fclose(out);
  if (std::rename(tmp_path.c_str(), path_.c_str()) != 0) {
    return Status::Unavailable("compaction rename failed");
  }
  file_ = std::fopen(path_.c_str(), "r+b");
  if (file_ == nullptr) return Status::Unavailable("reopen failed");
  index_ = std::move(new_index);
  log_bytes_ = new_log_bytes;
  live_record_bytes_ = new_log_bytes;
  ++compactions_run_;
  SyncMemGauge();
  return Status::Ok();
}

}  // namespace bb::storage
