// DiskKv: a log-structured persistent KvStore (append log + in-memory hash
// index + garbage-triggered compaction), standing in for LevelDB/RocksDB
// under the Ethereum and Hyperledger platform models.
//
// It does real file I/O so the IOHeavy experiment measures genuine disk
// behaviour, and it reports file bytes for the disk-usage series (Fig 12c).

#ifndef BLOCKBENCH_STORAGE_DISKKV_H_
#define BLOCKBENCH_STORAGE_DISKKV_H_

#include <cstdio>
#include <string>

#include "storage/kvstore.h"

namespace bb::storage {

struct DiskKvOptions {
  /// Compaction runs when garbage bytes exceed this fraction of the log.
  double compaction_garbage_ratio = 0.5;
  /// Minimum log size before compaction is considered.
  uint64_t compaction_min_bytes = 4 << 20;
  /// fflush after every write (true models write-through durability).
  bool flush_every_write = false;
  /// false = recover from an existing log (rebuild the index by scanning
  /// records); true = start fresh.
  bool truncate = true;
};

class DiskKv : public KvStore {
 public:
  /// Opens the store backed by `path` (a single log file). With
  /// options.truncate=false an existing log is scanned to rebuild the
  /// index (crash recovery); a trailing partial record is discarded.
  static Result<std::unique_ptr<DiskKv>> Open(const std::string& path,
                                              DiskKvOptions options = {});
  ~DiskKv() override;

  DiskKv(const DiskKv&) = delete;
  DiskKv& operator=(const DiskKv&) = delete;

  Status Put(Slice key, Slice value) override;
  Status Get(Slice key, std::string* value) const override;
  Status Delete(Slice key) override;
  void Scan(
      const std::function<bool(Slice key, Slice value)>& fn) const override;

  size_t num_entries() const override { return index_.size(); }
  uint64_t size_bytes() const override { return log_bytes_; }
  uint64_t live_bytes() const override { return live_bytes_; }
  uint64_t garbage_bytes() const { return log_bytes_ - live_record_bytes_; }
  int compactions_run() const { return compactions_run_; }

  /// Rewrites the log keeping only live records. Public for tests.
  Status Compact();

 private:
  /// Rebuilds the index by scanning the log from the start.
  Status Recover();

  struct Entry {
    uint64_t offset;
    uint32_t record_len;  // full record incl. header
    uint32_t value_len;
    uint32_t value_offset_in_record;
  };

  DiskKv(std::string path, DiskKvOptions options)
      : path_(std::move(path)), options_(options) {}

  Status AppendRecord(Slice key, Slice value, bool tombstone, Entry* entry);
  void MaybeCompact();

  std::string path_;
  DiskKvOptions options_;
  std::FILE* file_ = nullptr;
  KeyMap<Entry> index_;
  uint64_t log_bytes_ = 0;
  uint64_t live_bytes_ = 0;         // key+value payload of live entries
  uint64_t live_record_bytes_ = 0;  // on-disk bytes of live records
  int compactions_run_ = 0;
};

}  // namespace bb::storage

#endif  // BLOCKBENCH_STORAGE_DISKKV_H_
