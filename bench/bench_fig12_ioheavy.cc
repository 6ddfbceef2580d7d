// Figure 12: IOHeavy — bulk random writes then reads of 20-byte keys /
// 100-byte values through each platform's data model:
//   ethereum:    Patricia trie over a disk log, partial node cache
//   parity:      Patricia trie held entirely in (bounded) memory
//   hyperledger: flat keys + bucket-Merkle root over a disk log
//
// Reports write/read throughput (real ops/s) and storage usage. Paper
// shape: Eth and Parity burn an order of magnitude more space than
// Hyperledger (trie node amplification); Parity is fast but OOMs beyond
// ~3M states; Hyperledger stays efficient at scale. Default sizes are
// the paper's divided by 20 (pass --full for 0.8M..12.8M).

#include <chrono>
#include <cstdio>

#include "chain/state_db.h"
#include "common.h"
#include "storage/diskkv.h"
#include "storage/memkv.h"
#include "util/random.h"

using namespace bb;
using namespace bb::bench;

namespace {

std::string KeyFor(uint64_t i, Rng& rng) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "k%07llu%012llu",
                (unsigned long long)(i % 10'000'000),
                (unsigned long long)(rng.Next() % 1'000'000'000'000ULL));
  return std::string(buf, 20);
}

struct StackResult {
  bool oom = false;
  double write_ops_per_sec = 0;
  double read_ops_per_sec = 0;
  uint64_t storage_bytes = 0;
  uint64_t written = 0;
};

Result<StackResult> RunStack(const std::string& platform_name, uint64_t tuples,
                             const std::string& dir, uint64_t parity_mem_cap) {
  std::unique_ptr<storage::KvStore> store;
  std::unique_ptr<chain::StateDb> db;
  std::unique_ptr<storage::DiskKv> disk;

  if (platform_name == "parity") {
    store = std::make_unique<storage::MemKv>(parity_mem_cap);
    db = std::make_unique<chain::TrieStateDb>(store.get());
  } else if (platform_name == "ethereum") {
    auto d = storage::DiskKv::Open(dir + "/eth_ioheavy.log");
    BB_RETURN_IF_ERROR(d.status());
    disk = std::move(*d);
    db = std::make_unique<chain::TrieStateDb>(disk.get(),
                                              storage::kDiskTrieCacheEntries);
  } else {
    auto d = storage::DiskKv::Open(dir + "/hl_ioheavy.log");
    BB_RETURN_IF_ERROR(d.status());
    disk = std::move(*d);
    db = std::make_unique<chain::BucketStateDb>(disk.get());
  }

  StackResult res;
  const std::string value(100, 'v');
  Rng rng(4242);
  std::vector<std::string> keys;
  keys.reserve(tuples);

  auto t0 = std::chrono::steady_clock::now();
  const uint64_t kBatch = 500;  // commit granularity (one block's worth)
  uint64_t done = 0;
  bool oom = false;
  while (done < tuples && !oom) {
    uint64_t n = std::min(kBatch, tuples - done);
    for (uint64_t i = 0; i < n; ++i) {
      std::string key = KeyFor(done + i, rng);
      keys.push_back(key);
      Status s = db->Put("io", key, value);
      if (!s.ok()) {
        oom = true;
        break;
      }
    }
    auto c = db->Commit();
    if (!c.ok()) {
      oom = c.status().IsOutOfMemory();
      if (!oom) return c.status();
      break;
    }
    done += n;
  }
  auto t1 = std::chrono::steady_clock::now();
  res.written = done;
  if (oom) {
    res.oom = true;
    return res;
  }
  res.write_ops_per_sec =
      double(done) / std::chrono::duration<double>(t1 - t0).count();

  // Random reads over the written keys.
  uint64_t reads = std::min<uint64_t>(tuples, 200'000);
  std::string out;
  auto t2 = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < reads; ++i) {
    (void)db->Get("io", keys[rng.Uniform(keys.size())], &out);
  }
  auto t3 = std::chrono::steady_clock::now();
  res.read_ops_per_sec =
      double(reads) / std::chrono::duration<double>(t3 - t2).count();
  res.storage_bytes = db->storage_bytes();
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args = ParseBenchArgs(argc, argv);
  std::vector<uint64_t> sizes;
  uint64_t parity_cap;
  if (args.full) {
    sizes = {800'000, 1'600'000, 3'200'000, 6'400'000, 12'800'000};
    parity_cap = 3'600'000'000ULL;  // ~3M states, as on the paper's boxes
  } else {
    sizes = {20'000, 40'000, 80'000, 160'000, 320'000};
    parity_cap = 210'000'000ULL;  // scaled /40: OOM between 80K and 160K
  }
  std::string dir = "/tmp";

  util::Json rows = util::Json::Array();
  bool ok = true;

  PrintHeader("Figure 12: IOHeavy — write/read throughput and storage "
              "(X = out of memory, as in the paper)");
  std::printf("%-12s %10s | %12s %12s %14s\n", "platform", "#tuples",
              "write ops/s", "read ops/s", "storage (MB)");
  for (const char* p : kPlatforms) {
    for (uint64_t n : sizes) {
      auto r = RunStack(p, n, dir, parity_cap);
      if (!r.ok()) {
        std::fprintf(stderr, "%s: %s (#tuples=%llu): %s\n", argv[0], p,
                     (unsigned long long)n, r.status().ToString().c_str());
        ok = false;
        continue;
      }
      util::Json row = util::Json::Object();
      util::Json labels = util::Json::Object();
      labels.Set("platform", p);
      labels.Set("tuples", std::to_string(n));
      row.Set("labels", std::move(labels));
      if (r->oom) {
        std::printf("%-12s %10llu | %12s %12s %14s  (capped at %llu)\n", p,
                    (unsigned long long)n, "X", "X", "X",
                    (unsigned long long)r->written);
        row.Set("status", "OOM");
        row.Set("written", r->written);
      } else {
        std::printf("%-12s %10llu | %12.0f %12.0f %14.1f\n", p,
                    (unsigned long long)n, r->write_ops_per_sec,
                    r->read_ops_per_sec, double(r->storage_bytes) / 1e6);
        row.Set("status", "Ok");
        util::Json metrics = util::Json::Object();
        metrics.Set("write_ops_per_sec", r->write_ops_per_sec);
        metrics.Set("read_ops_per_sec", r->read_ops_per_sec);
        metrics.Set("storage_bytes", r->storage_bytes);
        row.Set("metrics", std::move(metrics));
      }
      rows.Push(std::move(row));
    }
  }
  std::remove((dir + "/eth_ioheavy.log").c_str());
  std::remove((dir + "/hl_ioheavy.log").c_str());

  if (!args.json_path.empty()) {
    util::Json doc = util::Json::Object();
    doc.Set("schema", "blockbench-sweep-v1");
    doc.Set("bench", "fig12_ioheavy");
    doc.Set("full", args.full);
    doc.Set("rows", std::move(rows));
    std::string text = doc.Dump(2);
    text.push_back('\n');
    std::FILE* f = std::fopen(args.json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "fig12_ioheavy: cannot write %s\n",
                   args.json_path.c_str());
      return 1;
    }
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
  }
  return ok ? 0 : 1;
}
