// Ablation (DESIGN.md §4): the data-model choice in isolation — Patricia
// trie vs bucket-Merkle tree vs plain KV, on the same MemKv substrate.
// Separates the structure's own cost from the storage engine underneath
// (which Fig 12 measures end-to-end).

#include <chrono>

#include "common.h"
#include "storage/bucket_tree.h"
#include "storage/memkv.h"
#include "storage/patricia_trie.h"

using namespace bb;
using namespace bb::bench;

namespace {

struct Cell {
  double write_ops = 0, read_ops = 0;
  uint64_t bytes = 0;
  uint64_t entries = 0;
};

template <typename PutFn, typename GetFn>
Cell Measure(uint64_t n, storage::KvStore& kv, PutFn put, GetFn get) {
  Rng rng(11);
  std::vector<std::string> keys;
  keys.reserve(n);
  const std::string value(100, 'v');
  auto t0 = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < n; ++i) {
    keys.push_back("key" + std::to_string(rng.Next() % (n * 4)));
    put(keys.back(), value);
  }
  auto t1 = std::chrono::steady_clock::now();
  std::string out;
  uint64_t reads = std::min<uint64_t>(n, 100'000);
  for (uint64_t i = 0; i < reads; ++i) {
    get(keys[rng.Uniform(keys.size())], &out);
  }
  auto t2 = std::chrono::steady_clock::now();
  Cell c;
  c.write_ops = double(n) / std::chrono::duration<double>(t1 - t0).count();
  c.read_ops = double(reads) / std::chrono::duration<double>(t2 - t1).count();
  c.bytes = kv.size_bytes();
  c.entries = kv.num_entries();
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args = ParseBenchArgs(argc, argv);
  uint64_t n = args.full ? 1'000'000 : 200'000;

  util::Json rows = util::Json::Array();
  auto record = [&rows](const char* structure, const Cell& c) {
    util::Json row = util::Json::Object();
    util::Json labels = util::Json::Object();
    labels.Set("structure", structure);
    row.Set("labels", std::move(labels));
    row.Set("status", "Ok");
    util::Json metrics = util::Json::Object();
    metrics.Set("write_ops_per_sec", c.write_ops);
    metrics.Set("read_ops_per_sec", c.read_ops);
    metrics.Set("storage_bytes", c.bytes);
    metrics.Set("kv_entries", c.entries);
    row.Set("metrics", std::move(metrics));
    rows.Push(std::move(row));
  };

  PrintHeader("Ablation: state-structure cost (same in-memory substrate, " +
              std::to_string(n) + " writes)");
  std::printf("%-16s | %12s %12s %12s %10s\n", "structure", "write ops/s",
              "read ops/s", "store (MB)", "kv entries");

  {
    storage::MemKv kv;
    Cell c = Measure(
        n, kv, [&](const std::string& k, const std::string& v) { kv.Put(k, v); },
        [&](const std::string& k, std::string* out) { kv.Get(k, out); });
    std::printf("%-16s | %12.0f %12.0f %12.1f %10llu\n", "plain-kv",
                c.write_ops, c.read_ops, double(c.bytes) / 1e6,
                (unsigned long long)c.entries);
    record("plain-kv", c);
  }
  {
    storage::MemKv kv;
    storage::BucketMerkleTree tree(&kv, 1024);
    Cell c = Measure(
        n, kv,
        [&](const std::string& k, const std::string& v) { tree.Put(k, v); },
        [&](const std::string& k, std::string* out) { tree.Get(k, out); });
    tree.RootHash();
    std::printf("%-16s | %12.0f %12.0f %12.1f %10llu\n", "bucket-merkle",
                c.write_ops, c.read_ops, double(c.bytes) / 1e6,
                (unsigned long long)c.entries);
    record("bucket-merkle", c);
  }
  {
    storage::MemKv kv;
    storage::MerklePatriciaTrie trie(&kv);
    Hash256 root = storage::MerklePatriciaTrie::EmptyRoot();
    Cell c = Measure(
        n, kv,
        [&](const std::string& k, const std::string& v) {
          auto r = trie.Put(root, k, v);
          if (r.ok()) root = *r;
        },
        [&](const std::string& k, std::string* out) {
          (void)trie.Get(root, k, out);
        });
    std::printf("%-16s | %12.0f %12.0f %12.1f %10llu\n", "patricia-trie",
                c.write_ops, c.read_ops, double(c.bytes) / 1e6,
                (unsigned long long)c.entries);
    record("patricia-trie", c);
    std::printf("\npatricia-trie amplification: %.1fx space vs plain kv, "
                "%llu node writes for %llu puts\n",
                double(c.bytes) / double(n * 123),
                (unsigned long long)trie.stats().node_writes,
                (unsigned long long)n);
  }

  if (!WriteSweepRows("ablation_statetree", args, std::move(rows))) return 1;
  return 0;
}
