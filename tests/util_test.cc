// Unit tests for the util module: Status/Result, Slice, SHA-256 (FIPS
// vectors), hex, codec round-trips, RNG determinism and distribution
// sanity, histogram percentiles and time series.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <map>
#include <set>
#include <vector>

#include "util/bufwriter.h"
#include "util/codec.h"
#include "util/flat_id_table.h"
#include "util/hex.h"
#include "util/histogram.h"
#include "util/random.h"
#include "util/sha256.h"
#include "util/slice.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace bb {
namespace {

// --- Status / Result ---------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "Ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing key");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.ToString(), "NotFound: missing key");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= int(StatusCode::kInternal); ++c) {
    EXPECT_STRNE(StatusCodeName(StatusCode(c)), "Unknown");
  }
}

TEST(ResultTest, ValueAccess) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.ValueOr(0), 42);
}

TEST(ResultTest, ErrorPropagates) {
  Result<int> r(Status::Corruption("bad"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  EXPECT_EQ(r.ValueOr(-1), -1);
}

// --- Slice ---------------------------------------------------------------------

TEST(SliceTest, BasicViews) {
  std::string s = "hello world";
  Slice sl(s);
  EXPECT_EQ(sl.size(), 11u);
  EXPECT_TRUE(sl.starts_with("hello"));
  EXPECT_FALSE(sl.starts_with("world"));
  sl.remove_prefix(6);
  EXPECT_EQ(sl.ToString(), "world");
}

TEST(SliceTest, Comparison) {
  EXPECT_TRUE(Slice("abc") == Slice("abc"));
  EXPECT_TRUE(Slice("abc") != Slice("abd"));
  EXPECT_LT(Slice("abc").compare(Slice("abd")), 0);
  EXPECT_LT(Slice("ab").compare(Slice("abc")), 0);
  EXPECT_GT(Slice("abd").compare(Slice("abc")), 0);
}

// --- SHA-256 ---------------------------------------------------------------------

TEST(Sha256Test, Fips180EmptyString) {
  EXPECT_EQ(Sha256::Digest("").ToHex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Fips180Abc) {
  EXPECT_EQ(Sha256::Digest("abc").ToHex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, Fips180TwoBlockMessage) {
  EXPECT_EQ(
      Sha256::Digest("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")
          .ToHex(),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionA) {
  Sha256 h;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.Update(chunk);
  EXPECT_EQ(h.Finish().ToHex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalEqualsOneShot) {
  std::string data = "The quick brown fox jumps over the lazy dog";
  for (size_t split = 0; split <= data.size(); ++split) {
    Sha256 h;
    h.Update(data.substr(0, split));
    h.Update(data.substr(split));
    EXPECT_EQ(h.Finish(), Sha256::Digest(data)) << "split=" << split;
  }
}

TEST(Sha256Test, HashStructHelpers) {
  Hash256 z = Hash256::Zero();
  EXPECT_TRUE(z.IsZero());
  Hash256 h = Sha256::Digest("x");
  EXPECT_FALSE(h.IsZero());
  EXPECT_EQ(h.ShortHex(), h.ToHex().substr(0, 8));
  EXPECT_NE(h.Prefix64(), 0u);
}

TEST(Sha256Test, IsZeroSeesEveryByte) {
  EXPECT_TRUE(Hash256{}.IsZero());
  for (size_t pos = 0; pos < 32; ++pos) {
    for (uint8_t b : {uint8_t(0x01), uint8_t(0x80), uint8_t(0xff)}) {
      Hash256 h;
      h.bytes[pos] = b;
      EXPECT_FALSE(h.IsZero()) << "byte " << pos << " = " << int(b);
    }
  }
}

// --- Hex -----------------------------------------------------------------------

TEST(HexTest, RoundTrip) {
  const char raw[] = {'\x00', '\x01', '\xfe', '\xff'};
  std::string bytes(raw, 4);
  std::string hex = BytesToHex(bytes.data(), 4);
  EXPECT_EQ(hex, "0001feff");
  auto back = HexToBytes(hex);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, bytes);
}

TEST(HexTest, RejectsOddLength) {
  EXPECT_FALSE(HexToBytes("abc").ok());
}

TEST(HexTest, RejectsNonHex) {
  EXPECT_FALSE(HexToBytes("zz").ok());
}

// --- Codec ------------------------------------------------------------------------

TEST(CodecTest, FixedRoundTrip) {
  std::string buf;
  PutFixed32(&buf, 0xdeadbeef);
  PutFixed64(&buf, 0x0123456789abcdefULL);
  Slice in(buf);
  uint32_t a;
  uint64_t b;
  ASSERT_TRUE(GetFixed32(&in, &a).ok());
  ASSERT_TRUE(GetFixed64(&in, &b).ok());
  EXPECT_EQ(a, 0xdeadbeef);
  EXPECT_EQ(b, 0x0123456789abcdefULL);
  EXPECT_TRUE(in.empty());
}

TEST(CodecTest, VarintRoundTrip) {
  std::string buf;
  std::vector<uint64_t> values = {0, 1, 127, 128, 16383, 16384,
                                  UINT64_MAX, 1ULL << 63};
  for (uint64_t v : values) PutVarint64(&buf, v);
  Slice in(buf);
  for (uint64_t v : values) {
    uint64_t got;
    ASSERT_TRUE(GetVarint64(&in, &got).ok());
    EXPECT_EQ(got, v);
  }
}

TEST(CodecTest, VarintLengthMatchesEncoding) {
  for (uint64_t v : {uint64_t{0}, uint64_t{127}, uint64_t{128},
                     uint64_t{99999}, UINT64_MAX}) {
    std::string buf;
    PutVarint64(&buf, v);
    EXPECT_EQ(buf.size(), VarintLength(v));
  }
}

TEST(CodecTest, LengthPrefixedRoundTrip) {
  std::string buf;
  PutLengthPrefixed(&buf, "hello");
  PutLengthPrefixed(&buf, "");
  PutLengthPrefixed(&buf, std::string(1000, 'x'));
  Slice in(buf);
  std::string s;
  ASSERT_TRUE(GetLengthPrefixed(&in, &s).ok());
  EXPECT_EQ(s, "hello");
  ASSERT_TRUE(GetLengthPrefixed(&in, &s).ok());
  EXPECT_EQ(s, "");
  ASSERT_TRUE(GetLengthPrefixed(&in, &s).ok());
  EXPECT_EQ(s, std::string(1000, 'x'));
}

TEST(CodecTest, TruncationDetected) {
  std::string buf;
  PutLengthPrefixed(&buf, "hello");
  buf.resize(3);
  Slice in(buf);
  std::string s;
  EXPECT_FALSE(GetLengthPrefixed(&in, &s).ok());
}

// --- Rng -----------------------------------------------------------------------

TEST(RngTest, DeterministicFromSeed) {
  Rng a(12345), b(12345);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, UniformInRange) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(r.Uniform(10), 10u);
    uint64_t v = r.Range(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng r(11);
  for (int i = 0; i < 10000; ++i) {
    double d = r.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ExponentialMean) {
  Rng r(13);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += r.Exponential(2.5);
  EXPECT_NEAR(sum / n, 2.5, 0.05);
}

TEST(RngTest, GaussianMoments) {
  Rng r(17);
  double sum = 0, sq = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    double v = r.Gaussian(10, 3);
    sum += v;
    sq += v * v;
  }
  double mean = sum / n;
  double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10, 0.1);
  EXPECT_NEAR(std::sqrt(var), 3, 0.1);
}

TEST(RngTest, ForkIndependence) {
  Rng a(42);
  Rng b = a.Fork();
  EXPECT_NE(a.Next(), b.Next());
}

TEST(ZipfianTest, InRangeAndSkewed) {
  Rng r(23);
  ZipfianGenerator z(1000, 0.99);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 100000; ++i) {
    uint64_t v = z.Next(r);
    ASSERT_LT(v, 1000u);
    counts[v]++;
  }
  // Rank 0 should be far more popular than rank 500.
  EXPECT_GT(counts[0], 20 * std::max(counts[500], 1));
}

TEST(ScrambledZipfianTest, SpreadsHotKeys) {
  Rng r(29);
  ScrambledZipfian z(1000);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 100000; ++i) counts[z.Next(r)]++;
  // The hottest key should not be key 0 with overwhelming likelihood
  // (scrambling moved it), and all draws must stay in range.
  for (const auto& [k, v] : counts) {
    EXPECT_LT(k, 1000u);
    (void)v;
  }
}

// --- Histogram ----------------------------------------------------------------

TEST(HistogramTest, Percentiles) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.Add(i);
  EXPECT_DOUBLE_EQ(h.min(), 1);
  EXPECT_DOUBLE_EQ(h.max(), 100);
  EXPECT_NEAR(h.Percentile(50), 50.5, 0.01);
  EXPECT_NEAR(h.Percentile(95), 95.05, 0.01);
  EXPECT_NEAR(h.Mean(), 50.5, 1e-9);
}

TEST(HistogramTest, EmptyIsSafe) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.Percentile(99), 0);
  EXPECT_DOUBLE_EQ(h.Mean(), 0);
}

TEST(HistogramTest, MergeCombines) {
  Histogram a, b;
  a.Add(1);
  b.Add(3);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.Mean(), 2);
}

TEST(HistogramTest, CdfMonotone) {
  Histogram h;
  Rng r(31);
  for (int i = 0; i < 5000; ++i) h.Add(r.NextDouble());
  auto cdf = h.Cdf(50);
  ASSERT_FALSE(cdf.empty());
  for (size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GE(cdf[i].first, cdf[i - 1].first);
    EXPECT_GE(cdf[i].second, cdf[i - 1].second);
  }
  EXPECT_DOUBLE_EQ(cdf.back().second, 1.0);
}

TEST(TimeSeriesTest, BinningAndSums) {
  TimeSeries ts(1.0);
  ts.Add(0.5, 1);
  ts.Add(0.9, 2);
  ts.Add(2.1, 5);
  EXPECT_DOUBLE_EQ(ts.SumAt(0), 3);
  EXPECT_DOUBLE_EQ(ts.SumAt(1), 0);
  EXPECT_DOUBLE_EQ(ts.SumAt(2), 5);
}

TEST(TimeSeriesTest, ObserveCarriesForward) {
  TimeSeries ts(1.0);
  ts.Observe(0.5, 10);
  ts.Observe(3.5, 20);
  EXPECT_DOUBLE_EQ(ts.ValueAt(0), 10);
  EXPECT_DOUBLE_EQ(ts.ValueAt(2), 10);  // carried forward
  EXPECT_DOUBLE_EQ(ts.ValueAt(3), 20);
}

// --- BufferedWriter ----------------------------------------------------------

std::string SlurpFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::string text;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  return text;
}

TEST(BufferedWriter, WritesAcrossFlushBoundaries) {
  std::string path = testing::TempDir() + "/bufwriter_test.txt";
  std::string expected;
  {
    // A tiny buffer forces many flushes mid-append.
    util::BufferedWriter w(/*buffer_bytes=*/16);
    ASSERT_TRUE(w.Open(path).ok());
    for (int i = 0; i < 100; ++i) {
      w.Appendf("line %d|", i);
      expected += "line " + std::to_string(i) + "|";
    }
    w.Append('\n');
    expected += '\n';
    // A chunk larger than the buffer takes the bypass path.
    std::string big(1000, 'x');
    w.Append(big);
    expected += big;
    ASSERT_TRUE(w.Close().ok());
    EXPECT_EQ(w.bytes_written(), expected.size());
    EXPECT_TRUE(w.Close().ok());  // idempotent
  }
  EXPECT_EQ(SlurpFile(path), expected);
  std::remove(path.c_str());
}

TEST(BufferedWriter, OpenFailureIsSticky) {
  util::BufferedWriter w;
  Status s = w.Open("/nonexistent-dir-for-test/out.txt");
  EXPECT_FALSE(s.ok());
  w.Append("ignored");  // must not crash
  EXPECT_FALSE(w.Close().ok());
  EXPECT_EQ(w.bytes_written(), 0u);
}

TEST(BufferedWriter, LongAppendfFallsBackToHeap) {
  std::string path = testing::TempDir() + "/bufwriter_long.txt";
  util::BufferedWriter w;
  ASSERT_TRUE(w.Open(path).ok());
  std::string long_arg(1000, 'y');  // exceeds the stack format buffer
  w.Appendf("<%s>", long_arg.c_str());
  ASSERT_TRUE(w.Close().ok());
  EXPECT_EQ(SlurpFile(path), "<" + long_arg + ">");
  std::remove(path.c_str());
}

// --- SHA-256 backends and batch kernels --------------------------------------

std::vector<Sha256::Backend> AvailableBackends() {
  std::vector<Sha256::Backend> v = {Sha256::Backend::kScalar};
  if (Sha256::BackendAvailable(Sha256::Backend::kShaNi)) {
    v.push_back(Sha256::Backend::kShaNi);
  }
  if (Sha256::BackendAvailable(Sha256::Backend::kAvx2)) {
    v.push_back(Sha256::Backend::kAvx2);
  }
  return v;
}

// Restores the process-wide backend selection on scope exit so a failing
// assertion cannot leak a forced backend into later tests.
struct ScopedBackend {
  explicit ScopedBackend(Sha256::Backend b) { Sha256::SetBackend(b); }
  ~ScopedBackend() { Sha256::SetBackend(Sha256::Backend::kAuto); }
};

TEST(Sha256BackendTest, AllBackendsMatchScalarSingles) {
  // Lengths straddle every interesting boundary: empty, sub-block,
  // exactly one block, the 56-byte padding split, and multi-block.
  const size_t lengths[] = {0, 1, 3, 55, 56, 63, 64, 65, 119, 120, 128, 257};
  for (size_t len : lengths) {
    std::string data(len, '\0');
    for (size_t i = 0; i < len; ++i) data[i] = char('a' + i % 26);
    Sha256::SetBackend(Sha256::Backend::kScalar);
    Hash256 want = Sha256::Digest(data);
    for (auto b : AvailableBackends()) {
      ScopedBackend guard(b);
      EXPECT_EQ(Sha256::Digest(data), want)
          << "len=" << len << " backend=" << int(b);
    }
  }
  Sha256::SetBackend(Sha256::Backend::kAuto);
}

TEST(Sha256BatchTest, DigestPairsMatchesConcatenatedDigest) {
  Rng rng(7);
  for (auto backend : AvailableBackends()) {
    ScopedBackend guard(backend);
    for (size_t n_pairs : {size_t(1), size_t(7), size_t(8), size_t(17)}) {
      std::vector<Hash256> nodes(2 * n_pairs);
      for (auto& h : nodes) {
        for (auto& byte : h.bytes) byte = uint8_t(rng.Uniform(256));
      }
      std::vector<Hash256> got(n_pairs);
      Sha256::DigestPairs(nodes.data(), n_pairs, got.data());
      for (size_t i = 0; i < n_pairs; ++i) {
        std::string concat;
        concat.append(reinterpret_cast<const char*>(nodes[2 * i].bytes.data()),
                      32);
        concat.append(
            reinterpret_cast<const char*>(nodes[2 * i + 1].bytes.data()), 32);
        EXPECT_EQ(got[i], Sha256::Digest(concat))
            << "backend=" << int(backend) << " i=" << i;
      }
    }
  }
}

// --- FlatIdSet / FlatIdMap / SeenIdWindow ------------------------------------

TEST(FlatIdSetTest, InsertEraseCount) {
  util::FlatIdSet s;
  EXPECT_TRUE(s.empty());
  EXPECT_TRUE(s.insert(42));
  EXPECT_FALSE(s.insert(42));
  EXPECT_TRUE(s.insert(0));  // bit 0 of page 0
  EXPECT_EQ(s.size(), 2u);
  EXPECT_EQ(s.count(42), 1u);
  EXPECT_EQ(s.count(0), 1u);
  EXPECT_EQ(s.count(7), 0u);
  EXPECT_TRUE(s.erase(42));
  EXPECT_FALSE(s.erase(42));
  EXPECT_TRUE(s.erase(0));
  EXPECT_TRUE(s.empty());
}

TEST(FlatIdSetTest, PageBoundariesAndExtremeIds) {
  const uint64_t kInserted[] = {511, 1024, 0, UINT64_MAX};
  // Their neighbours, across each page boundary, are never inserted.
  const uint64_t kAbsent[] = {510, 512, 1023, 1025, 1, UINT64_MAX - 1};
  util::FlatIdSet s;
  for (uint64_t id : kInserted) EXPECT_TRUE(s.insert(id)) << id;
  EXPECT_EQ(s.size(), 4u);
  for (uint64_t id : kInserted) EXPECT_EQ(s.count(id), 1u) << id;
  for (uint64_t id : kAbsent) EXPECT_EQ(s.count(id), 0u) << id;
  EXPECT_TRUE(s.insert(512));
  EXPECT_TRUE(s.insert(1023));
  EXPECT_EQ(s.erase(511), 1u);
  EXPECT_EQ(s.count(512), 1u);
  EXPECT_EQ(s.erase(UINT64_MAX), 1u);
  EXPECT_EQ(s.count(UINT64_MAX), 0u);
  EXPECT_TRUE(s.insert(UINT64_MAX));  // erase, then insert again
  EXPECT_TRUE(s.insert(511));
  EXPECT_FALSE(s.insert(511));
  EXPECT_EQ(s.size(), 6u);
}

TEST(FlatIdSetTest, ClearThenReuse) {
  util::FlatIdSet s;
  for (uint64_t seq = 0; seq < 2000; ++seq) s.insert(uint64_t(3) << 40 | seq);
  s.clear();
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(uint64_t(3) << 40 | 7), 0u);
  EXPECT_TRUE(s.insert(uint64_t(3) << 40 | 7));
  EXPECT_TRUE(s.insert(9));
  EXPECT_EQ(s.size(), 2u);
  EXPECT_EQ(s.count(uint64_t(3) << 40 | 7), 1u);
  EXPECT_EQ(s.count(uint64_t(3) << 40 | 8), 0u);
}

TEST(FlatIdSetTest, MatchesStdSetUnderRandomChurn) {
  // Two id spaces: 0..511, one page; and ids minted as (client+1)<<40 |
  // seq by 4 clients, four pages each.
  using NextId = uint64_t (*)(Rng&);
  NextId dense = [](Rng& rng) { return rng.Uniform(512); };
  NextId clients = [](Rng& rng) {
    uint64_t client = rng.Uniform(4);
    return (client + 1) << 40 | rng.Uniform(2048);
  };
  for (NextId next_id : {dense, clients}) {
    util::FlatIdSet s;
    std::set<uint64_t> ref;
    Rng rng(99);
    std::vector<uint64_t> drawn;
    for (int i = 0; i < 20000; ++i) {
      uint64_t id = next_id(rng);
      drawn.push_back(id);
      if (rng.Bernoulli(0.5)) {
        EXPECT_EQ(s.insert(id), ref.insert(id).second);
      } else {
        EXPECT_EQ(s.erase(id), ref.erase(id) > 0);
      }
      ASSERT_EQ(s.size(), ref.size()) << i;
    }
    for (uint64_t id : drawn) EXPECT_EQ(s.count(id), ref.count(id)) << id;
  }
}

TEST(FlatIdMapTest, PutFindErase) {
  util::FlatIdMap<uint32_t> m;
  m.Put(5, 50);
  m.Put(6, 60);
  m.Put(5, 55);  // overwrite
  ASSERT_NE(m.Find(5), nullptr);
  EXPECT_EQ(*m.Find(5), 55u);
  ASSERT_NE(m.Find(6), nullptr);
  EXPECT_EQ(*m.Find(6), 60u);
  EXPECT_EQ(m.Find(7), nullptr);
  EXPECT_TRUE(m.Erase(5));
  EXPECT_EQ(m.Find(5), nullptr);
  EXPECT_EQ(m.size(), 1u);
}

TEST(SeenIdWindowTest, RecyclesIdsAtGenerationBoundary) {
  util::SeenIdWindow w;
  w.set_window(4);
  // Two generations are kept: an id stays visible for at least `window`
  // and at most 2 * `window` subsequent inserts.
  for (uint64_t id = 1; id <= 4; ++id) w.Insert(id);
  for (uint64_t id = 1; id <= 4; ++id) EXPECT_TRUE(w.Contains(id)) << id;
  // Next insert rotates generations; 1..4 survive in the previous one.
  for (uint64_t id = 5; id <= 8; ++id) w.Insert(id);
  for (uint64_t id = 1; id <= 8; ++id) EXPECT_TRUE(w.Contains(id)) << id;
  // A second rotation finally forgets the first generation.
  w.Insert(9);
  for (uint64_t id = 1; id <= 4; ++id) EXPECT_FALSE(w.Contains(id)) << id;
  for (uint64_t id = 5; id <= 9; ++id) EXPECT_TRUE(w.Contains(id)) << id;
}

// --- ThreadPool ---------------------------------------------------------------

TEST(ThreadPoolTest, RunsEveryJobBeforeWaitReturns) {
  util::ThreadPool pool(4);
  std::atomic<int> sum{0};
  std::vector<int> slots(64, 0);  // one writer per slot
  for (int i = 0; i < 64; ++i) {
    pool.Submit([&, i] {
      slots[size_t(i)] = i;
      sum += i;
    });
  }
  pool.Wait();
  EXPECT_EQ(sum.load(), 64 * 63 / 2);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(slots[size_t(i)], i);
  // The pool stays usable after a Wait.
  pool.Submit([&] { sum += 1; });
  pool.Wait();
  EXPECT_EQ(sum.load(), 64 * 63 / 2 + 1);
}

}  // namespace
}  // namespace bb
