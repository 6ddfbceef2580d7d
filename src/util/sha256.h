// A from-scratch SHA-256 implementation (FIPS 180-4).
//
// Used for block hashes, Merkle trees and transaction ids. Not intended as
// a hardened crypto library — the benchmark framework needs a correct,
// deterministic cryptographic hash, which this provides.
//
// The compression function is runtime-dispatched: on x86-64 CPUs with the
// SHA extensions the rounds run on _mm_sha256rnds2_epu32, and the Merkle
// pair-combining entry point (DigestPairs) additionally knows an 8-wide
// block-interleaved AVX2 schedule for CPUs without SHA-NI. Every backend
// produces byte-identical digests (tests/util_test.cc cross-checks them);
// only wall-clock speed differs, so golden simulation digests are
// unaffected by the dispatch.

#ifndef BLOCKBENCH_UTIL_SHA256_H_
#define BLOCKBENCH_UTIL_SHA256_H_

#include <array>
#include <cstdint>
#include <cstring>
#include <string>

#include "util/slice.h"

namespace bb {

/// A 32-byte SHA-256 digest.
struct Hash256 {
  std::array<uint8_t, 32> bytes{};

  bool operator==(const Hash256& o) const { return bytes == o.bytes; }
  bool operator!=(const Hash256& o) const { return bytes != o.bytes; }
  bool operator<(const Hash256& o) const { return bytes < o.bytes; }

  /// Tests the digest as four 64-bit words, not byte by byte.
  bool IsZero() const {
    uint64_t w[4];
    std::memcpy(w, bytes.data(), sizeof(w));
    return (w[0] | w[1] | w[2] | w[3]) == 0;
  }

  /// Lowercase hex, 64 chars.
  std::string ToHex() const;
  /// First 8 hex chars, for logs.
  std::string ShortHex() const;
  /// First 8 bytes as a big-endian integer (used for hash-based bucketing).
  uint64_t Prefix64() const;

  static Hash256 Zero() { return Hash256{}; }
};

/// Incremental SHA-256 hasher.
class Sha256 {
 public:
  /// Which compression-function implementation to use.
  enum class Backend {
    kAuto,    ///< Best available: SHA-NI > AVX2 (Merkle pairs only) > scalar.
    kScalar,  ///< Portable FIPS 180-4 rounds everywhere.
    kShaNi,   ///< x86 SHA extensions for every digest.
    kAvx2,    ///< Scalar single digests, 8-wide AVX2 Merkle pairs.
  };

  Sha256() { Reset(); }

  void Reset();
  void Update(const void* data, size_t len);
  void Update(Slice s) { Update(s.data(), s.size()); }
  /// Finalizes and returns the digest. The hasher must be Reset() before reuse.
  Hash256 Finish();

  /// One-shot convenience.
  static Hash256 Digest(Slice s);
  /// Hash of the concatenation of two slices (Merkle node combining).
  static Hash256 Digest2(Slice a, Slice b);

  /// out[i] = Digest(nodes[2i] || nodes[2i+1]) for i < n_pairs — Merkle
  /// level combining. On AVX2-only CPUs the pairs are scheduled across 8
  /// SIMD lanes; fixed two-block messages need no per-lane masking.
  static void DigestPairs(const Hash256* nodes, size_t n_pairs, Hash256* out);

  /// Forces an implementation (testing/benchmarks). Returns false — and
  /// leaves the backend unchanged — when the CPU lacks the requested
  /// extension. Thread-safe but process-wide. kScalar is the reference
  /// the cross-backend tests compare against.
  static bool SetBackend(Backend b);
  static Backend backend();
  /// True when this CPU supports `b` (kAuto/kScalar are always true).
  static bool BackendAvailable(Backend b);

 private:
  void ProcessBlocks(const uint8_t* data, size_t blocks);

  uint32_t state_[8];
  uint64_t bit_count_;
  uint8_t buffer_[64];
  size_t buffer_len_;
};

struct Hash256Hasher {
  size_t operator()(const Hash256& h) const {
    // Digest bytes are uniformly distributed; fold the first 8 bytes.
    return static_cast<size_t>(h.Prefix64());
  }
};

}  // namespace bb

#endif  // BLOCKBENCH_UTIL_SHA256_H_
