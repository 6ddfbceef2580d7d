#include "util/sha256.h"

#include <atomic>
#include <cstring>

#include "util/hex.h"

#if defined(__x86_64__) || defined(__i386__)
#define BB_SHA256_X86 1
#include <immintrin.h>
#endif

namespace bb {

namespace {

constexpr uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr uint32_t kIv[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                             0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

inline uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

void ProcessBlocksScalar(uint32_t state[8], const uint8_t* block,
                         size_t blocks) {
  for (; blocks > 0; --blocks, block += 64) {
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (uint32_t(block[i * 4]) << 24) |
             (uint32_t(block[i * 4 + 1]) << 16) |
             (uint32_t(block[i * 4 + 2]) << 8) | uint32_t(block[i * 4 + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      uint32_t s0 = Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      uint32_t s1 = Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
      uint32_t ch = (e & f) ^ (~e & g);
      uint32_t temp1 = h + s1 + ch + kK[i] + w[i];
      uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
      uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if BB_SHA256_X86

// ---------------------------------------------------------------------------
// SHA-NI: the FIPS rounds on _mm_sha256rnds2_epu32. Standard two-register
// (ABEF/CDGH) layout; message schedule advanced with sha256msg1/msg2.
// ---------------------------------------------------------------------------

__attribute__((target("sha,sse4.1,ssse3"))) void ProcessBlocksShaNi(
    uint32_t state[8], const uint8_t* data, size_t blocks) {
  const __m128i kShuf =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);

  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  __m128i st1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);  // CDAB
  st1 = _mm_shuffle_epi32(st1, 0x1B);  // EFGH
  __m128i st0 = _mm_alignr_epi8(tmp, st1, 8);  // ABEF
  st1 = _mm_blend_epi16(st1, tmp, 0xF0);       // CDGH

  while (blocks > 0) {
    const __m128i abef_save = st0;
    const __m128i cdgh_save = st1;
    __m128i msg, m0, m1, m2, m3;

#define BB_KVEC(i) \
  _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kK[i]))
#define BB_RNDS2()                             \
  st1 = _mm_sha256rnds2_epu32(st1, st0, msg);  \
  msg = _mm_shuffle_epi32(msg, 0x0E);          \
  st0 = _mm_sha256rnds2_epu32(st0, st1, msg)
// One 4-round chunk with full schedule advance:
//   mb += alignr(ma, md, 4); mb = msg2(mb, ma); md = msg1(md, ma)
#define BB_QROUND(ma, mb, md, i)               \
  msg = _mm_add_epi32(ma, BB_KVEC(i));         \
  st1 = _mm_sha256rnds2_epu32(st1, st0, msg);  \
  tmp = _mm_alignr_epi8(ma, md, 4);            \
  mb = _mm_add_epi32(mb, tmp);                 \
  mb = _mm_sha256msg2_epu32(mb, ma);           \
  msg = _mm_shuffle_epi32(msg, 0x0E);          \
  st0 = _mm_sha256rnds2_epu32(st0, st1, msg);  \
  md = _mm_sha256msg1_epu32(md, ma)
// Same without the trailing msg1 (schedule words past w[63] are unused).
#define BB_QROUND_TAIL(ma, mb, md, i)          \
  msg = _mm_add_epi32(ma, BB_KVEC(i));         \
  st1 = _mm_sha256rnds2_epu32(st1, st0, msg);  \
  tmp = _mm_alignr_epi8(ma, md, 4);            \
  mb = _mm_add_epi32(mb, tmp);                 \
  mb = _mm_sha256msg2_epu32(mb, ma);           \
  msg = _mm_shuffle_epi32(msg, 0x0E);          \
  st0 = _mm_sha256rnds2_epu32(st0, st1, msg)

    // Rounds 0-15: load + byte-swap the message, start the schedule.
    m0 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 0)), kShuf);
    msg = _mm_add_epi32(m0, BB_KVEC(0));
    BB_RNDS2();

    m1 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16)), kShuf);
    msg = _mm_add_epi32(m1, BB_KVEC(4));
    BB_RNDS2();
    m0 = _mm_sha256msg1_epu32(m0, m1);

    m2 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 32)), kShuf);
    msg = _mm_add_epi32(m2, BB_KVEC(8));
    BB_RNDS2();
    m1 = _mm_sha256msg1_epu32(m1, m2);

    m3 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 48)), kShuf);
    BB_QROUND(m3, m0, m2, 12);

    // Rounds 16-51: the schedule registers rotate m0→m1→m2→m3.
    BB_QROUND(m0, m1, m3, 16);
    BB_QROUND(m1, m2, m0, 20);
    BB_QROUND(m2, m3, m1, 24);
    BB_QROUND(m3, m0, m2, 28);
    BB_QROUND(m0, m1, m3, 32);
    BB_QROUND(m1, m2, m0, 36);
    BB_QROUND(m2, m3, m1, 40);
    BB_QROUND(m3, m0, m2, 44);
    BB_QROUND(m0, m1, m3, 48);

    BB_QROUND_TAIL(m1, m2, m0, 52);
    BB_QROUND_TAIL(m2, m3, m1, 56);

    msg = _mm_add_epi32(m3, BB_KVEC(60));
    BB_RNDS2();

#undef BB_QROUND_TAIL
#undef BB_QROUND
#undef BB_RNDS2
#undef BB_KVEC

    st0 = _mm_add_epi32(st0, abef_save);
    st1 = _mm_add_epi32(st1, cdgh_save);
    data += 64;
    --blocks;
  }

  tmp = _mm_shuffle_epi32(st0, 0x1B);  // FEBA
  st1 = _mm_shuffle_epi32(st1, 0xB1);  // DCHG
  st0 = _mm_blend_epi16(tmp, st1, 0xF0);  // DCBA
  st1 = _mm_alignr_epi8(st1, tmp, 8);     // EFGH
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), st0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), st1);
}

// ---------------------------------------------------------------------------
// AVX2 8-wide multi-buffer: eight independent messages advance in lockstep,
// one 64-byte block per lane per compression call, lane l of each ymm
// holding message l's state word. Lanes that run out of blocks keep their
// final state via a blend mask.
// ---------------------------------------------------------------------------

__attribute__((target("avx2"))) inline __m256i RorV(__m256i x, int n) {
  return _mm256_or_si256(_mm256_srli_epi32(x, n), _mm256_slli_epi32(x, 32 - n));
}

__attribute__((target("avx2"))) inline uint32_t LoadBe32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return __builtin_bswap32(v);
}

// Runs one compression round over 8 lanes; blocks[l] points at lane l's
// 64-byte block (all pointers must be valid — masking happens in the caller).
__attribute__((target("avx2"))) void Avx2Block8(__m256i st[8],
                                               const uint8_t* const blocks[8]) {
  __m256i w[16];
  for (int t = 0; t < 16; ++t) {
    w[t] = _mm256_setr_epi32(
        LoadBe32(blocks[0] + 4 * t), LoadBe32(blocks[1] + 4 * t),
        LoadBe32(blocks[2] + 4 * t), LoadBe32(blocks[3] + 4 * t),
        LoadBe32(blocks[4] + 4 * t), LoadBe32(blocks[5] + 4 * t),
        LoadBe32(blocks[6] + 4 * t), LoadBe32(blocks[7] + 4 * t));
  }

  __m256i a = st[0], b = st[1], c = st[2], d = st[3];
  __m256i e = st[4], f = st[5], g = st[6], h = st[7];

  for (int t = 0; t < 64; ++t) {
    __m256i wt;
    if (t < 16) {
      wt = w[t];
    } else {
      const __m256i wm15 = w[(t - 15) & 15];
      const __m256i wm2 = w[(t - 2) & 15];
      const __m256i s0 = _mm256_xor_si256(
          _mm256_xor_si256(RorV(wm15, 7), RorV(wm15, 18)),
          _mm256_srli_epi32(wm15, 3));
      const __m256i s1 = _mm256_xor_si256(
          _mm256_xor_si256(RorV(wm2, 17), RorV(wm2, 19)),
          _mm256_srli_epi32(wm2, 10));
      wt = _mm256_add_epi32(_mm256_add_epi32(w[t & 15], s0),
                            _mm256_add_epi32(w[(t - 7) & 15], s1));
      w[t & 15] = wt;
    }

    const __m256i s1 = _mm256_xor_si256(
        _mm256_xor_si256(RorV(e, 6), RorV(e, 11)), RorV(e, 25));
    const __m256i ch =
        _mm256_xor_si256(_mm256_and_si256(e, f), _mm256_andnot_si256(e, g));
    const __m256i t1 = _mm256_add_epi32(
        _mm256_add_epi32(_mm256_add_epi32(h, s1), _mm256_add_epi32(ch, wt)),
        _mm256_set1_epi32(int(kK[t])));
    const __m256i s0 = _mm256_xor_si256(
        _mm256_xor_si256(RorV(a, 2), RorV(a, 13)), RorV(a, 22));
    const __m256i maj = _mm256_xor_si256(
        _mm256_xor_si256(_mm256_and_si256(a, b), _mm256_and_si256(a, c)),
        _mm256_and_si256(b, c));
    const __m256i t2 = _mm256_add_epi32(s0, maj);
    h = g;
    g = f;
    f = e;
    e = _mm256_add_epi32(d, t1);
    d = c;
    c = b;
    b = a;
    a = _mm256_add_epi32(t1, t2);
  }

  st[0] = _mm256_add_epi32(st[0], a);
  st[1] = _mm256_add_epi32(st[1], b);
  st[2] = _mm256_add_epi32(st[2], c);
  st[3] = _mm256_add_epi32(st[3], d);
  st[4] = _mm256_add_epi32(st[4], e);
  st[5] = _mm256_add_epi32(st[5], f);
  st[6] = _mm256_add_epi32(st[6], g);
  st[7] = _mm256_add_epi32(st[7], h);
}

__attribute__((target("avx2"))) void Avx2Extract(const __m256i st[8],
                                                Hash256* out8[8]) {
  alignas(32) uint32_t tmp[8];
  for (int word = 0; word < 8; ++word) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(tmp), st[word]);
    for (int lane = 0; lane < 8; ++lane) {
      const uint32_t v = tmp[lane];
      out8[lane]->bytes[word * 4] = uint8_t(v >> 24);
      out8[lane]->bytes[word * 4 + 1] = uint8_t(v >> 16);
      out8[lane]->bytes[word * 4 + 2] = uint8_t(v >> 8);
      out8[lane]->bytes[word * 4 + 3] = uint8_t(v);
    }
  }
}

// Merkle combining: every message is exactly 64 data bytes (two child
// digests) plus one constant padding block — no masks, no tail buffers.
__attribute__((target("avx2"))) void Avx2DigestPairs8(const Hash256* nodes,
                                                      Hash256* out8[8]) {
  alignas(64) static const uint8_t kPadBlock[64] = {
      0x80, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
      0,    0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
      0,    0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
      0,    0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x02, 0x00};

  __m256i st[8];
  for (int i = 0; i < 8; ++i) st[i] = _mm256_set1_epi32(int(kIv[i]));

  const uint8_t* ptr[8];
  for (int l = 0; l < 8; ++l)
    ptr[l] = reinterpret_cast<const uint8_t*>(nodes[2 * l].bytes.data());
  Avx2Block8(st, ptr);

  for (int l = 0; l < 8; ++l) ptr[l] = kPadBlock;
  Avx2Block8(st, ptr);

  Avx2Extract(st, out8);
}

#endif  // BB_SHA256_X86

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

enum class Isa : int { kScalar = 0, kShaNi = 1, kAvx2 = 2 };

bool CpuHasShaNi() {
#if BB_SHA256_X86
  static const bool has = __builtin_cpu_supports("sha") &&
                          __builtin_cpu_supports("sse4.1") &&
                          __builtin_cpu_supports("ssse3");
  return has;
#else
  return false;
#endif
}

bool CpuHasAvx2() {
#if BB_SHA256_X86
  static const bool has = __builtin_cpu_supports("avx2");
  return has;
#else
  return false;
#endif
}

std::atomic<int> g_backend{int(Sha256::Backend::kAuto)};

// The implementation for single-message digests under the current backend.
Isa SingleIsa() {
  switch (Sha256::Backend(g_backend.load(std::memory_order_relaxed))) {
    case Sha256::Backend::kShaNi:
      return Isa::kShaNi;
    case Sha256::Backend::kScalar:
    case Sha256::Backend::kAvx2:  // AVX2 multi-buffer only helps batches
      return Isa::kScalar;
    case Sha256::Backend::kAuto:
    default:
      return CpuHasShaNi() ? Isa::kShaNi : Isa::kScalar;
  }
}

// The implementation for DigestPairs under the current backend.
// SHA-NI single-stream throughput beats the 8-wide AVX2 schedule, so kAuto
// prefers it even for batches.
Isa BatchIsa() {
  switch (Sha256::Backend(g_backend.load(std::memory_order_relaxed))) {
    case Sha256::Backend::kShaNi:
      return Isa::kShaNi;
    case Sha256::Backend::kAvx2:
      return Isa::kAvx2;
    case Sha256::Backend::kScalar:
      return Isa::kScalar;
    case Sha256::Backend::kAuto:
    default:
      return CpuHasShaNi() ? Isa::kShaNi
                           : (CpuHasAvx2() ? Isa::kAvx2 : Isa::kScalar);
  }
}

}  // namespace

std::string Hash256::ToHex() const {
  return BytesToHex(reinterpret_cast<const char*>(bytes.data()), bytes.size());
}

std::string Hash256::ShortHex() const { return ToHex().substr(0, 8); }

uint64_t Hash256::Prefix64() const {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | bytes[i];
  return v;
}

bool Sha256::BackendAvailable(Backend b) {
  switch (b) {
    case Backend::kShaNi:
      return CpuHasShaNi();
    case Backend::kAvx2:
      return CpuHasAvx2();
    case Backend::kAuto:
    case Backend::kScalar:
    default:
      return true;
  }
}

bool Sha256::SetBackend(Backend b) {
  if (!BackendAvailable(b)) return false;
  g_backend.store(int(b), std::memory_order_relaxed);
  return true;
}

Sha256::Backend Sha256::backend() {
  return Backend(g_backend.load(std::memory_order_relaxed));
}

void Sha256::Reset() {
  for (int i = 0; i < 8; ++i) state_[i] = kIv[i];
  bit_count_ = 0;
  buffer_len_ = 0;
}

void Sha256::ProcessBlocks(const uint8_t* data, size_t blocks) {
#if BB_SHA256_X86
  if (SingleIsa() == Isa::kShaNi) {
    ProcessBlocksShaNi(state_, data, blocks);
    return;
  }
#endif
  ProcessBlocksScalar(state_, data, blocks);
}

void Sha256::Update(const void* data, size_t len) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  bit_count_ += uint64_t(len) * 8;

  if (buffer_len_ > 0) {
    size_t need = 64 - buffer_len_;
    size_t take = len < need ? len : need;
    std::memcpy(buffer_ + buffer_len_, p, take);
    buffer_len_ += take;
    p += take;
    len -= take;
    if (buffer_len_ == 64) {
      ProcessBlocks(buffer_, 1);
      buffer_len_ = 0;
    }
  }
  if (len >= 64) {
    const size_t blocks = len / 64;
    ProcessBlocks(p, blocks);
    p += blocks * 64;
    len -= blocks * 64;
  }
  if (len > 0) {
    std::memcpy(buffer_, p, len);
    buffer_len_ = len;
  }
}

Hash256 Sha256::Finish() {
  uint64_t bits = bit_count_;
  // Padding: 0x80 then zeros then 8-byte big-endian length.
  uint8_t pad = 0x80;
  Update(&pad, 1);
  uint8_t zero = 0;
  while (buffer_len_ != 56) Update(&zero, 1);
  uint8_t len_be[8];
  for (int i = 0; i < 8; ++i) len_be[i] = uint8_t(bits >> (56 - i * 8));
  // Bypass bit_count_ bookkeeping for the length field itself.
  std::memcpy(buffer_ + 56, len_be, 8);
  ProcessBlocks(buffer_, 1);
  buffer_len_ = 0;

  Hash256 out;
  for (int i = 0; i < 8; ++i) {
    out.bytes[i * 4] = uint8_t(state_[i] >> 24);
    out.bytes[i * 4 + 1] = uint8_t(state_[i] >> 16);
    out.bytes[i * 4 + 2] = uint8_t(state_[i] >> 8);
    out.bytes[i * 4 + 3] = uint8_t(state_[i]);
  }
  return out;
}

Hash256 Sha256::Digest(Slice s) {
  Sha256 h;
  h.Update(s);
  return h.Finish();
}

Hash256 Sha256::Digest2(Slice a, Slice b) {
  Sha256 h;
  h.Update(a);
  h.Update(b);
  return h.Finish();
}

void Sha256::DigestPairs(const Hash256* nodes, size_t n_pairs, Hash256* out) {
#if BB_SHA256_X86
  if (BatchIsa() == Isa::kAvx2) {
    size_t i = 0;
    for (; i + 8 <= n_pairs; i += 8) {
      Hash256* out8[8];
      for (int l = 0; l < 8; ++l) out8[l] = &out[i + l];
      Avx2DigestPairs8(nodes + 2 * i, out8);
    }
    for (; i < n_pairs; ++i) {
      out[i] = Digest2(
          Slice(reinterpret_cast<const char*>(nodes[2 * i].bytes.data()), 32),
          Slice(reinterpret_cast<const char*>(nodes[2 * i + 1].bytes.data()),
                32));
    }
    return;
  }
#endif
  for (size_t i = 0; i < n_pairs; ++i) {
    out[i] = Digest2(
        Slice(reinterpret_cast<const char*>(nodes[2 * i].bytes.data()), 32),
        Slice(reinterpret_cast<const char*>(nodes[2 * i + 1].bytes.data()),
              32));
  }
}

}  // namespace bb
