#include "crypto/sha256.hpp"

#include <cstring>

#include "crypto/cpu_features.hpp"

#if defined(__x86_64__)
#define SOS_SHA256_SHANI 1
#include <immintrin.h>
#else
#define SOS_SHA256_SHANI 0
#endif

namespace sos::crypto {

namespace {
constexpr std::uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
    0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
    0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
    0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
    0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
    0xc67178f2};

inline std::uint32_t rotr(std::uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }
}  // namespace

Sha256::Sha256() {
  static constexpr std::uint32_t kInit[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                                             0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  std::memcpy(h_, kInit, sizeof(h_));
}

namespace detail {

void sha256_compress_scalar(std::uint32_t state[8], const std::uint8_t* blocks,
                            std::size_t nblocks) {
  for (; nblocks > 0; --nblocks, blocks += Sha256::kBlockSize) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) w[i] = util::load32_be(blocks + 4 * i);
    for (int i = 16; i < 64; ++i) {
      std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      std::uint32_t ch = (e & f) ^ (~e & g);
      std::uint32_t t1 = h + s1 + ch + kK[i] + w[i];
      std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      std::uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
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

#if SOS_SHA256_SHANI
// SHA-NI keeps the state as two registers of four words, {A,B,E,F} and
// {C,D,G,H}. sha256rnds2 runs two rounds on the low two words of
// (message + K) and returns the new {A,B,E,F}; the old one becomes the new
// {C,D,G,H}, so alternating the operands needs no moves. msg1/msg2 extend
// the schedule four words at a time. Register names list lanes high to low.
__attribute__((target("sha,sse4.1"))) void sha256_compress_shani(
    std::uint32_t state[8], const std::uint8_t* blocks, std::size_t nblocks) {
  const __m128i bswap = _mm_set_epi8(12, 13, 14, 15, 8, 9, 10, 11, 4, 5, 6, 7, 0, 1, 2, 3);
  auto load = [](const void* p) { return _mm_loadu_si128(static_cast<const __m128i*>(p)); };
  const __m128i cdab = _mm_shuffle_epi32(load(state), 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(load(state + 4), 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);
  for (; nblocks > 0; --nblocks, blocks += Sha256::kBlockSize) {
    const __m128i abef_in = abef, cdgh_in = cdgh;
    __m128i m0 = _mm_shuffle_epi8(load(blocks), bswap);
    __m128i m1 = _mm_shuffle_epi8(load(blocks + 16), bswap);
    __m128i m2 = _mm_shuffle_epi8(load(blocks + 32), bswap);
    __m128i m3 = _mm_shuffle_epi8(load(blocks + 48), bswap);
    for (int q = 0; q < 16; ++q) {
      const __m128i wk = _mm_add_epi32(m0, load(kK + 4 * q));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
      // W[t..t+3] from W[t-16..t-1]: msg1 adds sigma0, the aligned middle
      // words add W[t-7..t-4], msg2 adds sigma1. The last four quads need
      // no further schedule.
      const __m128i next =
          q < 12 ? _mm_sha256msg2_epu32(
                       _mm_add_epi32(_mm_sha256msg1_epu32(m0, m1), _mm_alignr_epi8(m3, m2, 4)),
                       m3)
                 : m3;
      m0 = m1;
      m1 = m2;
      m2 = m3;
      m3 = next;
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }
  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), _mm_alignr_epi8(dchg, feba, 8));
}
#else
void sha256_compress_shani(std::uint32_t state[8], const std::uint8_t* blocks,
                           std::size_t nblocks) {
  sha256_compress_scalar(state, blocks, nblocks);
}
#endif

}  // namespace detail

void Sha256::compress(const std::uint8_t* blocks, std::size_t nblocks) {
  if (detail::cpu_features().sha_ni) {
    detail::sha256_compress_shani(h_, blocks, nblocks);
  } else {
    detail::sha256_compress_scalar(h_, blocks, nblocks);
  }
}

void Sha256::update(util::ByteView data) {
  // An empty view may carry a null data() pointer, and memcpy from null is
  // UB even at size 0.
  if (data.empty()) return;
  total_len_ += data.size();
  std::size_t off = 0;
  if (buf_len_ > 0) {
    std::size_t need = kBlockSize - buf_len_;
    std::size_t take = std::min(need, data.size());
    std::memcpy(buf_ + buf_len_, data.data(), take);
    buf_len_ += take;
    off = take;
    if (buf_len_ == kBlockSize) {
      compress(buf_, 1);
      buf_len_ = 0;
    }
  }
  // Every whole block in one call, so a hardware kernel keeps the state in
  // registers across them.
  if (std::size_t whole = (data.size() - off) / kBlockSize; whole > 0) {
    compress(data.data() + off, whole);
    off += whole * kBlockSize;
  }
  if (off < data.size()) {
    std::memcpy(buf_, data.data() + off, data.size() - off);
    buf_len_ = data.size() - off;
  }
}

Sha256::Digest Sha256::finish() {
  std::uint64_t bit_len = total_len_ * 8;
  std::uint8_t pad[kBlockSize * 2] = {0x80};
  std::size_t pad_len = (buf_len_ < 56) ? (56 - buf_len_) : (120 - buf_len_);
  std::uint8_t len_bytes[8];
  util::store64_be(len_bytes, bit_len);
  update(util::ByteView(pad, pad_len));
  update(util::ByteView(len_bytes, 8));
  Digest out;
  for (int i = 0; i < 8; ++i) util::store32_be(out.data() + 4 * i, h_[i]);
  return out;
}

Sha256::Digest Sha256::hash(util::ByteView data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

}  // namespace sos::crypto
