#include "crypto/chacha20.hpp"

#include <algorithm>
#include <cstring>

#include "crypto/cpu_features.hpp"

#if defined(__x86_64__)
#define SOS_CHACHA20_X8 1
#include <immintrin.h>
#else
#define SOS_CHACHA20_X8 0
#endif

namespace sos::crypto {

namespace {
constexpr std::size_t kBlockSize = 64;

inline std::uint32_t rotl(std::uint32_t x, int n) { return (x << n) | (x >> (32 - n)); }

inline void quarter_round(std::uint32_t& a, std::uint32_t& b, std::uint32_t& c,
                          std::uint32_t& d) {
  a += b;
  d = rotl(d ^ a, 16);
  c += d;
  b = rotl(b ^ c, 12);
  a += b;
  d = rotl(d ^ a, 8);
  c += d;
  b = rotl(b ^ c, 7);
}

// The 16-word input block for (key, counter, nonce), RFC 8439 §2.3.
void init_state(std::uint32_t state[16], const std::uint8_t key[kChaChaKeySize],
                std::uint32_t counter, const std::uint8_t nonce[kChaChaNonceSize]) {
  state[0] = 0x61707865;
  state[1] = 0x3320646e;
  state[2] = 0x79622d32;
  state[3] = 0x6b206574;
  for (int i = 0; i < 8; ++i) state[4 + i] = util::load32_le(key + 4 * i);
  state[12] = counter;
  for (int i = 0; i < 3; ++i) state[13 + i] = util::load32_le(nonce + 4 * i);
}

#if SOS_CHACHA20_X8
// Eight blocks side by side: word i of block j is lane j of x[i], so the
// quarter round is the scalar one on whole vectors.
typedef std::uint32_t u32x8 __attribute__((vector_size(32)));

__attribute__((target("avx2"), always_inline)) inline void quarter_round_x8(u32x8& a,
                                                                            u32x8& b,
                                                                            u32x8& c,
                                                                            u32x8& d) {
  a += b;
  d ^= a;
  d = (d << 16) | (d >> 16);
  c += d;
  b ^= c;
  b = (b << 12) | (b >> 20);
  a += b;
  d ^= a;
  d = (d << 8) | (d >> 24);
  c += d;
  b ^= c;
  b = (b << 7) | (b >> 25);
}

// Transposes eight rows of eight words: row j of the result is lane j of
// every input row, i.e. 32 consecutive keystream bytes of block j.
__attribute__((target("avx2"), always_inline)) inline void transpose8(const u32x8 rows[8],
                                                                      __m256i out[8]) {
  __m256i t[8], u[8];
  for (int i = 0; i < 8; i += 2) {
    t[i] = _mm256_unpacklo_epi32((__m256i)rows[i], (__m256i)rows[i + 1]);
    t[i + 1] = _mm256_unpackhi_epi32((__m256i)rows[i], (__m256i)rows[i + 1]);
  }
  for (int i = 0; i < 8; i += 4) {
    u[i] = _mm256_unpacklo_epi64(t[i], t[i + 2]);
    u[i + 1] = _mm256_unpackhi_epi64(t[i], t[i + 2]);
    u[i + 2] = _mm256_unpacklo_epi64(t[i + 1], t[i + 3]);
    u[i + 3] = _mm256_unpackhi_epi64(t[i + 1], t[i + 3]);
  }
  for (int j = 0; j < 4; ++j) {
    out[j] = _mm256_permute2x128_si256(u[j], u[j + 4], 0x20);
    out[j + 4] = _mm256_permute2x128_si256(u[j], u[j + 4], 0x31);
  }
}
#endif
}  // namespace

std::array<std::uint8_t, 64> chacha20_block(const std::uint8_t key[kChaChaKeySize],
                                            std::uint32_t counter,
                                            const std::uint8_t nonce[kChaChaNonceSize]) {
  std::uint32_t state[16];
  init_state(state, key, counter, nonce);

  std::uint32_t x[16];
  std::memcpy(x, state, sizeof(x));
  for (int round = 0; round < 10; ++round) {
    quarter_round(x[0], x[4], x[8], x[12]);
    quarter_round(x[1], x[5], x[9], x[13]);
    quarter_round(x[2], x[6], x[10], x[14]);
    quarter_round(x[3], x[7], x[11], x[15]);
    quarter_round(x[0], x[5], x[10], x[15]);
    quarter_round(x[1], x[6], x[11], x[12]);
    quarter_round(x[2], x[7], x[8], x[13]);
    quarter_round(x[3], x[4], x[9], x[14]);
  }
  std::array<std::uint8_t, 64> out;
  for (int i = 0; i < 16; ++i) util::store32_le(out.data() + 4 * i, x[i] + state[i]);
  return out;
}

namespace detail {

void chacha20_xor_scalar(const std::uint8_t key[kChaChaKeySize], std::uint32_t counter,
                         const std::uint8_t nonce[kChaChaNonceSize], std::uint8_t* data,
                         std::size_t len) {
  std::size_t off = 0;
  while (off < len) {
    auto ks = chacha20_block(key, counter++, nonce);
    std::size_t take = std::min(kBlockSize, len - off);
    for (std::size_t i = 0; i < take; ++i) data[off + i] ^= ks[i];
    off += take;
  }
}

#if SOS_CHACHA20_X8
__attribute__((target("avx2"))) void chacha20_xor_x8(const std::uint8_t key[kChaChaKeySize],
                                                     std::uint32_t counter,
                                                     const std::uint8_t nonce[kChaChaNonceSize],
                                                     std::uint8_t* data, std::size_t len) {
  constexpr std::size_t kPass = 8 * kBlockSize;
  std::uint32_t state[16];
  init_state(state, key, counter, nonce);
  std::size_t off = 0;
  // One pass costs less than two scalar blocks but more than one, so the
  // lanes run only while more than one block remains.
  while (len - off > kBlockSize) {
    u32x8 in[16];
    for (int i = 0; i < 16; ++i) in[i] = u32x8{} + state[i];
    in[12] += u32x8{0, 1, 2, 3, 4, 5, 6, 7};
    u32x8 x[16];
    for (int i = 0; i < 16; ++i) x[i] = in[i];
    for (int round = 0; round < 10; ++round) {
      quarter_round_x8(x[0], x[4], x[8], x[12]);
      quarter_round_x8(x[1], x[5], x[9], x[13]);
      quarter_round_x8(x[2], x[6], x[10], x[14]);
      quarter_round_x8(x[3], x[7], x[11], x[15]);
      quarter_round_x8(x[0], x[5], x[10], x[15]);
      quarter_round_x8(x[1], x[6], x[11], x[12]);
      quarter_round_x8(x[2], x[7], x[8], x[13]);
      quarter_round_x8(x[3], x[4], x[9], x[14]);
    }
    for (int i = 0; i < 16; ++i) x[i] += in[i];

    // Words 0-7 and 8-15 of each block, transposed into keystream order
    // (x86-64 is little-endian, so a stored word is its RFC byte order).
    alignas(32) std::uint8_t ks[kPass];
    __m256i rows[8];
    for (int half = 0; half < 2; ++half) {
      transpose8(x + 8 * half, rows);
      for (int j = 0; j < 8; ++j)
        _mm256_store_si256(reinterpret_cast<__m256i*>(ks + kBlockSize * j + 32 * half), rows[j]);
    }
    const std::size_t take = std::min(kPass, len - off);
    std::size_t i = 0;
    for (; i + 32 <= take; i += 32) {
      auto* p = reinterpret_cast<__m256i*>(data + off + i);
      _mm256_storeu_si256(p, _mm256_xor_si256(_mm256_loadu_si256(p),
                                              _mm256_load_si256(
                                                  reinterpret_cast<const __m256i*>(ks + i))));
    }
    for (; i < take; ++i) data[off + i] ^= ks[i];
    off += take;
    state[12] += 8;
  }
  chacha20_xor_scalar(key, state[12], nonce, data + off, len - off);
}
#else
void chacha20_xor_x8(const std::uint8_t key[kChaChaKeySize], std::uint32_t counter,
                     const std::uint8_t nonce[kChaChaNonceSize], std::uint8_t* data,
                     std::size_t len) {
  chacha20_xor_scalar(key, counter, nonce, data, len);
}
#endif

}  // namespace detail

void chacha20_xor(const std::uint8_t key[kChaChaKeySize], std::uint32_t counter,
                  const std::uint8_t nonce[kChaChaNonceSize], std::uint8_t* data,
                  std::size_t len) {
  if (detail::cpu_features().avx2) {
    detail::chacha20_xor_x8(key, counter, nonce, data, len);
  } else {
    detail::chacha20_xor_scalar(key, counter, nonce, data, len);
  }
}

util::Bytes chacha20(const std::uint8_t key[kChaChaKeySize], std::uint32_t counter,
                     const std::uint8_t nonce[kChaChaNonceSize], util::ByteView data) {
  util::Bytes out(data.begin(), data.end());
  chacha20_xor(key, counter, nonce, out.data(), out.size());
  return out;
}

}  // namespace sos::crypto
