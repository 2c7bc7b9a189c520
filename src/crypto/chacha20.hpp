// ChaCha20 stream cipher (RFC 8439): block function and XOR keystream.
// chacha20_xor runs eight blocks per pass on AVX2 where the CPU has it, else
// one block at a time; both produce identical keystreams.
#pragma once

#include <array>
#include <cstdint>

#include "util/bytes.hpp"

namespace sos::crypto {

constexpr std::size_t kChaChaKeySize = 32;
constexpr std::size_t kChaChaNonceSize = 12;

/// One 64-byte ChaCha20 block for (key, counter, nonce).
std::array<std::uint8_t, 64> chacha20_block(const std::uint8_t key[kChaChaKeySize],
                                            std::uint32_t counter,
                                            const std::uint8_t nonce[kChaChaNonceSize]);

/// XOR `data` with the keystream starting at block `counter` (in place).
void chacha20_xor(const std::uint8_t key[kChaChaKeySize], std::uint32_t counter,
                  const std::uint8_t nonce[kChaChaNonceSize], std::uint8_t* data,
                  std::size_t len);

/// Convenience: returns the transformed copy.
util::Bytes chacha20(const std::uint8_t key[kChaChaKeySize], std::uint32_t counter,
                     const std::uint8_t nonce[kChaChaNonceSize], util::ByteView data);

namespace detail {
/// The two chacha20_xor kernels, exposed so tests can pin each against the
/// RFC vectors whichever one the dispatcher picks. Block counters wrap
/// modulo 2^32 in both. The 8-lane kernel makes eight keystream blocks per
/// pass while more than one block of `data` remains, and hands a tail of
/// one block or less to the scalar one; it may be called only when
/// cpu_features().avx2 holds. On targets other than x86-64 it is the scalar
/// kernel.
void chacha20_xor_scalar(const std::uint8_t key[kChaChaKeySize], std::uint32_t counter,
                         const std::uint8_t nonce[kChaChaNonceSize], std::uint8_t* data,
                         std::size_t len);
void chacha20_xor_x8(const std::uint8_t key[kChaChaKeySize], std::uint32_t counter,
                     const std::uint8_t nonce[kChaChaNonceSize], std::uint8_t* data,
                     std::size_t len);
}  // namespace detail

}  // namespace sos::crypto
