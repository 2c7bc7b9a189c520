// SHA-256 (FIPS 180-4). Incremental and one-shot APIs. The compression
// function runs on SHA-NI where the CPU has it, else on the scalar kernel;
// both produce identical digests.
#pragma once

#include <array>
#include <cstdint>

#include "util/bytes.hpp"

namespace sos::crypto {

class Sha256 {
 public:
  static constexpr std::size_t kDigestSize = 32;
  static constexpr std::size_t kBlockSize = 64;
  using Digest = std::array<std::uint8_t, kDigestSize>;

  Sha256();
  void update(util::ByteView data);
  Digest finish();

  static Digest hash(util::ByteView data);

 private:
  /// Compresses `nblocks` whole 64-byte blocks into h_.
  void compress(const std::uint8_t* blocks, std::size_t nblocks);

  std::uint32_t h_[8];
  std::uint8_t buf_[kBlockSize];
  std::size_t buf_len_ = 0;
  std::uint64_t total_len_ = 0;
};

namespace detail {
/// The two compression kernels, exposed so tests can pin each against the
/// FIPS vectors whichever one the dispatcher picks. Both fold `nblocks`
/// whole 64-byte blocks into `state`. The SHA-NI kernel may be called only
/// when cpu_features().sha_ni holds; on targets other than x86-64 it is the
/// scalar kernel.
void sha256_compress_scalar(std::uint32_t state[8], const std::uint8_t* blocks,
                            std::size_t nblocks);
void sha256_compress_shani(std::uint32_t state[8], const std::uint8_t* blocks,
                           std::size_t nblocks);
}  // namespace detail

}  // namespace sos::crypto
