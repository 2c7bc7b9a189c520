// Crypto substrate tests: RFC known-answer vectors for every primitive plus
// property sweeps (round trips, tamper rejection, DH commutativity).
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "crypto/aead.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/cpu_features.hpp"
#include "crypto/drbg.hpp"
#include "crypto/ed25519.hpp"
#include "crypto/hkdf.hpp"
#include "crypto/hmac.hpp"
#include "crypto/poly1305.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha512.hpp"
#include "crypto/verify_memo.hpp"
#include "crypto/x25519.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace sc = sos::crypto;
namespace su = sos::util;

namespace {
su::Bytes unhex(const std::string& s) {
  auto b = su::hex_decode(s);
  EXPECT_TRUE(b.has_value()) << s;
  return b.value_or(su::Bytes{});
}

template <std::size_t N>
std::array<std::uint8_t, N> unhex_array(const std::string& s) {
  return su::to_array<N>(unhex(s));
}

template <typename Arr>
std::string hex(const Arr& a) {
  return su::hex_encode(su::ByteView(a.data(), a.size()));
}
}  // namespace

// --- SHA-256 (FIPS 180-4 / NIST CAVS vectors) -------------------------

struct ShaVector {
  const char* msg;
  const char* digest;
};

class Sha256Vectors : public ::testing::TestWithParam<ShaVector> {};

TEST_P(Sha256Vectors, KnownAnswer) {
  const auto& v = GetParam();
  auto d = sc::Sha256::hash(su::to_bytes(v.msg));
  EXPECT_EQ(hex(d), v.digest);
}

INSTANTIATE_TEST_SUITE_P(
    Nist, Sha256Vectors,
    ::testing::Values(
        ShaVector{"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
        ShaVector{"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
        ShaVector{"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                  "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
        ShaVector{"The quick brown fox jumps over the lazy dog",
                  "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592"}));

TEST(Sha256, MillionA) {
  sc::Sha256 h;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(su::to_bytes(chunk));
  EXPECT_EQ(hex(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  su::Rng rng(3);
  su::Bytes msg(300);
  for (auto& b : msg) b = static_cast<std::uint8_t>(rng.next());
  for (std::size_t split = 0; split <= msg.size(); split += 37) {
    sc::Sha256 h;
    h.update(su::ByteView(msg.data(), split));
    h.update(su::ByteView(msg.data() + split, msg.size() - split));
    EXPECT_EQ(h.finish(), sc::Sha256::hash(msg));
  }
}

TEST(Sha256, BoundaryLengths) {
  // Exercise the padding branch around the 56-byte boundary.
  for (std::size_t len : {55u, 56u, 57u, 63u, 64u, 65u}) {
    su::Bytes msg(len, 'x');
    sc::Sha256 a;
    a.update(msg);
    auto one = a.finish();
    sc::Sha256 b;
    for (std::size_t i = 0; i < len; ++i) b.update(su::ByteView(&msg[i], 1));
    EXPECT_EQ(one, b.finish()) << len;
  }
}

// --- SHA-256 compression kernels --------------------------------------
// Each kernel is driven directly, not through the dispatcher, so the scalar
// reference stays pinned on CPUs that dispatch to SHA-NI and vice versa.

struct Sha256Kernel {
  const char* name;
  void (*compress)(std::uint32_t[8], const std::uint8_t*, std::size_t);
  bool (*available)();
  const char* feature;
};

class Sha256Kernels : public ::testing::TestWithParam<Sha256Kernel> {
 protected:
  void SetUp() override {
    if (!GetParam().available()) GTEST_SKIP() << "CPU lacks " << GetParam().feature;
  }

  // FIPS 180-4 padding around one call of the kernel over every block.
  std::string digest(su::ByteView msg) const {
    std::uint32_t h[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                          0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
    su::Bytes padded(msg.begin(), msg.end());
    padded.push_back(0x80);
    while (padded.size() % sc::Sha256::kBlockSize != 56) padded.push_back(0);
    padded.resize(padded.size() + 8);
    su::store64_be(padded.data() + padded.size() - 8, msg.size() * 8);
    GetParam().compress(h, padded.data(), padded.size() / sc::Sha256::kBlockSize);
    sc::Sha256::Digest out;
    for (int i = 0; i < 8; ++i) su::store32_be(out.data() + 4 * i, h[i]);
    return hex(out);
  }
};

TEST_P(Sha256Kernels, FipsVectors) {
  EXPECT_EQ(digest(su::to_bytes("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(digest(su::to_bytes("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(digest(su::to_bytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  EXPECT_EQ(digest(su::to_bytes("abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn"
                                "hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu")),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1");
}

TEST_P(Sha256Kernels, MillionA) {
  EXPECT_EQ(digest(su::Bytes(1000000, 'a')),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST_P(Sha256Kernels, BoundarySweepMatchesIncremental) {
  // 0..300 bytes crosses every padding case and one to five blocks per call.
  su::Rng rng(11);
  su::Bytes msg;
  for (std::size_t len = 0; len <= 300; ++len) {
    EXPECT_EQ(digest(msg), hex(sc::Sha256::hash(msg))) << len;
    msg.push_back(static_cast<std::uint8_t>(rng.next()));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, Sha256Kernels,
    ::testing::Values(
        Sha256Kernel{"scalar", sc::detail::sha256_compress_scalar, [] { return true; }, ""},
        Sha256Kernel{"shani", sc::detail::sha256_compress_shani,
                     [] { return sc::detail::cpu_features().sha_ni; }, "SHA-NI"}),
    [](const ::testing::TestParamInfo<Sha256Kernel>& p) { return p.param.name; });

// --- SHA-512 -----------------------------------------------------------

class Sha512Vectors : public ::testing::TestWithParam<ShaVector> {};

TEST_P(Sha512Vectors, KnownAnswer) {
  const auto& v = GetParam();
  auto d = sc::Sha512::hash(su::to_bytes(v.msg));
  EXPECT_EQ(hex(d), v.digest);
}

INSTANTIATE_TEST_SUITE_P(
    Nist, Sha512Vectors,
    ::testing::Values(
        ShaVector{"", "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce"
                      "47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e"},
        ShaVector{"abc", "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
                         "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f"},
        ShaVector{"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
                  "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
                  "8e959b75dae313da8cf4f72814fc143f8f7779c6eb9f7fa17299aeadb6889018"
                  "501d289e4900f7e4331b99dec4b5433ac7d329eeb6dd26545e96e55b874be909"}));

TEST(Sha512, BoundaryLengths) {
  for (std::size_t len : {111u, 112u, 113u, 127u, 128u, 129u}) {
    su::Bytes msg(len, 'y');
    sc::Sha512 a;
    a.update(msg);
    auto one = a.finish();
    sc::Sha512 b;
    for (std::size_t i = 0; i < len; ++i) b.update(su::ByteView(&msg[i], 1));
    EXPECT_EQ(one, b.finish()) << len;
  }
}

// --- HMAC (RFC 4231) ----------------------------------------------------

TEST(Hmac, Rfc4231Case1) {
  su::Bytes key(20, 0x0b);
  auto mac = sc::hmac_sha256(key, su::to_bytes("Hi There"));
  EXPECT_EQ(hex(mac), "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
  auto mac512 = sc::hmac_sha512(key, su::to_bytes("Hi There"));
  EXPECT_EQ(hex(mac512),
            "87aa7cdea5ef619d4ff0b4241a1d6cb02379f4e2ce4ec2787ad0b30545e17cde"
            "daa833b7d6b8a702038b274eaea3f4e4be9d914eeb61f1702e696c203a126854");
}

TEST(Hmac, Rfc4231Case2) {
  auto mac = sc::hmac_sha256(su::to_bytes("Jefe"), su::to_bytes("what do ya want for nothing?"));
  EXPECT_EQ(hex(mac), "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case3) {
  su::Bytes key(20, 0xaa);
  su::Bytes data(50, 0xdd);
  auto mac = sc::hmac_sha256(key, data);
  EXPECT_EQ(hex(mac), "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(Hmac, LongKeyIsHashed) {
  // RFC 4231 case 6: 131-byte key exercises the key-hash path.
  su::Bytes key(131, 0xaa);
  auto mac = sc::hmac_sha256(key, su::to_bytes("Test Using Larger Than Block-Size Key - Hash Key First"));
  EXPECT_EQ(hex(mac), "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

// --- HKDF (RFC 5869) ------------------------------------------------------

TEST(Hkdf, Rfc5869Case1) {
  su::Bytes ikm(22, 0x0b);
  auto salt = unhex("000102030405060708090a0b0c");
  auto info = unhex("f0f1f2f3f4f5f6f7f8f9");
  auto prk = sc::hkdf_extract(salt, ikm);
  EXPECT_EQ(su::hex_encode(prk),
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5");
  auto okm = sc::hkdf_expand(prk, info, 42);
  EXPECT_EQ(su::hex_encode(okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

TEST(Hkdf, Rfc5869Case3ZeroSaltInfo) {
  su::Bytes ikm(22, 0x0b);
  auto okm = sc::hkdf(su::Bytes{}, ikm, su::Bytes{}, 42);
  EXPECT_EQ(su::hex_encode(okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
            "9d201395faa4b61a96c8");
}

TEST(Hkdf, OutputLengthSweep) {
  for (std::size_t len : {1u, 16u, 31u, 32u, 33u, 64u, 100u}) {
    auto okm = sc::hkdf(su::to_bytes("salt"), su::to_bytes("ikm"), su::to_bytes("info"), len);
    EXPECT_EQ(okm.size(), len);
  }
  // Prefix consistency: shorter outputs are prefixes of longer ones.
  auto a = sc::hkdf(su::to_bytes("s"), su::to_bytes("i"), su::to_bytes("x"), 16);
  auto b = sc::hkdf(su::to_bytes("s"), su::to_bytes("i"), su::to_bytes("x"), 64);
  EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
}

// --- ChaCha20 (RFC 8439) --------------------------------------------------

TEST(ChaCha20, Rfc8439Block) {
  auto key = unhex_array<32>(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  auto nonce = unhex_array<12>("000000090000004a00000000");
  auto block = sc::chacha20_block(key.data(), 1, nonce.data());
  EXPECT_EQ(su::hex_encode(su::ByteView(block.data(), 64)),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e");
}

TEST(ChaCha20, Rfc8439Encrypt) {
  auto key = unhex_array<32>(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  auto nonce = unhex_array<12>("000000000000004a00000000");
  std::string pt =
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.";
  auto ct = sc::chacha20(key.data(), 1, nonce.data(), su::to_bytes(pt));
  EXPECT_EQ(su::hex_encode(ct),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
            "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
            "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
            "5af90bbf74a35be6b40b8eedf2785e42874d");
}

TEST(ChaCha20, XorIsInvolution) {
  auto key = unhex_array<32>(
      "1f1e1d1c1b1a191817161514131211100f0e0d0c0b0a09080706050403020100");
  auto nonce = unhex_array<12>("000000000000000000000002");
  su::Bytes msg = su::to_bytes("attack at dawn");
  auto ct = sc::chacha20(key.data(), 7, nonce.data(), msg);
  auto pt = sc::chacha20(key.data(), 7, nonce.data(), ct);
  EXPECT_EQ(pt, msg);
  EXPECT_NE(ct, msg);
}

// --- ChaCha20 kernels ---------------------------------------------------
// As for SHA-256: each kernel is driven directly, bypassing the dispatcher.

struct ChaChaKernel {
  const char* name;
  void (*xor_stream)(const std::uint8_t*, std::uint32_t, const std::uint8_t*, std::uint8_t*,
                     std::size_t);
  bool (*available)();
  const char* feature;
};

class ChaCha20Kernels : public ::testing::TestWithParam<ChaChaKernel> {
 protected:
  void SetUp() override {
    if (!GetParam().available()) GTEST_SKIP() << "CPU lacks " << GetParam().feature;
  }
};

TEST_P(ChaCha20Kernels, Rfc8439Encrypt) {
  // RFC 8439 §2.4.2: 114 bytes from counter 1, two blocks.
  auto key = unhex_array<32>(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  auto nonce = unhex_array<12>("000000000000004a00000000");
  su::Bytes data = su::to_bytes(
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.");
  GetParam().xor_stream(key.data(), 1, nonce.data(), data.data(), data.size());
  EXPECT_EQ(su::hex_encode(data),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
            "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
            "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
            "5af90bbf74a35be6b40b8eedf2785e42874d");
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, ChaCha20Kernels,
    ::testing::Values(
        ChaChaKernel{"scalar", sc::detail::chacha20_xor_scalar, [] { return true; }, ""},
        ChaChaKernel{"x8", sc::detail::chacha20_xor_x8,
                     [] { return sc::detail::cpu_features().avx2; }, "AVX2"}),
    [](const ::testing::TestParamInfo<ChaChaKernel>& p) { return p.param.name; });

TEST(ChaCha20X8, MatchesScalarAcrossLengthsAndCounterWrap) {
  if (!sc::detail::cpu_features().avx2) GTEST_SKIP() << "CPU lacks AVX2";
  // 0..1100 bytes covers the one-block tail rule, partial and whole 8-block
  // passes; 0xFFFFFFF9 wraps the block counter inside the first pass.
  su::Rng rng(5);
  su::Bytes key(32), nonce(12), msg(1100);
  for (auto* buf : {&key, &nonce, &msg})
    for (auto& b : *buf) b = static_cast<std::uint8_t>(rng.next());
  for (std::uint32_t counter : {0u, 1u, 0xFFFFFFF9u}) {
    for (std::size_t len = 0; len <= msg.size(); ++len) {
      su::Bytes want(msg.begin(), msg.begin() + static_cast<std::ptrdiff_t>(len));
      su::Bytes got = want;
      sc::detail::chacha20_xor_scalar(key.data(), counter, nonce.data(), want.data(), len);
      sc::detail::chacha20_xor_x8(key.data(), counter, nonce.data(), got.data(), len);
      ASSERT_EQ(got, want) << "counter " << counter << " length " << len;
    }
  }
}

// --- Poly1305 (RFC 8439) ----------------------------------------------------

TEST(Poly1305, Rfc8439Vector) {
  auto key = unhex_array<32>(
      "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b");
  auto tag = sc::Poly1305::mac(key.data(), su::to_bytes("Cryptographic Forum Research Group"));
  EXPECT_EQ(hex(tag), "a8061dc1305136c6c22b8baf0c0127a9");
}

TEST(Poly1305, IncrementalMatchesOneShot) {
  auto key = unhex_array<32>(
      "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b");
  su::Bytes msg(123);
  su::Rng rng(9);
  for (auto& b : msg) b = static_cast<std::uint8_t>(rng.next());
  auto one = sc::Poly1305::mac(key.data(), msg);
  sc::Poly1305 p(key.data());
  p.update(su::ByteView(msg.data(), 10));
  p.update(su::ByteView(msg.data() + 10, 50));
  p.update(su::ByteView(msg.data() + 60, 63));
  EXPECT_EQ(one, p.finish());
}

// --- AEAD (RFC 8439 §2.8.2) ---------------------------------------------------

TEST(Aead, Rfc8439Vector) {
  auto key = unhex_array<32>(
      "808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f");
  auto nonce = unhex_array<12>("070000004041424344454647");
  auto aad = unhex("50515253c0c1c2c3c4c5c6c7");
  std::string pt =
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.";
  auto sealed = sc::aead_seal(key.data(), nonce.data(), aad, su::to_bytes(pt));
  EXPECT_EQ(su::hex_encode(sealed),
            "d31a8d34648e60db7b86afbc53ef7ec2a4aded51296e08fea9e2b5a736ee62d6"
            "3dbea45e8ca9671282fafb69da92728b1a71de0a9e060b2905d6a5b67ecd3b36"
            "92ddbd7f2d778b8c9803aee328091b58fab324e4fad675945585808b4831d7bc"
            "3ff4def08e4b7a9de576d26586cec64b6116"
            "1ae10b594f09e26a7e902ecbd0600691");
  auto opened = sc::aead_open(key.data(), nonce.data(), aad, sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(su::to_string(*opened), pt);
}

TEST(Aead, RejectsTamperedCiphertextEveryByte) {
  auto key = unhex_array<32>(
      "808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f");
  auto nonce = unhex_array<12>("070000004041424344454647");
  auto sealed = sc::aead_seal(key.data(), nonce.data(), su::Bytes{}, su::to_bytes("secret"));
  for (std::size_t i = 0; i < sealed.size(); ++i) {
    auto bad = sealed;
    bad[i] ^= 0x01;
    EXPECT_FALSE(sc::aead_open(key.data(), nonce.data(), su::Bytes{}, bad).has_value())
        << "byte " << i;
  }
}

TEST(Aead, RejectsWrongAad) {
  auto key = unhex_array<32>(
      "808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f");
  auto nonce = unhex_array<12>("070000004041424344454647");
  auto sealed = sc::aead_seal(key.data(), nonce.data(), su::to_bytes("aad-a"), su::to_bytes("m"));
  EXPECT_FALSE(sc::aead_open(key.data(), nonce.data(), su::to_bytes("aad-b"), sealed).has_value());
}

TEST(Aead, RejectsTooShort) {
  auto key = unhex_array<32>(
      "808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f");
  auto nonce = unhex_array<12>("070000004041424344454647");
  su::Bytes tiny(10, 0);
  EXPECT_FALSE(sc::aead_open(key.data(), nonce.data(), su::Bytes{}, tiny).has_value());
}

class AeadRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AeadRoundTrip, VariousLengths) {
  std::size_t len = GetParam();
  su::Rng rng(len + 1);
  su::Bytes pt(len);
  for (auto& b : pt) b = static_cast<std::uint8_t>(rng.next());
  std::uint8_t key[32], nonce[12];
  for (auto& k : key) k = static_cast<std::uint8_t>(rng.next());
  for (auto& n : nonce) n = static_cast<std::uint8_t>(rng.next());
  auto sealed = sc::aead_seal(key, nonce, su::to_bytes("hdr"), pt);
  EXPECT_EQ(sealed.size(), len + sc::kAeadTagSize);
  auto opened = sc::aead_open(key, nonce, su::to_bytes("hdr"), sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, pt);
}

INSTANTIATE_TEST_SUITE_P(Lengths, AeadRoundTrip,
                         ::testing::Values(0, 1, 15, 16, 17, 63, 64, 65, 1000, 65536));

// --- X25519 (RFC 7748) ---------------------------------------------------------

TEST(X25519, Rfc7748Vector1) {
  auto scalar = unhex_array<32>(
      "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4");
  auto point = unhex_array<32>(
      "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c");
  auto out = sc::x25519(scalar, point);
  EXPECT_EQ(hex(out), "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552");
}

TEST(X25519, Rfc7748Vector2) {
  auto scalar = unhex_array<32>(
      "4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d");
  auto point = unhex_array<32>(
      "e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493");
  auto out = sc::x25519(scalar, point);
  EXPECT_EQ(hex(out), "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957");
}

TEST(X25519, Rfc7748DiffieHellman) {
  auto alice_priv = unhex_array<32>(
      "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a");
  auto bob_priv = unhex_array<32>(
      "5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb");
  auto alice_pub = sc::x25519_base(alice_priv);
  auto bob_pub = sc::x25519_base(bob_priv);
  EXPECT_EQ(hex(alice_pub), "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a");
  EXPECT_EQ(hex(bob_pub), "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f");
  auto k1 = sc::x25519(alice_priv, bob_pub);
  auto k2 = sc::x25519(bob_priv, alice_pub);
  EXPECT_EQ(hex(k1), "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742");
  EXPECT_EQ(k1, k2);
}

class X25519Commute : public ::testing::TestWithParam<int> {};

TEST_P(X25519Commute, SharedSecretsAgree) {
  sc::Drbg drbg(su::to_bytes("x25519-commute-" + std::to_string(GetParam())));
  auto a = drbg.generate_array<32>();
  auto b = drbg.generate_array<32>();
  auto ka = sc::x25519(a, sc::x25519_base(b));
  auto kb = sc::x25519(b, sc::x25519_base(a));
  EXPECT_EQ(ka, kb);
  // Shared secret must be non-trivial.
  sc::X25519Key zero{};
  EXPECT_NE(ka, zero);
}

INSTANTIATE_TEST_SUITE_P(Seeds, X25519Commute, ::testing::Range(0, 8));

// --- Ed25519 (RFC 8032 §7.1) ------------------------------------------------------

struct EdVector {
  const char* seed;
  const char* pub;
  const char* msg_hex;
  const char* sig;
};

class Ed25519Vectors : public ::testing::TestWithParam<EdVector> {};

TEST_P(Ed25519Vectors, KnownAnswer) {
  const auto& v = GetParam();
  auto kp = sc::Ed25519Keypair::from_seed(unhex_array<32>(v.seed));
  EXPECT_EQ(hex(kp.public_key()), v.pub);
  auto msg = unhex(v.msg_hex);
  auto sig = kp.sign(msg);
  EXPECT_EQ(hex(sig), v.sig);
  EXPECT_TRUE(sc::ed25519_verify(kp.public_key(), msg, sig));
}

INSTANTIATE_TEST_SUITE_P(
    Rfc8032, Ed25519Vectors,
    ::testing::Values(
        EdVector{"9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
                 "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a", "",
                 "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
                 "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"},
        EdVector{"4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
                 "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c", "72",
                 "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da"
                 "085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00"},
        EdVector{"c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
                 "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025", "af82",
                 "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac"
                 "18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a"}));

TEST(Ed25519, RejectsTamperedMessage) {
  auto kp = sc::Ed25519Keypair::from_seed(
      unhex_array<32>("9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60"));
  auto msg = su::to_bytes("hello world");
  auto sig = kp.sign(msg);
  auto bad = msg;
  bad[0] ^= 1;
  EXPECT_FALSE(sc::ed25519_verify(kp.public_key(), bad, sig));
}

TEST(Ed25519, RejectsTamperedSignatureEveryByte) {
  auto kp = sc::Ed25519Keypair::from_seed(
      unhex_array<32>("4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb"));
  auto msg = su::to_bytes("x");
  auto sig = kp.sign(msg);
  for (std::size_t i = 0; i < sig.size(); i += 7) {
    auto bad = sig;
    bad[i] ^= 0x40;
    EXPECT_FALSE(sc::ed25519_verify(kp.public_key(), msg, bad)) << "byte " << i;
  }
}

TEST(Ed25519, RejectsWrongKey) {
  auto kp1 = sc::Ed25519Keypair::from_seed(
      unhex_array<32>("9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60"));
  auto kp2 = sc::Ed25519Keypair::from_seed(
      unhex_array<32>("4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb"));
  auto msg = su::to_bytes("message");
  EXPECT_FALSE(sc::ed25519_verify(kp2.public_key(), msg, kp1.sign(msg)));
}

TEST(Ed25519, RejectsNonCanonicalScalar) {
  auto kp = sc::Ed25519Keypair::from_seed(
      unhex_array<32>("9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60"));
  auto msg = su::to_bytes("m");
  auto sig = kp.sign(msg);
  // Force S >= L by setting the top bytes high.
  auto bad = sig;
  for (int i = 32; i < 64; ++i) bad[i] = 0xFF;
  EXPECT_FALSE(sc::ed25519_verify(kp.public_key(), msg, bad));
}

class Ed25519RoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(Ed25519RoundTrip, SignVerifyRandomKeysAndMessages) {
  sc::Drbg drbg(su::to_bytes("ed25519-rt-" + std::to_string(GetParam())));
  auto kp = sc::Ed25519Keypair::from_seed(drbg.generate_array<32>());
  auto msg = drbg.generate(1 + GetParam() * 17);
  auto sig = kp.sign(msg);
  EXPECT_TRUE(sc::ed25519_verify(kp.public_key(), msg, sig));
  // Deterministic signatures: re-signing gives the identical signature.
  EXPECT_EQ(sig, kp.sign(msg));
}

INSTANTIATE_TEST_SUITE_P(Seeds, Ed25519RoundTrip, ::testing::Range(0, 10));

// --- VerifyMemo (shared signature-verdict memo) -----------------------------------

namespace {
struct MemoItem {
  sc::EdPublicKey pub;
  su::Bytes msg;
  sc::EdSignature sig;
  bool valid;  // ground truth
};

/// Mixed workload: `n` triples, even = genuine signature, odd = forged
/// (payload tampered after signing, so the verdict must be false).
std::vector<MemoItem> memo_items(std::size_t n, const std::string& label) {
  std::vector<MemoItem> items;
  sc::Drbg drbg(su::to_bytes("memo-items-" + label));
  for (std::size_t i = 0; i < n; ++i) {
    auto kp = sc::Ed25519Keypair::from_seed(drbg.generate_array<32>());
    MemoItem item;
    item.pub = kp.public_key();
    item.msg = drbg.generate(24 + i % 48);
    item.sig = kp.sign(item.msg);
    item.valid = (i % 2) == 0;
    if (!item.valid) item.msg[0] ^= 0x5a;  // forge: signature no longer matches
    items.push_back(std::move(item));
  }
  return items;
}

/// The memoized check under the generic key.
bool memo_check(sc::VerifyMemo& memo, const MemoItem& item) {
  return sc::memo_verify(&memo, sc::VerifyMemo::key_of(item.pub, item.msg, item.sig), item.pub,
                         item.msg, item.sig);
}
}  // namespace

TEST(VerifyMemo, ConcurrentHammeringKeepsVerdictsStable) {
  // Eight threads hammer one memo with overlapping triple sets in different
  // orders — the sweep-wide sharing pattern, where every variant of a cell
  // races on the same memo. Every verdict must match ground truth on every
  // call, and a forged signature must never memoize to true.
  sc::VerifyMemo memo;
  const auto items = memo_items(24, "concurrent");
  constexpr int kThreads = 8;
  constexpr int kRounds = 8;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t i = 0; i < items.size(); ++i) {
          // Distinct, overlapping traversal order per thread.
          const MemoItem& item = items[(i * (t + 1) + round) % items.size()];
          if (memo_check(memo, item) != item.valid) ++mismatches;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(memo.size(), items.size());  // each triple memoized exactly once
  for (const auto& item : items) {
    auto verdict = memo.lookup(sc::VerifyMemo::key_of(item.pub, item.msg, item.sig));
    ASSERT_TRUE(verdict.has_value());
    EXPECT_EQ(*verdict, item.valid);  // forged entries memoized as false, never true
  }
}

TEST(VerifyMemo, ExternallyStoredVerdictsRoundTrip) {
  // The batch-verify path computes verdicts outside the memo and stores
  // them via store(); lookups must return exactly what was stored.
  sc::VerifyMemo memo;
  const auto items = memo_items(8, "store");
  for (const auto& item : items) {
    auto key = sc::VerifyMemo::key_of(item.pub, item.msg, item.sig);
    EXPECT_FALSE(memo.lookup(key).has_value());
    memo.store(key, item.valid);
    auto verdict = memo.lookup(key);
    ASSERT_TRUE(verdict.has_value());
    EXPECT_EQ(*verdict, item.valid);
  }
  EXPECT_EQ(memo.size(), items.size());
}

TEST(VerifyMemo, CapacityBoundsGrowthWithoutChangingVerdicts) {
  // A sweep-wide memo lives as long as its cell and sees every variant's
  // triples: past its capacity it must stop growing, while verdicts —
  // stored or recomputed — stay correct.
  sc::VerifyMemo memo(32);
  EXPECT_EQ(memo.capacity(), 32u);
  const auto items = memo_items(96, "capacity");
  for (const auto& item : items) {
    EXPECT_EQ(memo_check(memo, item), item.valid);
  }
  EXPECT_LE(memo.size(), memo.capacity());
  EXPECT_GT(memo.size(), 0u);
  // Re-verifying the same set recomputes the evicted ones but never lies.
  for (const auto& item : items) {
    EXPECT_EQ(memo_check(memo, item), item.valid);
  }
  EXPECT_LE(memo.size(), memo.capacity());
  // store() respects the same bound.
  sc::VerifyMemo bounded(16);
  for (const auto& item : items) {
    bounded.store(sc::VerifyMemo::key_of(item.pub, item.msg, item.sig), item.valid);
  }
  EXPECT_LE(bounded.size(), bounded.capacity());
}

// --- DRBG ------------------------------------------------------------------------

TEST(Drbg, DeterministicForSameSeed) {
  sc::Drbg a(su::to_bytes("seed"));
  sc::Drbg b(su::to_bytes("seed"));
  EXPECT_EQ(a.generate(64), b.generate(64));
}

TEST(Drbg, StreamsAdvance) {
  sc::Drbg a(su::to_bytes("seed"));
  auto first = a.generate(32);
  auto second = a.generate(32);
  EXPECT_NE(first, second);
}

TEST(Drbg, DifferentSeedsDiffer) {
  sc::Drbg a(su::to_bytes("seed-a"));
  sc::Drbg b(su::to_bytes("seed-b"));
  EXPECT_NE(a.generate(32), b.generate(32));
}

TEST(Drbg, ForkIndependence) {
  sc::Drbg parent(su::to_bytes("seed"));
  auto c1 = parent.fork(su::to_bytes("node1"));
  auto c2 = parent.fork(su::to_bytes("node1"));  // same label, later fork point
  auto c3 = parent.fork(su::to_bytes("node2"));
  EXPECT_NE(c1.generate(32), c2.generate(32));
  EXPECT_NE(c1.generate(32), c3.generate(32));
}
