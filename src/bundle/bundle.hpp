// DTN bundle: the unit every routing scheme stores and forwards. A bundle
// is identified by (origin user id, per-user message number) — exactly the
// pair the paper's discovery dictionary advertises — and carries an Ed25519
// origin signature so any receiver can "verify the originating source of
// the information being forwarded and ensure that data have not been
// modified" (§IV) without infrastructure.
#pragma once

#include <compare>
#include <cstdint>
#include <optional>

#include "crypto/ed25519.hpp"
#include "pki/certificate.hpp"
#include "pki/identity.hpp"
#include "util/bytes.hpp"
#include "util/time.hpp"

namespace sos::bundle {

enum class ContentType : std::uint8_t {
  SocialPost = 0,     // publish/subscribe payload (AlleyOop posts)
  DirectMessage = 1,  // unicast, payload end-to-end encrypted for dest
  ControlAction = 2,  // app control records (e.g. follow/unfollow sync)
};

struct BundleId {
  pki::UserId origin;
  std::uint32_t msg_num = 0;

  auto operator<=>(const BundleId&) const = default;
};

struct Bundle {
  pki::UserId origin;              // publisher's 10-byte user id
  std::uint32_t msg_num = 0;       // per-publisher sequence number
  util::SimTime creation_ts = 0;
  std::uint32_t lifetime_s = 0;    // 0 = no expiry
  ContentType content = ContentType::SocialPost;
  pki::UserId dest;                // all-zero for pub/sub posts
  std::uint8_t hop_count = 0;      // incremented per D2D hop (not signed)
  util::Bytes payload;
  crypto::EdSignature signature{}; // origin's signature over signing_bytes()

  BundleId id() const { return {origin, msg_num}; }

  /// Immutable fields covered by the origin signature. hop_count is
  /// per-copy relay metadata and deliberately excluded.
  util::Bytes signing_bytes() const;

  void sign(const crypto::Ed25519Keypair& origin_keys);
  bool verify(const crypto::EdPublicKey& origin_key) const;

  /// Expiry deadline; meaningful only when lifetime_s > 0. The store keys
  /// its expiry index on this exact value, so index order and expired()
  /// can never disagree.
  util::SimTime expires_at() const { return creation_ts + static_cast<double>(lifetime_s); }
  bool expired(util::SimTime now) const { return lifetime_s > 0 && now > expires_at(); }
  bool is_unicast() const { return !dest.is_zero(); }

  util::Bytes encode() const;
  static std::optional<Bundle> decode(util::ByteView data);
};

}  // namespace sos::bundle
