#include "bundle/bundle.hpp"

#include <cmath>

#include "util/codec.hpp"

namespace sos::bundle {

util::Bytes Bundle::signing_bytes() const {
  util::Writer w;
  w.str("sos-bundle-v1");
  w.raw(origin.view());
  w.u32(msg_num);
  w.f64(creation_ts);
  w.u32(lifetime_s);
  w.u8(static_cast<std::uint8_t>(content));
  w.raw(dest.view());
  w.bytes(payload);
  return w.take();
}

void Bundle::sign(const crypto::Ed25519Keypair& origin_keys) {
  signature = origin_keys.sign(signing_bytes());
}

bool Bundle::verify(const crypto::EdPublicKey& origin_key) const {
  return crypto::ed25519_verify(origin_key, signing_bytes(), signature);
}

util::Bytes Bundle::encode() const {
  util::Writer w;
  w.raw(origin.view());
  w.u32(msg_num);
  w.f64(creation_ts);
  w.u32(lifetime_s);
  w.u8(static_cast<std::uint8_t>(content));
  w.raw(dest.view());
  w.u8(hop_count);
  w.bytes(payload);
  w.raw(util::ByteView(signature.data(), signature.size()));
  return w.take();
}

std::optional<Bundle> Bundle::decode(util::ByteView data) {
  util::Reader r(data);
  Bundle b;
  b.origin.bytes = r.raw_array<pki::kUserIdSize>();
  b.msg_num = r.u32();
  b.creation_ts = r.f64();
  // The store orders bundles by creation time (drop-head eviction) and by
  // creation time + lifetime (expiry). A NaN would break both orders and an
  // infinity would pin a bundle in the store forever; the signature covers
  // the field, so only its origin could have set it.
  if (!std::isfinite(b.creation_ts)) return std::nullopt;
  b.lifetime_s = r.u32();
  auto content = r.u8();
  if (content > static_cast<std::uint8_t>(ContentType::ControlAction)) return std::nullopt;
  b.content = static_cast<ContentType>(content);
  b.dest.bytes = r.raw_array<pki::kUserIdSize>();
  b.hop_count = r.u8();
  b.payload = r.bytes();
  b.signature = r.raw_array<crypto::kEdSignatureSize>();
  if (!r.done()) return std::nullopt;
  return b;
}

}  // namespace sos::bundle
