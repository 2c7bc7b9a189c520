// Per-node counters surfaced by the middleware; the evaluation harness and
// the security tests read these.
#pragma once

#include <cstdint>

namespace sos::mw {

struct NodeStats {
  // ad hoc manager
  std::uint64_t sessions_established = 0;      // full handshakes + resumes
  std::uint64_t sessions_lost = 0;
  std::uint64_t full_handshakes = 0;           // cert exchange + X25519 + HKDF
  std::uint64_t sessions_resumed = 0;          // 1-RTT resumes (no X25519)
  std::uint64_t resume_attempts = 0;           // Resume frames sent
  std::uint64_t resume_rejected = 0;           // unknown/expired/bad-proof resumes
  std::uint64_t ecdh_ops = 0;                  // X25519 scalar mults by the handshake
  std::uint64_t handshake_cert_rejected = 0;   // invalid/revoked/expired cert
  std::uint64_t handshake_sig_rejected = 0;    // bad ephemeral-key binding
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t decrypt_failures = 0;
  std::uint64_t malformed_frames = 0;

  // message manager / routing
  std::uint64_t bundles_sent = 0;
  std::uint64_t bundles_received = 0;
  std::uint64_t bundle_sig_rejected = 0;
  std::uint64_t bundle_cert_rejected = 0;
  std::uint64_t bundle_sig_cache_hits = 0;     // re-receptions skipping verify
  std::uint64_t bundle_sig_cache_misses = 0;   // full signature verifications
  std::uint64_t bundle_batch_verifies = 0;     // batch passes executed
  std::uint64_t bundle_batch_fallbacks = 0;    // batches with a bad signature
  std::uint64_t duplicates_ignored = 0;
  std::uint64_t bundles_carried = 0;       // stored for forwarding
  std::uint64_t deliveries = 0;            // handed to the application
  std::uint64_t transfers_interrupted = 0; // queue dropped with the session

  // app layer
  std::uint64_t published = 0;
  std::uint64_t reboots = 0;  // power cycles (fault-injection churn)

  bool operator==(const NodeStats&) const = default;
};

}  // namespace sos::mw
