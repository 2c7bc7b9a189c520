// Per-node counters surfaced by the middleware. SOS_NODE_STATS is the one
// list of them: totals, checkpoints, the soak JSONL and `--stop` names and
// the determinism pins all walk kNodeStatsFields, so adding a counter is one
// line there. Its order is the checkpoint layout: never reorder it, and bump
// soak::kCheckpointVersion when adding a counter.
#pragma once

#include <cstdint>
#include <iterator>
#include <string_view>

#define SOS_NODE_STATS(X)                                                \
  /* ad hoc manager */                                                   \
  X(sessions_established)    /* full handshakes + resumes */             \
  X(sessions_lost)                                                       \
  X(full_handshakes)         /* cert exchange + X25519 + HKDF */         \
  X(sessions_resumed)        /* 1-RTT resumes (no X25519) */             \
  X(resume_attempts)         /* Resume frames sent */                    \
  X(resume_rejected)         /* unknown/expired/bad-proof resumes */     \
  X(ecdh_ops)                /* X25519 scalar mults by the handshake */  \
  X(handshake_cert_rejected) /* invalid/revoked/expired cert */          \
  X(handshake_sig_rejected)  /* bad ephemeral-key binding */             \
  X(frames_sent)                                                         \
  X(frames_received)                                                     \
  X(decrypt_failures)                                                    \
  X(malformed_frames)                                                    \
  /* message manager / routing */                                        \
  X(bundles_sent)                                                        \
  X(bundles_received)                                                    \
  X(bundle_sig_rejected)                                                 \
  X(bundle_cert_rejected)                                                \
  X(bundle_sig_cache_hits)   /* re-receptions skipping verify */         \
  X(bundle_sig_cache_misses) /* full signature verifications */          \
  X(bundle_batch_verifies)   /* batch passes executed */                 \
  X(bundle_batch_fallbacks)  /* batches with a bad signature */          \
  X(duplicates_ignored)                                                  \
  X(bundles_carried)         /* stored for forwarding */                 \
  X(deliveries)              /* handed to the application */             \
  X(transfers_interrupted)   /* queue dropped with the session */        \
  /* app layer */                                                        \
  X(published)                                                           \
  X(reboots)                 /* power cycles (fault-injection churn) */

namespace sos::mw {

struct NodeStats {
#define SOS_NODE_STATS_MEMBER(name) std::uint64_t name = 0;
  SOS_NODE_STATS(SOS_NODE_STATS_MEMBER)
#undef SOS_NODE_STATS_MEMBER

  bool operator==(const NodeStats&) const = default;
  NodeStats& operator+=(const NodeStats& other);
};

/// One NodeStats counter: its name (the soak JSONL key and `--stop`
/// metric) and its member.
struct StatsField {
  std::string_view name;
  std::uint64_t NodeStats::*member;
};

/// Every NodeStats counter, in declaration (= checkpoint) order.
inline constexpr StatsField kNodeStatsFields[] = {
#define SOS_NODE_STATS_ENTRY(name) {#name, &NodeStats::name},
    SOS_NODE_STATS(SOS_NODE_STATS_ENTRY)
#undef SOS_NODE_STATS_ENTRY
};

static_assert(sizeof(NodeStats) == std::size(kNodeStatsFields) * sizeof(std::uint64_t),
              "declare every NodeStats counter through SOS_NODE_STATS");

inline NodeStats& NodeStats::operator+=(const NodeStats& other) {
  for (const StatsField& f : kNodeStatsFields) this->*f.member += other.*f.member;
  return *this;
}

}  // namespace sos::mw
