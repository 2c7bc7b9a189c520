// Message manager — the middle blue layer of Fig 1. It owns the bundle
// store and the certificate cache, tracks which peers have live secure
// sessions, translates wire frames to/from the structures the routing
// layer consumes, and reacts to connection-state changes (a session drop
// invalidates the per-session transfer bookkeeping, so the next encounter's
// summary/request exchange resumes exactly where the transfer broke).
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <set>

#include "bundle/store.hpp"
#include "mw/adhoc_manager.hpp"
#include "mw/stats.hpp"
#include "mw/wire.hpp"

namespace sos::mw {

class MessageManager {
 public:
  MessageManager(AdHocManager& adhoc, NodeStats& stats, std::size_t store_capacity = 10000);
  /// Cancels any scheduled verify-queue flush: the flush lambda captures
  /// `this`, so it must not outlive the manager in the scheduler.
  ~MessageManager();

  bundle::BundleStore& store() { return store_; }
  const bundle::BundleStore& store() const { return store_; }

  // --- certificate cache (Fig 3b: forwarders re-send origin certificates) --
  void remember_certificate(const pki::Certificate& cert);
  const pki::Certificate* certificate_for(const pki::UserId& uid) const;

  // --- peer/session bookkeeping ------------------------------------------
  /// Authenticated user id of a connected peer (nullopt before handshake).
  std::optional<pki::UserId> peer_user(sim::PeerId peer) const;
  std::vector<sim::PeerId> secure_peers() const { return adhoc_.secure_peers(); }

  // --- outbound operations (called by the routing manager) -----------------
  void send_summary(sim::PeerId peer, const SummaryFrame& summary);
  void send_request(sim::PeerId peer, const RequestFrame& request);
  /// Ship one bundle with its origin certificate; no-op without the cert
  /// (a forwarder that cannot prove provenance must not forward).
  bool send_bundle(sim::PeerId peer, const bundle::Bundle& b, std::uint32_t spray_copies);
  /// True if this bundle was already sent on the current session (avoids
  /// duplicate transmission while co-located).
  bool already_sent(sim::PeerId peer, const bundle::BundleId& id) const;

  // --- callbacks up to the routing manager ---------------------------------
  std::function<void(sim::PeerId, const std::map<pki::UserId, std::uint32_t>&)> on_peer_advert;
  std::function<void(sim::PeerId, const pki::UserId&)> on_session_ready;
  std::function<void(sim::PeerId)> on_session_down;
  std::function<void(sim::PeerId, const SummaryFrame&)> on_summary;
  std::function<void(sim::PeerId, const RequestFrame&)> on_request;
  /// Verified bundle (certificate + signature already checked) + origin cert.
  std::function<void(bundle::Bundle, const pki::Certificate&, std::uint32_t)> on_bundle;

  AdHocManager& adhoc() { return adhoc_; }

  /// The batch-verify window. 0 (the default) verifies each received bundle
  /// synchronously. When > 0, received bundles are queued and verified
  /// together in one batch signature pass (an incoming burst pays ~one
  /// double-scalar multiplication instead of one per bundle). A queued
  /// bundle is verified and delivered at the deadline armed by the first
  /// arrival into an empty queue (its arrival + window) or when the session
  /// it arrived on drops, whichever comes first. The flush is cancelled
  /// whenever the queue empties, so flush armed <=> queue non-empty <=> some
  /// queued entry's session is live: a node without a secure session holds
  /// no verify state at all.
  void set_verify_batch_window(util::SimTime window) { verify_batch_window_ = window; }

  /// Power-cycle state loss (fault-injection churn): session bookkeeping
  /// and the certificate cache lived in RAM and are gone. The bundle store
  /// is nominally persisted; pass lose_store to model flash loss too. The
  /// node's own certificate is re-remembered (it ships with the app). Call
  /// with no live sessions (their drop already flushed the verify queue).
  void reset_after_reboot(bool lose_store);

  // --- scheduler rebinding (partitioned replay) -------------------
  /// Nothing to carry: detach happens with no live session, so by the
  /// window invariant the verify queue is empty and no flush is armed.
  /// Asserts exactly that.
  void detach() const;

  // --- checkpointing (soak harness) ----------------------------------------
  /// Serialize store contents and certificate cache. Only callable at a
  /// quiescent cut (no live sessions, hence no per-session bookkeeping and
  /// nothing waiting for batch verification). The batch window stays with
  /// the owner.
  void save_state(util::Writer& w) const;
  /// Mirror of save_state; call while detached. Returns false on malformed
  /// input leaving the manager untouched.
  bool load_state(util::Reader& r);

 private:
  struct PendingBundle {
    sim::PeerId peer;  // the session it arrived on; its drop flushes the entry
    bundle::Bundle bundle;
    pki::Certificate cert;
    std::uint32_t spray_copies = 0;
  };

  void handle_frame(sim::PeerId peer, FrameType type, util::Bytes payload);
  void flush_verify_queue();
  /// Batch-verify and deliver the given queue entries now.
  void flush_entries(std::vector<PendingBundle> entries);

  AdHocManager& adhoc_;
  // sos-lint: allow(seam-exempt) reference to node-lifetime stats storage;
  // rebinding happens one layer down (AdHocManager owns the scheduler ties).
  NodeStats& stats_;
  // sos-lint: allow(seam-exempt) pure value state: the store is exactly the
  // payload the seam exists to carry across shards, untouched.
  bundle::BundleStore store_;
  std::map<pki::UserId, pki::Certificate> cert_cache_;  // sos-lint: allow(seam-exempt) value state, no scheduler handles
  // sos-lint: allow(seam-exempt) session identity/send bookkeeping: keyed by
  // live PeerId sessions, which AdHocManager tears down on session drop (not
  // on detach — sessions survive a shard boundary by design, see mw_test's
  // shard-crossing session pins).
  std::map<sim::PeerId, pki::UserId> session_users_;
  // sos-lint: allow(seam-exempt) same lifecycle as session_users_.
  std::map<sim::PeerId, std::set<bundle::BundleId>> sent_this_session_;
  std::vector<PendingBundle> verify_queue_;
  // The armed window flush: != kInvalidEventId exactly while verify_queue_
  // is non-empty (reset to the sentinel the moment the event is cancelled
  // or fires).
  sim::EventId verify_flush_event_ = sim::kInvalidEventId;
  // sos-lint: allow(seam-exempt) scenario-constant batching knob, fixed at
  // configure time.
  util::SimTime verify_batch_window_ = 0.0;
};

}  // namespace sos::mw
