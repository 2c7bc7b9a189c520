#include "mw/message_manager.hpp"

#include <algorithm>
#include <cassert>
#include <iterator>

#include "util/codec.hpp"

namespace sos::mw {

MessageManager::MessageManager(AdHocManager& adhoc, NodeStats& stats,
                               std::size_t store_capacity)
    : adhoc_(adhoc), stats_(stats), store_(store_capacity) {
  // Own certificate is always available to forward.
  remember_certificate(adhoc_.credentials().certificate);

  adhoc_.on_peer_advert = [this](sim::PeerId peer,
                                 const std::map<pki::UserId, std::uint32_t>& advert) {
    if (on_peer_advert) on_peer_advert(peer, advert);
  };
  adhoc_.on_secure_session = [this](sim::PeerId peer, const pki::Certificate& cert) {
    session_users_[peer] = cert.subject_id;
    remember_certificate(cert);
    if (on_session_ready) on_session_ready(peer, cert.subject_id);
  };
  adhoc_.on_session_down = [this](sim::PeerId peer) {
    session_users_.erase(peer);
    auto it = sent_this_session_.find(peer);
    if (it != sent_this_session_.end()) {
      // The connection broke while this session had transfers: whatever the
      // peer did not confirm through its next summary will be re-offered.
      if (!it->second.empty()) ++stats_.transfers_interrupted;
      sent_this_session_.erase(it);
    }
    // Bundles from this peer still waiting in the verify queue arrived
    // intact; only their window had not elapsed. They are verified and
    // delivered now rather than dying with the transfer, and an armed flush
    // with nothing left to verify is cancelled.
    auto from_peer =
        std::stable_partition(verify_queue_.begin(), verify_queue_.end(),
                              [peer](const PendingBundle& p) { return p.peer != peer; });
    std::vector<PendingBundle> orphaned(std::make_move_iterator(from_peer),
                                        std::make_move_iterator(verify_queue_.end()));
    verify_queue_.erase(from_peer, verify_queue_.end());
    if (verify_queue_.empty() && verify_flush_event_ != sim::kInvalidEventId) {
      adhoc_.scheduler().cancel(verify_flush_event_);
      verify_flush_event_ = sim::kInvalidEventId;
    }
    if (on_session_down) on_session_down(peer);
    if (!orphaned.empty()) flush_entries(std::move(orphaned));
  };
  adhoc_.on_frame = [this](sim::PeerId peer, FrameType type, util::Bytes payload) {
    handle_frame(peer, type, std::move(payload));
  };
}

MessageManager::~MessageManager() {
  // A pending flush holds a raw `this` inside the scheduler; firing after
  // destruction would be use-after-free. The callbacks installed on the
  // ad hoc manager capture `this` too and it may outlive us. (An armed
  // flush implies a live session, hence an attached ad hoc manager.)
  if (verify_flush_event_ != sim::kInvalidEventId) adhoc_.scheduler().cancel(verify_flush_event_);
  adhoc_.on_peer_advert = nullptr;
  adhoc_.on_secure_session = nullptr;
  adhoc_.on_session_down = nullptr;
  adhoc_.on_frame = nullptr;
}

void MessageManager::reset_after_reboot(bool lose_store) {
  assert(verify_queue_.empty() && verify_flush_event_ == sim::kInvalidEventId);
  session_users_.clear();
  sent_this_session_.clear();
  cert_cache_.clear();
  remember_certificate(adhoc_.credentials().certificate);
  if (lose_store) store_.clear();
}

void MessageManager::detach() const {
  // Every queued entry's session is live, and SosNode::detach drops all
  // live sessions first: their drop flushed the queue and cancelled the
  // flush, so no verify state can straddle a shard boundary.
  assert(adhoc_.secure_peers().empty());
  assert(verify_queue_.empty() && verify_flush_event_ == sim::kInvalidEventId);
}

void MessageManager::save_state(util::Writer& w) const {
  // Quiescent-cut contract: no live sessions means no per-session transfer
  // bookkeeping and nothing waiting for batch verification (on_session_down
  // drains the queue entries owned by each dying session).
  assert(session_users_.empty() && sent_this_session_.empty() && verify_queue_.empty());
  {
    util::Writer sub;
    store_.save_state(sub);
    w.bytes(sub.take());
  }
  // Keys are re-derived from each certificate's subject id on load.
  w.varint(cert_cache_.size());
  for (const auto& [uid, cert] : cert_cache_) w.bytes(cert.encode());
}

bool MessageManager::load_state(util::Reader& r) {
  assert(!adhoc_.attached());
  bundle::BundleStore store(store_.capacity());
  {
    util::Bytes blob = r.bytes();
    if (!r.ok()) return false;
    util::Reader sub{util::ByteView(blob)};
    if (!store.load_state(sub) || !sub.done()) return false;
  }
  std::uint64_t n = r.varint();
  std::map<pki::UserId, pki::Certificate> certs;
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
    auto cert = pki::Certificate::decode(r.bytes());
    if (!cert) return false;
    pki::UserId uid = cert->subject_id;
    certs.emplace(uid, std::move(*cert));
  }
  if (!r.ok()) return false;
  store_ = std::move(store);
  cert_cache_ = std::move(certs);
  return true;
}

void MessageManager::flush_verify_queue() {
  verify_flush_event_ = sim::kInvalidEventId;  // our own firing consumed it
  std::vector<PendingBundle> queue = std::move(verify_queue_);
  verify_queue_.clear();
  flush_entries(std::move(queue));
}

void MessageManager::flush_entries(std::vector<PendingBundle> entries) {
  std::vector<AdHocManager::BundleToVerify> batch;
  batch.reserve(entries.size());
  for (const PendingBundle& p : entries) batch.push_back({&p.bundle, &p.cert});
  std::vector<bool> ok = adhoc_.verify_bundles(batch);

  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (!ok[i]) continue;
    remember_certificate(entries[i].cert);
    if (on_bundle) on_bundle(std::move(entries[i].bundle), entries[i].cert, entries[i].spray_copies);
  }
}

void MessageManager::remember_certificate(const pki::Certificate& cert) {
  cert_cache_[cert.subject_id] = cert;
}

const pki::Certificate* MessageManager::certificate_for(const pki::UserId& uid) const {
  auto it = cert_cache_.find(uid);
  return it == cert_cache_.end() ? nullptr : &it->second;
}

std::optional<pki::UserId> MessageManager::peer_user(sim::PeerId peer) const {
  auto it = session_users_.find(peer);
  if (it == session_users_.end()) return std::nullopt;
  return it->second;
}

void MessageManager::send_summary(sim::PeerId peer, const SummaryFrame& summary) {
  adhoc_.send_frame(peer, FrameType::Summary, summary.encode());
}

void MessageManager::send_request(sim::PeerId peer, const RequestFrame& request) {
  adhoc_.send_frame(peer, FrameType::Request, request.encode());
}

bool MessageManager::send_bundle(sim::PeerId peer, const bundle::Bundle& b,
                                 std::uint32_t spray_copies) {
  const pki::Certificate* cert = certificate_for(b.origin);
  if (cert == nullptr) return false;
  BundleDataFrame frame;
  frame.bundle = b.encode();
  frame.origin_cert = cert->encode();
  frame.spray_copies = spray_copies;
  adhoc_.send_frame(peer, FrameType::BundleData, frame.encode());
  sent_this_session_[peer].insert(b.id());
  ++stats_.bundles_sent;
  return true;
}

bool MessageManager::already_sent(sim::PeerId peer, const bundle::BundleId& id) const {
  auto it = sent_this_session_.find(peer);
  return it != sent_this_session_.end() && it->second.count(id) > 0;
}

void MessageManager::handle_frame(sim::PeerId peer, FrameType type, util::Bytes payload) {
  switch (type) {
    case FrameType::Summary: {
      auto f = SummaryFrame::decode(payload);
      if (!f) {
        ++stats_.malformed_frames;
        return;
      }
      if (on_summary) on_summary(peer, *f);
      return;
    }
    case FrameType::Request: {
      auto f = RequestFrame::decode(payload);
      if (!f) {
        ++stats_.malformed_frames;
        return;
      }
      if (on_request) on_request(peer, *f);
      return;
    }
    case FrameType::BundleData: {
      auto f = BundleDataFrame::decode(payload);
      if (!f) {
        ++stats_.malformed_frames;
        return;
      }
      auto b = bundle::Bundle::decode(f->bundle);
      auto cert = pki::Certificate::decode(f->origin_cert);
      if (!b || !cert) {
        ++stats_.malformed_frames;
        return;
      }
      ++stats_.bundles_received;
      if (verify_batch_window_ > 0) {
        // Defer: bundles arriving within the window are verified together
        // in one batch signature pass. A bundle id already waiting in the
        // queue is a re-reception (two peers offering the same bundle in
        // one burst): verifying and delivering it twice would double the
        // signature work, so the second copy is dropped.
        bundle::BundleId id = b->id();
        if (std::any_of(verify_queue_.begin(), verify_queue_.end(),
                        [&id](const PendingBundle& p) { return p.bundle.id() == id; })) {
          ++stats_.duplicates_ignored;
          return;
        }
        verify_queue_.push_back(PendingBundle{peer, std::move(*b), std::move(*cert),
                                              f->spray_copies});
        if (verify_flush_event_ == sim::kInvalidEventId) {
          verify_flush_event_ = adhoc_.scheduler().schedule_at(
              adhoc_.scheduler().now() + verify_batch_window_, [this] { flush_verify_queue(); });
        }
        return;
      }
      // Security gate: certificate chain + identity binding + signature.
      if (!adhoc_.verify_bundle(*b, *cert)) return;
      remember_certificate(*cert);
      if (on_bundle) on_bundle(std::move(*b), *cert, f->spray_copies);
      return;
    }
    case FrameType::Hello:
    case FrameType::Resume:
      // Hello/Resume are consumed inside the ad hoc manager; seeing one
      // here means a peer sealed a handshake frame inside the session —
      // treat as malformed.
      ++stats_.malformed_frames;
      return;
  }
  ++stats_.malformed_frames;
}

}  // namespace sos::mw
