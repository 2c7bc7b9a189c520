// Bundle and store tests: wire round trips, signature semantics (hop count
// mutable, content immutable), TTL expiry, duplicate suppression, capacity
// eviction, and the two protocol queries (summary / newer_than). A seeded
// model test drives the indexed store against a brute-force reference that
// scans the whole store on every expiry and eviction.
#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <tuple>

#include "bundle/bundle.hpp"
#include "bundle/store.hpp"
#include "crypto/drbg.hpp"
#include "util/codec.hpp"
#include "util/rng.hpp"

namespace sb = sos::bundle;
namespace sp = sos::pki;
namespace sc = sos::crypto;
namespace su = sos::util;

namespace {
sc::Ed25519Keypair keys_for(const std::string& name) {
  sc::Drbg d(su::to_bytes("bundle-test-" + name));
  return sc::Ed25519Keypair::from_seed(d.generate_array<32>());
}

sb::Bundle make_bundle(const std::string& author, std::uint32_t num, double ts = 100.0,
                       const std::string& text = "post") {
  sb::Bundle b;
  b.origin = sp::user_id_from_name(author);
  b.msg_num = num;
  b.creation_ts = ts;
  b.lifetime_s = 0;
  b.payload = su::to_bytes(text);
  b.sign(keys_for(author));
  return b;
}
}  // namespace

TEST(Bundle, EncodeDecodeRoundTrip) {
  auto b = make_bundle("alice", 7, 123.5, "hello dtn");
  b.hop_count = 3;
  auto decoded = sb::Bundle::decode(b.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->origin, b.origin);
  EXPECT_EQ(decoded->msg_num, 7u);
  EXPECT_DOUBLE_EQ(decoded->creation_ts, 123.5);
  EXPECT_EQ(decoded->hop_count, 3);
  EXPECT_EQ(decoded->payload, b.payload);
  EXPECT_EQ(decoded->signature, b.signature);
}

TEST(Bundle, DecodeRejectsGarbage) {
  EXPECT_FALSE(sb::Bundle::decode(su::to_bytes("not a bundle")).has_value());
  auto enc = make_bundle("a", 1).encode();
  enc.pop_back();
  EXPECT_FALSE(sb::Bundle::decode(enc).has_value());
  enc = make_bundle("a", 1).encode();
  enc.push_back(0);  // trailing byte
  EXPECT_FALSE(sb::Bundle::decode(enc).has_value());
}

TEST(Bundle, DecodeRejectsBadContentType) {
  auto b = make_bundle("a", 1);
  auto enc = b.encode();
  // content type byte sits after origin(10) + msg_num(4) + ts(8) + lifetime(4)
  enc[26] = 0x7F;
  EXPECT_FALSE(sb::Bundle::decode(enc).has_value());
}

TEST(Bundle, DecodeRejectsNonFiniteCreationTime) {
  // The store orders bundles by creation time and by deadline; a NaN would
  // break both orders. The origin signs the field, so the check is at decode.
  for (double ts : {std::numeric_limits<double>::quiet_NaN(),
                    std::numeric_limits<double>::infinity(),
                    -std::numeric_limits<double>::infinity()}) {
    auto b = make_bundle("mallory", 1, ts);
    b.lifetime_s = 60;
    b.sign(keys_for("mallory"));
    EXPECT_FALSE(sb::Bundle::decode(b.encode()).has_value()) << ts;
  }
}

TEST(Bundle, SignatureVerifies) {
  auto b = make_bundle("alice", 1);
  EXPECT_TRUE(b.verify(keys_for("alice").public_key()));
  EXPECT_FALSE(b.verify(keys_for("bob").public_key()));
}

TEST(Bundle, TamperedPayloadFailsVerification) {
  auto b = make_bundle("alice", 1);
  b.payload = su::to_bytes("forged content");
  EXPECT_FALSE(b.verify(keys_for("alice").public_key()));
}

TEST(Bundle, HopCountMutableWithoutBreakingSignature) {
  // Forwarders increment hop_count; the origin signature must survive.
  auto b = make_bundle("alice", 1);
  b.hop_count = 5;
  EXPECT_TRUE(b.verify(keys_for("alice").public_key()));
}

TEST(Bundle, MetadataTamperFailsVerification) {
  auto key = keys_for("alice").public_key();
  auto b1 = make_bundle("alice", 1);
  b1.msg_num = 2;
  EXPECT_FALSE(b1.verify(key));
  auto b2 = make_bundle("alice", 1);
  b2.creation_ts += 1;
  EXPECT_FALSE(b2.verify(key));
  auto b3 = make_bundle("alice", 1);
  b3.dest = sp::user_id_from_name("bob");
  EXPECT_FALSE(b3.verify(key));
}

TEST(Bundle, ExpiryRule) {
  auto b = make_bundle("alice", 1, 100.0);
  b.lifetime_s = 60;
  EXPECT_FALSE(b.expired(100.0));
  EXPECT_FALSE(b.expired(160.0));
  EXPECT_TRUE(b.expired(160.1));
  b.lifetime_s = 0;  // no expiry
  EXPECT_FALSE(b.expired(1e12));
}

TEST(Bundle, UnicastFlag) {
  auto b = make_bundle("alice", 1);
  EXPECT_FALSE(b.is_unicast());
  b.dest = sp::user_id_from_name("bob");
  EXPECT_TRUE(b.is_unicast());
}

class BundleCodecSweep : public ::testing::TestWithParam<int> {};

TEST_P(BundleCodecSweep, RandomPayloadRoundTrip) {
  su::Rng rng(GetParam());
  sb::Bundle b;
  // Two-step concat: `"u" + std::to_string(...)` trips GCC 12's -Wrestrict
  // false positive (PR 105651) when inlined under -O2.
  std::string origin_name = "u";
  origin_name += std::to_string(GetParam());
  b.origin = sp::user_id_from_name(origin_name);
  b.msg_num = static_cast<std::uint32_t>(rng.next());
  b.creation_ts = rng.uniform(0, 1e6);
  b.lifetime_s = static_cast<std::uint32_t>(rng.below(100000));
  b.content = static_cast<sb::ContentType>(rng.below(3));
  b.hop_count = static_cast<std::uint8_t>(rng.below(256));
  b.payload.resize(rng.below(2048));
  for (auto& p : b.payload) p = static_cast<std::uint8_t>(rng.next());
  b.sign(keys_for("sweeper"));
  auto decoded = sb::Bundle::decode(b.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->encode(), b.encode());
  EXPECT_TRUE(decoded->verify(keys_for("sweeper").public_key()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BundleCodecSweep, ::testing::Range(0, 12));

// --- store ---------------------------------------------------------------

TEST(Store, InsertAndDuplicateSuppression) {
  sb::BundleStore store;
  EXPECT_TRUE(store.insert(make_bundle("alice", 1), 0));
  EXPECT_FALSE(store.insert(make_bundle("alice", 1), 1));  // dup id
  EXPECT_TRUE(store.insert(make_bundle("alice", 2), 2));
  EXPECT_TRUE(store.insert(make_bundle("bob", 1), 3));
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(store.duplicate_count(), 1u);
}

TEST(Store, SummaryTracksLatestPerPublisher) {
  sb::BundleStore store;
  store.insert(make_bundle("alice", 1), 0);
  store.insert(make_bundle("alice", 5), 0);
  store.insert(make_bundle("alice", 3), 0);
  store.insert(make_bundle("bob", 2), 0);
  auto s = store.summary();
  EXPECT_EQ(s.at(sp::user_id_from_name("alice")), 5u);
  EXPECT_EQ(s.at(sp::user_id_from_name("bob")), 2u);
  EXPECT_EQ(s.size(), 2u);
}

TEST(Store, NewerThanRangeScan) {
  sb::BundleStore store;
  for (std::uint32_t i = 1; i <= 10; ++i) store.insert(make_bundle("alice", i), 0);
  store.insert(make_bundle("bob", 99), 0);
  auto got = store.newer_than(sp::user_id_from_name("alice"), 7);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].msg_num, 8u);
  EXPECT_EQ(got[2].msg_num, 10u);
  EXPECT_TRUE(store.newer_than(sp::user_id_from_name("alice"), 10).empty());
  // Zero means "send everything".
  EXPECT_EQ(store.newer_than(sp::user_id_from_name("alice"), 0).size(), 10u);
}

TEST(Store, NewerThanUnknownUserIsEmpty) {
  sb::BundleStore store;
  store.insert(make_bundle("alice", 1), 0);
  EXPECT_TRUE(store.newer_than(sp::user_id_from_name("nobody"), 0).empty());
}

TEST(Store, ExpireRemovesOnlyExpired) {
  sb::BundleStore store;
  auto fresh = make_bundle("alice", 1, 1000.0);
  auto stale = make_bundle("alice", 2, 0.0);
  stale.lifetime_s = 10;
  stale.sign(keys_for("alice"));
  store.insert(fresh, 1000);
  store.insert(stale, 1000);
  EXPECT_EQ(store.expire(1000.0), 1u);
  EXPECT_TRUE(store.contains({sp::user_id_from_name("alice"), 1}));
  EXPECT_FALSE(store.contains({sp::user_id_from_name("alice"), 2}));
}

TEST(Store, CapacityEvictsOldestCreation) {
  sb::BundleStore store(3);
  store.insert(make_bundle("a", 1, 100.0), 0);
  store.insert(make_bundle("a", 2, 50.0), 0);  // oldest creation
  store.insert(make_bundle("a", 3, 200.0), 0);
  store.insert(make_bundle("a", 4, 150.0), 0);  // forces eviction
  EXPECT_EQ(store.size(), 3u);
  EXPECT_FALSE(store.contains({sp::user_id_from_name("a"), 2}));
  EXPECT_EQ(store.evicted_count(), 1u);
}

TEST(Store, GetAndRemove) {
  sb::BundleStore store;
  store.insert(make_bundle("alice", 1, 100.0, "payload-x"), 0);
  auto got = store.get({sp::user_id_from_name("alice"), 1});
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(su::to_string(got->payload), "payload-x");
  store.remove({sp::user_id_from_name("alice"), 1});
  EXPECT_FALSE(store.get({sp::user_id_from_name("alice"), 1}).has_value());
}

TEST(Store, LoadStateRejectsDuplicateBundleId) {
  // A checkpoint payload carrying the same (origin, msg_num) twice is
  // corrupt: save_state writes each held bundle once. Admitting it used to
  // keep the first copy but index the second's creation time too, so a
  // later eviction could pick a bundle by a creation time it does not have.
  auto first = make_bundle("alice", 1, 500.0);
  auto twin = make_bundle("alice", 1, 10.0);
  twin.lifetime_s = 60;
  twin.sign(keys_for("alice"));
  su::Writer w;
  w.varint(2);
  for (const auto* b : {&first, &twin}) {
    w.bytes(b->encode());
    w.f64(0.0);
    w.u8(0);
  }
  w.u64(0);
  w.u64(0);
  auto payload = w.take();

  sb::BundleStore store(1);
  store.insert(make_bundle("bob", 7, 300.0), 1.0);
  su::Reader r(payload);
  EXPECT_FALSE(store.load_state(r));
  // Untouched: still exactly the one bundle it held before the call.
  EXPECT_EQ(store.size(), 1u);
  EXPECT_TRUE(store.contains({sp::user_id_from_name("bob"), 7}));
  EXPECT_FALSE(store.contains({sp::user_id_from_name("alice"), 1}));
  EXPECT_EQ(store.summary().size(), 1u);
}

TEST(Store, LoadStateRejectsNonFiniteCreationTime) {
  // A checkpoint carrying a NaN-stamped bundle fails to load and leaves the
  // store as it was: load_state decodes bundles with Bundle::decode.
  auto nan_stamped = make_bundle("mallory", 1, std::numeric_limits<double>::quiet_NaN());
  nan_stamped.lifetime_s = 60;
  nan_stamped.sign(keys_for("mallory"));
  su::Writer w;
  w.varint(1);
  w.bytes(nan_stamped.encode());
  w.f64(0.0);
  w.u8(0);
  w.u64(0);
  w.u64(0);
  auto payload = w.take();

  sb::BundleStore store;
  store.insert(make_bundle("bob", 7, 300.0), 1.0);
  su::Reader r(payload);
  EXPECT_FALSE(store.load_state(r));
  EXPECT_EQ(store.size(), 1u);
  EXPECT_TRUE(store.contains({sp::user_id_from_name("bob"), 7}));
  EXPECT_FALSE(store.contains({sp::user_id_from_name("mallory"), 1}));
}

TEST(Store, AllIteratesEverything) {
  sb::BundleStore store;
  for (std::uint32_t i = 1; i <= 5; ++i) store.insert(make_bundle("alice", i), 7.0);
  auto all = store.all();
  EXPECT_EQ(all.size(), 5u);
  for (const auto* s : all) EXPECT_DOUBLE_EQ(s->received_at, 7.0);
}

// --- randomized model ----------------------------------------------------

namespace {
/// Brute-force reference store: no secondary index, every query a scan.
/// expire() is the whole-store walk the indexed store replaced.
struct ModelStore {
  struct Held {
    sb::Bundle bundle;
    double received_at;
  };
  std::size_t capacity;
  std::map<sb::BundleId, Held> held;
  std::uint64_t evicted = 0;
  std::uint64_t duplicates = 0;

  bool insert(const sb::Bundle& b, double now) {
    if (held.count(b.id()) > 0) {
      ++duplicates;
      return false;
    }
    held.emplace(b.id(), Held{b, now});
    while (held.size() > capacity) {
      auto oldest = held.begin();
      for (auto it = held.begin(); it != held.end(); ++it) {
        if (std::tie(it->second.bundle.creation_ts, it->first) <
            std::tie(oldest->second.bundle.creation_ts, oldest->first))
          oldest = it;
      }
      held.erase(oldest);
      ++evicted;
    }
    return true;
  }
  std::size_t expire(double now) {
    std::size_t removed = 0;
    for (auto it = held.begin(); it != held.end();) {
      if (it->second.bundle.expired(now)) {
        it = held.erase(it);
        ++removed;
      } else {
        ++it;
      }
    }
    return removed;
  }
  std::map<sp::UserId, std::uint32_t> summary() const {
    std::map<sp::UserId, std::uint32_t> out;
    for (const auto& [id, h] : held) out[id.origin] = std::max(out[id.origin], id.msg_num);
    return out;
  }
  std::size_t unicast_count() const {
    std::size_t n = 0;
    for (const auto& [id, h] : held) n += h.bundle.is_unicast() ? 1 : 0;
    return n;
  }
};

void expect_matches(const sb::BundleStore& store, const ModelStore& model) {
  ASSERT_EQ(store.size(), model.held.size());
  auto all = store.all();
  auto it = model.held.begin();
  for (const auto* s : all) {
    ASSERT_EQ(s->bundle.id(), it->first);
    EXPECT_EQ(s->bundle.encode(), it->second.bundle.encode());
    EXPECT_EQ(s->received_at, it->second.received_at);
    EXPECT_EQ(s->hops_on_arrival, it->second.bundle.hop_count);
    ++it;
  }
  EXPECT_EQ(store.summary(), model.summary());
  EXPECT_EQ(store.unicast_count(), model.unicast_count());
  EXPECT_EQ(store.evicted_count(), model.evicted);
  EXPECT_EQ(store.duplicate_count(), model.duplicates);
}
}  // namespace

class StoreModel : public ::testing::TestWithParam<int> {};

TEST_P(StoreModel, IndexedStoreMatchesBruteForceModel) {
  su::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 1);
  const std::size_t capacity = 4 + rng.below(12);
  sb::BundleStore store(capacity);
  ModelStore model{capacity, {}};
  const sp::UserId users[] = {sp::user_id_from_name("u0"), sp::user_id_from_name("u1"),
                              sp::user_id_from_name("u2"), sp::user_id_from_name("u3")};
  double now = 0.0;
  std::size_t expired = 0;
  for (int step = 0; step < 600; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    std::uint64_t op = rng.below(100);
    if (op < 55) {
      // Small id space so duplicates are common; whole-second creation
      // times around the clock so creation and deadline ties are too.
      sb::Bundle b;
      b.origin = users[rng.below(4)];
      b.msg_num = static_cast<std::uint32_t>(1 + rng.below(24));
      b.creation_ts = now + static_cast<double>(rng.below(400)) - 300.0;
      b.lifetime_s = rng.chance(0.4) ? 0 : static_cast<std::uint32_t>(1 + rng.below(300));
      if (rng.chance(0.2)) b.dest = users[rng.below(4)];
      b.hop_count = static_cast<std::uint8_t>(rng.below(5));
      EXPECT_EQ(store.insert(b, now), model.insert(b, now));
    } else if (op < 80) {
      now += static_cast<double>(rng.below(40));
      std::size_t removed = model.expire(now);
      EXPECT_EQ(store.expire(now), removed);
      expired += removed;
    } else if (op < 90) {
      sb::BundleId id{users[rng.below(4)], static_cast<std::uint32_t>(1 + rng.below(24))};
      store.remove(id);
      model.held.erase(id);
    } else if (op < 93) {
      store.clear();
      model.held.clear();
    } else {
      su::Writer w;
      store.save_state(w);
      auto bytes = w.take();
      sb::BundleStore restored(capacity);
      su::Reader r(bytes);
      ASSERT_TRUE(restored.load_state(r));
      store = std::move(restored);
    }
    expect_matches(store, model);
    if (::testing::Test::HasFailure()) return;
  }
  // Every seed must have exercised both removal paths the indices serve.
  EXPECT_GT(expired, 0u);
  EXPECT_GT(model.evicted, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StoreModel, ::testing::Range(0, 16));
