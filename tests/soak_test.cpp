// Soak suite (`ctest -L soak`): the versioned checkpoint codec and its
// rejection paths, checkpoint/resume bitwise-identity pins across mono and
// contact-strand replay at several worker counts (the property the month-scale soak
// harness rests on), the rolling-window anomaly detector, and the
// time-scale regression tests the soak audit produced — resumption-ticket
// re-mint cadence, PRoPHET table pruning at month horizons, and
// encounter-detector tick-grid anchoring.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "crypto/drbg.hpp"
#include "crypto/sha256.hpp"
#include "deploy/replay.hpp"
#include "deploy/scenario.hpp"
#include "mw/schemes/prophet.hpp"
#include "mw/sos_node.hpp"
#include "pki/bootstrap.hpp"
#include "result_eq.hpp"
#include "sim/multipeer.hpp"
#include "sim/radio.hpp"
#include "sim/scheduler.hpp"
#include "sim/trace.hpp"
#include "soak/anomaly.hpp"
#include "soak/checkpoint.hpp"
#include "soak/jsonl.hpp"
#include "soak/runner.hpp"
#include "util/codec.hpp"
#include "util/rng.hpp"

namespace sc = sos::crypto;
namespace sd = sos::deploy;
namespace sk = sos::soak;
namespace sm = sos::mw;
namespace sp = sos::pki;
namespace ss = sos::sim;
namespace su = sos::util;

using sos::test::expect_same_result;

namespace {

sd::ScenarioConfig small_config(const std::string& scheme, std::uint64_t seed) {
  sd::ScenarioConfig c = sd::gainesville_config(scheme, seed);
  c.nodes = 12;
  c.area_w_m = 1800;
  c.area_h_m = 1800;
  c.days = 1.0;
  c.total_posts_target = 50;
  return c;
}

/// A 15-node, 3-community world over two days. Nodes meet after the first
/// evening's posts, so sessions open and bundles flow on both sides of the
/// quiescent cuts, and a mid-run checkpoint holds non-empty verify caches.
sd::ScenarioConfig traffic_config(const std::string& scheme, std::uint64_t seed) {
  sd::ScenarioConfig c = sd::gainesville_config(scheme, seed);
  c.nodes = 15;
  c.area_w_m = 2000;
  c.area_h_m = 2000;
  c.days = 2.0;
  c.communities = 3;
  c.bridge_node_frac = 0.2;
  c.mobility.home_min_separation_m = 150.0;
  c.total_posts_target = 50;
  return c;
}

/// The run opened sessions and carried bundles.
void expect_traffic(const sd::ScenarioResult& r, const std::string& what) {
  EXPECT_GT(r.totals.sessions_established, 0u) << what;
  EXPECT_GT(r.totals.bundles_received, 0u) << what;
}

/// Some bundle was delivered, and so verified and cached, before `t`.
bool delivered_before(const sd::ScenarioResult& r, su::SimTime t) {
  return std::any_of(r.oracle.deliveries().begin(), r.oracle.deliveries().end(),
                     [t](const sd::DeliveryRecord& d) { return d.at < t; });
}

struct EngineOpt {
  const char* name;
  sd::ReplayOptions opt;
};

std::vector<EngineOpt> all_engines() {
  return {{"mono", {}},
          {"strand-j1", {.subepisode_jobs = 1}},
          {"strand-j4", {.subepisode_jobs = 4}}};
}

sk::Checkpoint sample_checkpoint() {
  sk::Checkpoint c;
  c.segment = 7;
  c.sim_time = 12345.5;
  for (std::size_t i = 0; i < c.world_digest.size(); ++i) {
    c.world_digest[i] = static_cast<std::uint8_t>(i);
  }
  c.payload = su::to_bytes("node-state-payload");
  return c;
}

std::string temp_dir(const std::string& leaf) {
  auto dir = std::filesystem::path(::testing::TempDir()) / leaf;
  std::filesystem::remove_all(dir);
  return dir.string();
}

}  // namespace

// --- checkpoint codec -------------------------------------------------------

TEST(CheckpointCodec, RoundTripPreservesEveryField) {
  sk::Checkpoint c = sample_checkpoint();
  su::Bytes encoded = sk::encode_checkpoint(c);
  std::string error;
  auto decoded = sk::decode_checkpoint(su::ByteView(encoded), &error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_EQ(decoded->segment, c.segment);
  EXPECT_EQ(decoded->sim_time, c.sim_time);
  EXPECT_EQ(decoded->world_digest, c.world_digest);
  EXPECT_EQ(decoded->payload, c.payload);
}

TEST(CheckpointCodec, TruncationRejectedAtEveryLength) {
  su::Bytes encoded = sk::encode_checkpoint(sample_checkpoint());
  for (std::size_t len : {std::size_t{0}, std::size_t{7}, std::size_t{40},
                          encoded.size() - 33, encoded.size() - 1}) {
    std::string error;
    su::ByteView cut(encoded.data(), len);
    EXPECT_FALSE(sk::decode_checkpoint(cut, &error).has_value()) << len;
    EXPECT_FALSE(error.empty()) << len;
  }
  // Short inputs get the pointed truncation diagnostic.
  std::string error;
  EXPECT_FALSE(sk::decode_checkpoint(su::ByteView(encoded.data(), 12), &error).has_value());
  EXPECT_NE(error.find("truncated"), std::string::npos) << error;
}

TEST(CheckpointCodec, BadMagicRejected) {
  su::Bytes encoded = sk::encode_checkpoint(sample_checkpoint());
  encoded[0] = 'X';
  std::string error;
  EXPECT_FALSE(sk::decode_checkpoint(su::ByteView(encoded), &error).has_value());
  EXPECT_NE(error.find("magic"), std::string::npos) << error;
}

TEST(CheckpointCodec, FutureVersionRejectedWithDiagnostic) {
  // Hand-build a well-formed version-99 checkpoint (valid integrity hash,
  // so the rejection is purely the forward-compat version gate).
  sk::Checkpoint c = sample_checkpoint();
  su::Bytes v1 = sk::encode_checkpoint(c);
  su::Bytes future = v1;
  future[11] = 99;  // big-endian u32 version right after the 8-byte magic
  // Recompute the trailing hash over the altered body.
  su::ByteView body(future.data(), future.size() - 32);
  auto hash = sc::Sha256::hash(body);
  std::copy(hash.begin(), hash.end(), future.end() - 32);
  std::string error;
  EXPECT_FALSE(sk::decode_checkpoint(su::ByteView(future), &error).has_value());
  EXPECT_NE(error.find("version 99"), std::string::npos) << error;
  EXPECT_NE(error.find("newer"), std::string::npos) << error;
  EXPECT_NE(error.find("version " + std::to_string(sk::kCheckpointVersion)), std::string::npos)
      << error;
}

TEST(CheckpointCodec, OlderVersionRejectedWithDiagnostic) {
  // A well-formed checkpoint of every older format version (valid integrity
  // hash) is rejected at decode, naming both versions — not accepted and
  // left to fail later as a misleading world-digest or payload mismatch.
  ASSERT_GT(sk::kCheckpointVersion, 1u);
  for (std::uint32_t old_version = 1; old_version < sk::kCheckpointVersion; ++old_version) {
    su::Bytes older = sk::encode_checkpoint(sample_checkpoint());
    for (int b = 0; b < 4; ++b) {  // big-endian u32 right after the 8-byte magic
      older[8 + b] = static_cast<std::uint8_t>(old_version >> (24 - 8 * b));
    }
    su::ByteView body(older.data(), older.size() - 32);
    auto hash = sc::Sha256::hash(body);
    std::copy(hash.begin(), hash.end(), older.end() - 32);
    std::string error;
    EXPECT_FALSE(sk::decode_checkpoint(su::ByteView(older), &error).has_value());
    EXPECT_NE(error.find("version " + std::to_string(old_version)), std::string::npos) << error;
    EXPECT_NE(error.find("older"), std::string::npos) << error;
    EXPECT_NE(error.find("version " + std::to_string(sk::kCheckpointVersion)), std::string::npos)
        << error;
  }
}

TEST(CheckpointCodec, TrailingBytesRejected) {
  // Craft a body with junk after the payload and a matching hash: only the
  // done() check can catch this one.
  sk::Checkpoint c = sample_checkpoint();
  su::Bytes v1 = sk::encode_checkpoint(c);
  su::Bytes padded(v1.begin(), v1.end() - 32);
  padded.push_back(0xEE);
  auto hash = sc::Sha256::hash(su::ByteView(padded));
  padded.insert(padded.end(), hash.begin(), hash.end());
  std::string error;
  EXPECT_FALSE(sk::decode_checkpoint(su::ByteView(padded), &error).has_value());
  EXPECT_NE(error.find("trailing"), std::string::npos) << error;
}

TEST(CheckpointCodec, BitFlipRejectedByIntegrityHash) {
  su::Bytes encoded = sk::encode_checkpoint(sample_checkpoint());
  encoded[encoded.size() / 2] ^= 0x40;
  std::string error;
  EXPECT_FALSE(sk::decode_checkpoint(su::ByteView(encoded), &error).has_value());
  EXPECT_NE(error.find("integrity"), std::string::npos) << error;
}

TEST(CheckpointStore, SavesAtomicallyAndLoadsHighestSegment) {
  sk::CheckpointStore store(temp_dir("ckpt-store"));
  sk::Checkpoint c = sample_checkpoint();
  std::string error;
  c.segment = 2;
  ASSERT_TRUE(store.save(c, &error)) << error;
  c.segment = 10;
  c.sim_time = 99999.0;
  ASSERT_TRUE(store.save(c, &error)) << error;
  auto latest = store.load_latest(&error);
  ASSERT_TRUE(latest.has_value()) << error;
  EXPECT_EQ(latest->segment, 10u);
  EXPECT_EQ(latest->sim_time, 99999.0);
  // No half-written temp files survive a successful save.
  for (const auto& entry : std::filesystem::directory_iterator(store.dir())) {
    EXPECT_EQ(entry.path().extension(), ".bin") << entry.path();
  }
}

TEST(CheckpointStore, CorruptFileRejectedNotPartiallyLoaded) {
  sk::CheckpointStore store(temp_dir("ckpt-corrupt"));
  std::filesystem::create_directories(store.dir());
  std::ofstream(store.dir() + "/ckpt-1.bin") << "this is not a checkpoint";
  std::string error;
  EXPECT_FALSE(store.load_latest(&error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(CheckpointCodec, WorldDigestDistinguishesWorlds) {
  sd::ScenarioConfig config = small_config("interest", 5);
  config.nodes = 6;
  config.days = 0.25;
  auto world = sd::record_world(config);
  auto base = sk::world_digest(config, *world);
  sd::ScenarioConfig other = config;
  other.seed = 6;
  EXPECT_NE(base, sk::world_digest(other, *world));
  sd::ScenarioConfig scheme_flip = config;
  scheme_flip.scheme = "epidemic";
  EXPECT_NE(base, sk::world_digest(scheme_flip, *world));
}

TEST(CheckpointLayout, NodeStatsAreBigEndianU64InDeclarationOrder) {
  // SosNode::save_state writes next_msg_num (u32), then every NodeStats
  // counter as a big-endian u64 (util::Writer's byte order) in declaration
  // order. The golden name list pins that order: a reordered or inserted
  // counter fails here, not only on a resume of an older checkpoint.
  const std::vector<std::string_view> checkpoint_order = {
      "sessions_established",    "sessions_lost",          "full_handshakes",
      "sessions_resumed",        "resume_attempts",        "resume_rejected",
      "ecdh_ops",                "handshake_cert_rejected", "handshake_sig_rejected",
      "frames_sent",             "frames_received",        "decrypt_failures",
      "malformed_frames",        "bundles_sent",           "bundles_received",
      "bundle_sig_rejected",     "bundle_cert_rejected",   "bundle_sig_cache_hits",
      "bundle_sig_cache_misses", "bundle_batch_verifies",  "bundle_batch_fallbacks",
      "duplicates_ignored",      "bundles_carried",        "deliveries",
      "transfers_interrupted",   "published",              "reboots"};
  std::vector<std::string_view> table_order;
  for (const sm::StatsField& f : sm::kNodeStatsFields) table_order.push_back(f.name);
  EXPECT_EQ(table_order, checkpoint_order);

  // With counter i (by declaration) = i + 1, the table walks declaration
  // order and the node writes and reads exactly those bytes.
  constexpr std::size_t kCounters = std::size(sm::kNodeStatsFields);
  std::array<std::uint64_t, kCounters> by_declaration{};
  for (std::size_t i = 0; i < kCounters; ++i) by_declaration[i] = i + 1;
  const auto numbered = std::bit_cast<sm::NodeStats>(by_declaration);
  for (std::size_t i = 0; i < kCounters; ++i) {
    EXPECT_EQ(numbered.*sm::kNodeStatsFields[i].member, i + 1) << sm::kNodeStatsFields[i].name;
  }

  ss::Scheduler sched;
  ss::MpcNetwork net(sched, 1);
  sp::BootstrapService infra(su::to_bytes("layout-ca"));
  sc::Drbg rng(su::to_bytes("dev-layout"));
  auto creds = infra.signup("alice", rng, 0.0);
  ASSERT_TRUE(creds);
  sm::SosNode node(sched, net.endpoint(0), std::move(*creds), sm::SosConfig{});
  node.start();
  node.detach();
  su::Writer w;
  node.save_state(w);
  su::Bytes blob = w.take();
  constexpr std::size_t kStatsAt = 4;  // after next_msg_num
  ASSERT_GE(blob.size(), kStatsAt + 8 * kCounters);
  for (std::size_t i = 0; i < kCounters; ++i) {
    for (std::size_t b = 0; b < 8; ++b) {
      blob[kStatsAt + 8 * i + b] = static_cast<std::uint8_t>(by_declaration[i] >> (56 - 8 * b));
    }
  }
  su::Reader r{su::ByteView(blob)};
  ASSERT_TRUE(node.load_state(r));
  EXPECT_TRUE(node.stats() == numbered);
  su::Writer again;
  node.save_state(again);
  EXPECT_EQ(again.take(), blob);
}

// --- checkpoint/resume determinism pins -------------------------------------

TEST(SoakResume, CheckpointResumeBitwiseIdenticalOnEveryEngine) {
  // The second config runs with a batch-verify window over a denser world
  // that runs past an evening of posts, so verify queues fill and flush on
  // both sides of the checkpoint cut.
  sd::ScenarioConfig windowed = small_config("epidemic", su::derive_seed(77, 4));
  windowed.area_w_m = 1500;
  windowed.area_h_m = 1500;
  windowed.days = 1.5;
  windowed.verify_batch_window_s = 30.0;
  for (const sd::ScenarioConfig& config :
       {traffic_config("interest", su::derive_seed(77, 1)), windowed}) {
    auto world = sd::record_world(config);
    ASSERT_GT(world->trace.size(), 0u);
    const sd::ScenarioResult baseline = sd::run_scenario(config, world.get());
    ASSERT_GT(baseline.oracle.post_count(), 0u);
    expect_traffic(baseline, config.scheme);
    if (config.verify_batch_window_s > 0) {
      EXPECT_GT(baseline.totals.bundle_batch_verifies, 0u);
    }
    for (const EngineOpt& e : all_engines()) {
      const std::string what = config.scheme + " " + e.name;
      // One uninterrupted session equals run_scenario.
      sd::ReplaySession whole(config, *world, e.opt);
      whole.advance_to(whole.horizon());
      expect_same_result(baseline, whole.finish(), what);

      // Checkpoint at a mid-run quiescent cut, resume in a fresh session,
      // round-tripping the state through the full checkpoint codec.
      sd::ReplaySession first(config, *world, e.opt);
      std::vector<su::SimTime> cuts = first.quiescent_cuts(60.0);
      ASSERT_FALSE(cuts.empty()) << what;
      first.advance_to(cuts[cuts.size() / 2]);
      EXPECT_TRUE(delivered_before(baseline, first.sim_time())) << what;
      sk::Checkpoint ckpt;
      ckpt.segment = 1;
      ckpt.sim_time = first.sim_time();
      ckpt.world_digest = sk::world_digest(config, *world);
      su::Writer w;
      first.save_state(w);
      ckpt.payload = w.take();
      std::string error;
      su::Bytes encoded = sk::encode_checkpoint(ckpt);
      auto decoded = sk::decode_checkpoint(su::ByteView(encoded), &error);
      ASSERT_TRUE(decoded.has_value()) << error;
      sd::ReplaySession second(config, *world, e.opt);
      su::Reader r{su::ByteView(decoded->payload)};
      ASSERT_TRUE(second.load_state(r)) << what;
      second.advance_to(second.horizon());
      expect_same_result(baseline, second.finish(), what + " (resumed)");
    }
  }
}

TEST(SoakResume, SegmentedAdvanceThroughEveryCutMatchesUninterrupted) {
  sd::ScenarioConfig config = traffic_config("epidemic", su::derive_seed(77, 2));
  auto world = sd::record_world(config);
  const sd::ScenarioResult baseline = sd::run_scenario(config, world.get());
  expect_traffic(baseline, "segmented");
  for (const EngineOpt& e :
       {EngineOpt{"mono", {}}, EngineOpt{"strand-j4", {.subepisode_jobs = 4}}}) {
    sd::ReplaySession session(config, *world, e.opt);
    std::vector<su::SimTime> cuts = session.quiescent_cuts(60.0);
    ASSERT_GE(cuts.size(), 2u) << e.name;
    for (su::SimTime cut : cuts) session.advance_to(cut);
    session.advance_to(session.horizon());
    expect_same_result(baseline, session.finish(), e.name);
  }
}

TEST(SoakResume, CheckpointCrossesEngines) {
  // Checkpoint under mono, resume under the strand engine, and the reverse:
  // node state is engine-agnostic.
  sd::ScenarioConfig config = traffic_config("interest", su::derive_seed(77, 3));
  auto world = sd::record_world(config);
  const sd::ScenarioResult baseline = sd::run_scenario(config, world.get());
  expect_traffic(baseline, "crossing");

  const EngineOpt mono{"mono", {}};
  const EngineOpt strand{"strand-j4", {.subepisode_jobs = 4}};
  for (const auto& [from, to] : {std::pair{mono, strand}, std::pair{strand, mono}}) {
    const std::string what = std::string(from.name) + " -> " + to.name;
    sd::ReplaySession writer(config, *world, from.opt);
    std::vector<su::SimTime> cuts = writer.quiescent_cuts(60.0);
    ASSERT_FALSE(cuts.empty()) << what;
    writer.advance_to(cuts[cuts.size() / 2]);
    EXPECT_TRUE(delivered_before(baseline, writer.sim_time())) << what;
    su::Writer w;
    writer.save_state(w);
    su::Bytes blob = w.take();

    sd::ReplaySession reader(config, *world, to.opt);
    su::Reader r{su::ByteView(blob)};
    ASSERT_TRUE(reader.load_state(r)) << what;
    reader.advance_to(reader.horizon());
    expect_same_result(baseline, reader.finish(), what);
  }
}

TEST(SoakResume, MalformedPayloadNeverPartiallyAttaches) {
  sd::ScenarioConfig config = traffic_config("interest", su::derive_seed(77, 1));
  auto world = sd::record_world(config);
  const sd::ScenarioResult baseline = sd::run_scenario(config, world.get());
  expect_traffic(baseline, "malformed");
  sd::ReplaySession donor(config, *world, {});
  std::vector<su::SimTime> cuts = donor.quiescent_cuts(60.0);
  ASSERT_FALSE(cuts.empty());
  donor.advance_to(cuts.back());
  EXPECT_TRUE(delivered_before(baseline, donor.sim_time()));
  su::Writer w;
  donor.save_state(w);
  su::Bytes blob = w.take();

  // A truncated payload must be rejected, and the rejected session must
  // still be able to run from scratch (nothing half-restored).
  su::Bytes cut_blob(blob.begin(), blob.begin() + static_cast<std::ptrdiff_t>(blob.size() / 2));
  sd::ReplaySession victim(config, *world, {});
  su::Reader r{su::ByteView(cut_blob)};
  EXPECT_FALSE(victim.load_state(r));
  EXPECT_EQ(victim.sim_time(), 0.0);
  victim.advance_to(victim.horizon());
  expect_same_result(baseline, victim.finish(), "rejected session run from scratch");
}

// --- soak runner ------------------------------------------------------------

TEST(SoakRunner, RunsToHorizonWithSnapshotsCheckpointsAndJsonl) {
  sk::SoakOptions opts;
  opts.config = small_config("interest", su::derive_seed(88, 1));
  opts.replay = {.subepisode_jobs = 2};
  opts.snapshot_interval_s = 4 * 3600.0;
  opts.checkpoint_interval_s = 8 * 3600.0;
  opts.checkpoint_dir = temp_dir("soak-run-ckpts");
  opts.jsonl_path = temp_dir("soak-run-log") + "/soak.jsonl";
  auto world = sd::record_world(opts.config);
  sk::SoakResult result = sk::Runner(opts).run(*world);

  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.stop_reason, "horizon");
  EXPECT_GT(result.snapshots.size(), 2u);
  EXPECT_GE(result.checkpoints_written, 1u);
  EXPECT_TRUE(result.anomalies.empty());
  // The run's metrics equal the plain replay's.
  expect_same_result(sd::run_scenario(opts.config, world.get()), result.scenario,
                     "soak run vs run_scenario");

  std::ifstream log(opts.jsonl_path);
  ASSERT_TRUE(log.good());
  std::string line;
  std::size_t snapshot_lines = 0;
  bool saw_result = false;
  // A snapshot record's keys are "kind" plus exactly the snapshot metric
  // names, each of which a --stop predicate resolves.
  std::vector<std::string> metric_names{"kind"};
  sk::for_each_metric(sk::MetricSnapshot{}, [&](std::string_view name, auto) {
    metric_names.emplace_back(name);
  });
  while (std::getline(log, line)) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    if (line.find("\"kind\":\"snapshot\"") != std::string::npos) {
      ++snapshot_lines;
      // Keys are the quoted strings followed by ':' (no value here holds a
      // quote).
      std::vector<std::string> keys;
      for (std::size_t open = line.find('"'); open != std::string::npos;) {
        std::size_t close = line.find('"', open + 1);
        ASSERT_NE(close, std::string::npos) << line;
        if (line[close + 1] == ':') keys.push_back(line.substr(open + 1, close - open - 1));
        open = line.find('"', close + 1);
      }
      EXPECT_EQ(keys, metric_names);
    }
    if (line.find("\"kind\":\"result\"") != std::string::npos) saw_result = true;
  }
  EXPECT_EQ(snapshot_lines, result.snapshots.size());
  EXPECT_TRUE(saw_result);
}

TEST(SoakRunner, ResumeFromStoredCheckpointMatchesUninterrupted) {
  sk::SoakOptions opts;
  opts.config = small_config("interest", su::derive_seed(88, 2));
  opts.replay = {.subepisode_jobs = 2};
  opts.snapshot_interval_s = 4 * 3600.0;
  opts.checkpoint_interval_s = 6 * 3600.0;
  opts.checkpoint_dir = temp_dir("soak-resume-ckpts");
  auto world = sd::record_world(opts.config);

  sk::SoakResult full = sk::Runner(opts).run(*world);
  ASSERT_TRUE(full.completed);
  ASSERT_GE(full.checkpoints_written, 1u);

  std::string error;
  auto ckpt = sk::CheckpointStore(opts.checkpoint_dir).load_latest(&error);
  ASSERT_TRUE(ckpt.has_value()) << error;
  sk::SoakResult resumed = sk::Runner(opts).resume(*world, *ckpt);
  EXPECT_TRUE(resumed.completed) << resumed.stop_reason;
  expect_same_result(full.scenario, resumed.scenario, "soak resume vs uninterrupted");
}

TEST(SoakRunner, ResumeRejectsForeignWorldCheckpoint) {
  sk::SoakOptions opts;
  opts.config = small_config("interest", su::derive_seed(88, 3));
  auto world = sd::record_world(opts.config);
  sk::Checkpoint foreign;
  foreign.world_digest.fill(0xAB);
  foreign.payload = su::to_bytes("whatever");
  sk::SoakResult result = sk::Runner(opts).resume(*world, foreign);
  EXPECT_FALSE(result.completed);
  EXPECT_EQ(result.stop_reason.rfind("resume-rejected", 0), 0u) << result.stop_reason;
  EXPECT_TRUE(result.snapshots.empty());
}

TEST(SoakRunner, MetricPredicateHaltsBeforeHorizon) {
  sk::SoakOptions opts;
  opts.config = small_config("interest", su::derive_seed(88, 4));
  opts.config.days = 2.0;  // posts land in day 1's evening, well before the horizon
  opts.snapshot_interval_s = 2 * 3600.0;
  opts.stop.predicates.push_back({"posts", ">=", 1.0});
  auto world = sd::record_world(opts.config);
  sk::SoakResult result = sk::Runner(opts).run(*world);
  EXPECT_FALSE(result.completed);
  EXPECT_EQ(result.stop_reason.rfind("predicate", 0), 0u) << result.stop_reason;
  EXPECT_LT(result.sim_time, su::days(opts.config.days));
}

TEST(SoakRunner, StopPredicatesResolveSnapshotNamesAndRejectUnknownOnes) {
  sk::SoakOptions opts;
  opts.config = small_config("interest", su::derive_seed(88, 5));
  auto world = sd::record_world(opts.config);

  // A NodeStats counter by its field name: it holds at the first snapshot
  // of a run without churn.
  opts.stop.predicates = {{"reboots", "<=", 0.0}};
  sk::SoakResult hit = sk::Runner(opts).run(*world);
  EXPECT_EQ(hit.stop_reason.rfind("predicate: reboots", 0), 0u) << hit.stop_reason;
  EXPECT_EQ(hit.segments, 1u);

  // An unknown name or op is rejected before anything replays.
  for (const sk::StopPredicate& bad :
       {sk::StopPredicate{"no_such_metric", ">=", 1.0}, sk::StopPredicate{"posts", "==", 1.0}}) {
    opts.stop.predicates = {bad};
    sk::SoakResult rejected = sk::Runner(opts).run(*world);
    EXPECT_EQ(rejected.stop_reason.rfind("invalid-predicate:", 0), 0u) << rejected.stop_reason;
    EXPECT_FALSE(rejected.completed);
    EXPECT_EQ(rejected.segments, 0u);
    EXPECT_EQ(rejected.sim_time, 0.0);
    EXPECT_TRUE(rejected.snapshots.empty());
  }
}

// --- metric snapshot --------------------------------------------------------

TEST(SoakSnapshot, EveryMetricNameIsUniqueAndResolves) {
  // Distinct values everywhere, so a name resolving to the wrong field shows.
  sk::MetricSnapshot snap;
  std::uint64_t next = 1;
  for (const sm::StatsField& f : sm::kNodeStatsFields) snap.totals.*f.member = next++;
  for (const sd::NetworkField& f : sd::kNetworkFields) snap.*f.member = next++;
  snap.sim_time = 2.5 * 86400.0;
  snap.segment = next++;
  snap.posts = next++;
  snap.store_bundles = next++;
  snap.resume_cache_entries = next++;
  snap.prophet_entries = next++;
  snap.crl_entries = next++;
  snap.rss_kb = next++;

  std::set<std::string> names;
  sk::for_each_metric(snap, [&](std::string_view name, auto value) {
    EXPECT_TRUE(names.insert(std::string(name)).second) << "duplicate metric " << name;
    double resolved = -1;
    EXPECT_TRUE(sk::snapshot_metric(snap, name, &resolved)) << name;
    EXPECT_EQ(resolved, static_cast<double>(value)) << name;
  });
  // Every counter is there under its field name, and the oracle copies are
  // gone: "deliveries" is the middleware counter.
  for (const sm::StatsField& f : sm::kNodeStatsFields) EXPECT_EQ(names.count(std::string(f.name)), 1u);
  for (const sd::NetworkField& f : sd::kNetworkFields) EXPECT_EQ(names.count(std::string(f.name)), 1u);
  EXPECT_EQ(names.count("carries"), 0u);
  double deliveries = 0;
  ASSERT_TRUE(sk::snapshot_metric(snap, "deliveries", &deliveries));
  EXPECT_EQ(deliveries, static_cast<double>(snap.totals.deliveries));
  double days = 0;
  ASSERT_TRUE(sk::snapshot_metric(snap, "sim_days", &days));
  EXPECT_DOUBLE_EQ(days, 2.5);
  double unused = 0;
  EXPECT_FALSE(sk::snapshot_metric(snap, "no_such_metric", &unused));
  // The anomaly detector's watch lists name snapshot metrics.
  for (std::string_view name : sk::AnomalyDetector::kRateWatch) EXPECT_EQ(names.count(std::string(name)), 1u) << name;
  for (std::string_view name : sk::AnomalyDetector::kStallWatch) EXPECT_EQ(names.count(std::string(name)), 1u) << name;
}

// --- anomaly detector -------------------------------------------------------

namespace {

sk::MetricSnapshot snap_at(double sim_time, std::uint64_t bundles_sent,
                           std::uint64_t wire_frames, std::uint64_t rss_kb) {
  sk::MetricSnapshot s;
  s.sim_time = sim_time;
  s.totals.bundles_sent = bundles_sent;
  s.totals.deliveries = bundles_sent;               // moves with bundles
  s.totals.sessions_established = bundles_sent / 4 + 1;
  s.totals.frames_sent = wire_frames;
  s.wire_frames = wire_frames;
  s.rss_kb = rss_kb;
  return s;
}

}  // namespace

TEST(AnomalyDetector, RateSpikeFlaggedAgainstRollingMean) {
  sk::AnomalyConfig cfg;
  cfg.window = 4;
  cfg.rate_spike_min = 100;
  sk::AnomalyDetector det(cfg);
  std::uint64_t sent = 0, frames = 0;
  for (int i = 0; i < 6; ++i) {
    sent += 10;
    frames += 40;
    EXPECT_TRUE(det.observe(snap_at(i * 3600.0, sent, frames, 0)).empty()) << i;
  }
  sent += 100000;  // 10000x the rolling mean
  frames += 40;
  auto found = det.observe(snap_at(7 * 3600.0, sent, frames, 0));
  // Correlated counters (sessions move with bundles in snap_at) may spike
  // together; the bundles_sent spike itself must be among the findings.
  bool spiked = false;
  for (const sk::Anomaly& a : found) {
    if (a.kind == "rate-spike" && a.metric == "bundles_sent") {
      spiked = true;
      EXPECT_NE(a.detail.find("rolling-window peak"), std::string::npos);
    }
  }
  EXPECT_TRUE(spiked);
}

TEST(AnomalyDetector, UnequalIntervalLengthsAreNotRateSpikes) {
  // Snapshots land on quiescent cuts, so interval lengths legitimately vary
  // severalfold. Regression for the first 30-day soak: constant per-hour
  // traffic observed over a mix of 6 h and 24 h intervals tripped the raw
  // per-interval-delta comparison (a 24 h interval carries 4x the count of a
  // 6 h one); the detector must compare per-sim-hour rates instead.
  sk::AnomalyConfig cfg;
  cfg.window = 4;
  cfg.rate_spike_min = 100;
  sk::AnomalyDetector det(cfg);
  const double kRatePerHour = 500.0;
  const double lengths_h[] = {6, 6, 6, 6, 6, 6, 24, 6, 24, 6, 24};
  double t = 0;
  std::uint64_t sent = 0, frames = 0;
  for (double len : lengths_h) {
    t += len * 3600.0;
    sent += static_cast<std::uint64_t>(kRatePerHour * len);
    frames += static_cast<std::uint64_t>(kRatePerHour * len) + 40;
    for (const sk::Anomaly& a : det.observe(snap_at(t, sent, frames, 0))) {
      EXPECT_NE(a.kind, "rate-spike") << a.detail;
    }
  }

  // The same detector still catches a genuine rate jump on a long interval:
  // 24 h at 10x the steady per-hour rate.
  t += 24 * 3600.0;
  sent += static_cast<std::uint64_t>(kRatePerHour * 10 * 24);
  frames += static_cast<std::uint64_t>(kRatePerHour * 10 * 24);
  bool spiked = false;
  for (const sk::Anomaly& a : det.observe(snap_at(t, sent, frames, 0))) {
    if (a.kind == "rate-spike" && a.metric == "bundles_sent") spiked = true;
  }
  EXPECT_TRUE(spiked);
}

TEST(AnomalyDetector, DutyCycledTrafficIsNotARateSpike) {
  // Regression for the second 30-day soak halt: weekday-only bridge
  // commuting pauses cross-community traffic over the weekend, and Monday
  // flushes the backlog — 751/h against a weekend-lulled rolling MEAN of
  // 85/h read as an 8.8x spike. The baseline must be the window's peak
  // rate, which the weekly rhythm never exceeds by the spike factor.
  sk::AnomalyConfig cfg;
  cfg.window = 6;
  cfg.rate_spike_min = 100;
  sk::AnomalyDetector det(cfg);
  double t = 0;
  std::uint64_t sent = 0, frames = 0;
  auto interval = [&](double len_h, double rate_per_h) {
    t += len_h * 3600.0;
    auto d = static_cast<std::uint64_t>(rate_per_h * len_h);
    sent += d;
    frames += d + 40;
    return det.observe(snap_at(t, sent, frames, 0));
  };
  // Two weeks: five 12 h busy weekday intervals at ~700/h, then a weekend
  // of near-silence, then Monday's backlog burst at 800/h.
  for (int week = 0; week < 2; ++week) {
    for (int d = 0; d < 5; ++d) {
      for (const sk::Anomaly& a : interval(12, 700)) {
        EXPECT_NE(a.kind, "rate-spike") << a.detail;
      }
    }
    for (int d = 0; d < 4; ++d) {
      for (const sk::Anomaly& a : interval(12, 2)) {
        EXPECT_NE(a.kind, "rate-spike") << a.detail;
      }
    }
    for (const sk::Anomaly& a : interval(12, 800)) {
      EXPECT_NE(a.kind, "rate-spike") << a.detail;
    }
  }
  // A genuine feedback loop still trips: 10x the recent peak.
  bool spiked = false;
  for (const sk::Anomaly& a : interval(12, 8000)) {
    if (a.kind == "rate-spike" && a.metric == "bundles_sent") spiked = true;
  }
  EXPECT_TRUE(spiked);
}

TEST(AnomalyDetector, StallFlaggedOnlyWhileTrafficFlows) {
  sk::AnomalyConfig cfg;
  cfg.window = 4;
  cfg.stall_intervals = 3;
  sk::AnomalyDetector det(cfg);
  std::uint64_t frames = 0;
  // Counters frozen but frames flowing: a stall after 3 such intervals.
  bool stalled = false;
  for (int i = 0; i < 6 && !stalled; ++i) {
    frames += 50;
    for (const sk::Anomaly& a : det.observe(snap_at(i * 3600.0, 5, frames, 0))) {
      if (a.kind == "stall") stalled = true;
    }
  }
  EXPECT_TRUE(stalled);

  // Frozen counters with no traffic are a quiet trace, not a stall.
  sk::AnomalyDetector quiet(cfg);
  for (int i = 0; i < 10; ++i) {
    for (const sk::Anomaly& a : quiet.observe(snap_at(i * 3600.0, 5, 100, 0))) {
      EXPECT_NE(a.kind, "stall") << a.detail;
    }
  }
}

TEST(AnomalyDetector, RssGrowthFlaggedAgainstWindowMinimum) {
  sk::AnomalyConfig cfg;
  cfg.window = 4;
  cfg.rss_growth_factor = 1.5;
  cfg.rss_growth_min_kb = 1000;
  sk::AnomalyDetector det(cfg);
  std::uint64_t sent = 0, frames = 0;
  for (int i = 0; i < 6; ++i) {
    sent += 10;
    frames += 40;
    EXPECT_TRUE(det.observe(snap_at(i * 3600.0, sent, frames, 10000)).empty()) << i;
  }
  sent += 10;
  frames += 40;
  auto found = det.observe(snap_at(7 * 3600.0, sent, frames, 25000));
  ASSERT_FALSE(found.empty());
  EXPECT_EQ(found.front().kind, "rss-growth");
  EXPECT_EQ(found.front().metric, "rss_kb");
}

// A month-scale soak's bundle stores legitimately fill toward capacity for
// weeks (59k resident copies by day 12 in the first month run), so raw RSS
// grows linearly far past any window-min factor. Growth explained by resident
// state is healthy; only RSS outpacing the stored bundles (KiB/bundle
// climbing) is a leak.
TEST(AnomalyDetector, StoreFillRssGrowthIsNotALeak) {
  sk::AnomalyConfig cfg;
  cfg.window = 4;
  cfg.rss_growth_min_kb = 1000;
  sk::AnomalyDetector det(cfg);
  std::uint64_t sent = 0, frames = 0, stored = 100;
  double t = 0;
  // Linear fill: +2000 bundles per interval at a flat ~1.3 KiB each on top of
  // 5 MiB of fixed overhead. Raw RSS ends 6.6x the window minimum.
  for (int i = 0; i < 20; ++i) {
    t += 6 * 3600.0;
    sent += 500;
    frames += 2000;
    stored += 2000;
    sk::MetricSnapshot s = snap_at(t, sent, frames, 5000 + (stored * 13) / 10);
    s.store_bundles = stored;
    for (const sk::Anomaly& a : det.observe(s)) {
      EXPECT_NE(a.kind, "rss-growth") << a.detail;
    }
  }
  // Now a genuine leak: stores hold flat while RSS keeps climbing.
  std::uint64_t rss = 5000 + (stored * 13) / 10;
  std::vector<sk::Anomaly> found;
  for (int i = 0; i < 12 && found.empty(); ++i) {
    t += 6 * 3600.0;
    sent += 500;
    frames += 2000;
    rss += 20000;
    sk::MetricSnapshot s = snap_at(t, sent, frames, rss);
    s.store_bundles = stored;
    for (const sk::Anomaly& a : det.observe(s)) {
      if (a.kind == "rss-growth") found.push_back(a);
    }
  }
  ASSERT_FALSE(found.empty());
  EXPECT_NE(found.front().detail.find("KiB per resident bundle"), std::string::npos)
      << found.front().detail;
}

TEST(Jsonl, EscapesAndRendersFlatObjects) {
  sk::JsonObject o;
  o.str("name", "line\nbreak \"quoted\"").count("n", 42).num("x", 1.5).boolean("ok", true);
  EXPECT_EQ(o.render(),
            "{\"name\":\"line\\nbreak \\\"quoted\\\"\",\"n\":42,\"x\":1.5,\"ok\":true}");

  std::string path = temp_dir("jsonl") + "/log.jsonl";
  std::filesystem::create_directories(std::filesystem::path(path).parent_path());
  {
    sk::JsonlWriter writer(path);
    ASSERT_TRUE(writer.ok());
    writer.write(o);
    writer.write(o);
  }
  std::ifstream in(path);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    EXPECT_EQ(line, o.render());
    ++lines;
  }
  EXPECT_EQ(lines, 2u);
}

// --- time-scale regression tests from the soak audit ------------------------

TEST(SoakResumeCache, TicketsReMintOnlyOnFullHandshake) {
  // Five daily contacts with a 24 h resumption-ticket lifetime. The ticket
  // minted by a full handshake at contact k is still (just) valid at
  // contact k+1 but expired by k+2 — resumption does not refresh the
  // ticket, so the cadence is full, resume, full, resume, full. A re-mint
  // on resume would show 1 full handshake; a re-mint too rarely, 5.
  ss::Scheduler sched;
  ss::MpcNetwork net(sched, 2);
  sp::BootstrapService infra(su::to_bytes("soak-ca"));
  sc::Drbg rng_a(su::to_bytes("dev-a"));
  sc::Drbg rng_b(su::to_bytes("dev-b"));
  auto creds_a = infra.signup("alice", rng_a, 0.0);
  auto creds_b = infra.signup("bob", rng_b, 0.0);
  ASSERT_TRUE(creds_a && creds_b);
  sm::SosConfig cfg;
  cfg.scheme = "epidemic";
  cfg.resume_lifetime_s = 86400.0;
  sm::SosNode alice(sched, net.endpoint(0), std::move(*creds_a), cfg);
  sm::SosNode bob(sched, net.endpoint(1), std::move(*creds_b), cfg);
  bob.follow(alice.user_id());
  alice.start();
  bob.start();

  ss::ContactTrace trace;
  for (int k = 0; k < 5; ++k) {
    double t0 = static_cast<double>(k) * 86400.0 + 3600.0;
    ASSERT_TRUE(trace.add({t0, t0 + 600.0, 0, 1}));
    // Fresh content before each contact so the peers always connect.
    sched.schedule_at(t0 - 300.0, [&alice, k] {
      alice.publish(su::to_bytes("post " + std::to_string(k)));
    });
  }
  ss::TracePlayer player(sched, trace);
  player.on_contact_start = [&](std::uint32_t a, std::uint32_t b) {
    net.set_in_range(static_cast<ss::PeerId>(a), static_cast<ss::PeerId>(b), true);
  };
  player.on_contact_end = [&](std::uint32_t a, std::uint32_t b) {
    net.set_in_range(static_cast<ss::PeerId>(a), static_cast<ss::PeerId>(b), false);
  };
  player.start();
  sched.run_until(5 * 86400.0);

  EXPECT_EQ(bob.stats().sessions_established, 5u);
  EXPECT_EQ(bob.stats().full_handshakes, 3u);
  EXPECT_EQ(bob.stats().sessions_resumed, 2u);
  EXPECT_EQ(alice.stats().full_handshakes, 3u);
  EXPECT_EQ(alice.stats().sessions_resumed, 2u);
  EXPECT_GT(bob.stats().deliveries, 0u);
}

TEST(SoakProphet, MonthScaleAgingPrunesInsteadOfDenormalizing) {
  sm::ProphetScheme scheme;
  sp::UserId self{}, peer_a{}, peer_b{};
  self.bytes[0] = 1;
  peer_a.bytes[0] = 2;
  peer_b.bytes[0] = 3;
  std::set<sp::UserId> subs;
  sos::bundle::BundleStore store(16);

  sm::RoutingContext t0(self, subs, store, 0.0);
  scheme.on_encounter(t0, peer_a);
  EXPECT_GT(scheme.predictability(peer_a), 0.7);
  EXPECT_EQ(scheme.table_size(), 1u);

  // A month later gamma^(30 d / 30 min) ~= 5e-13: far below the pruning
  // floor. The entry must be gone, not a denormal costing summary bytes.
  sm::RoutingContext month(self, subs, store, 30.0 * 86400.0);
  scheme.on_encounter(month, peer_b);
  EXPECT_EQ(scheme.table_size(), 1u);
  EXPECT_EQ(scheme.predictability(peer_a), 0.0);
  double pb = scheme.predictability(peer_b);
  EXPECT_GT(pb, 0.7);
  EXPECT_EQ(std::fpclassify(pb), FP_NORMAL);
}

TEST(SoakProphet, TransitiveCandidatesBelowFloorNeverInserted) {
  // The transitive update used to create permanent near-zero entries for
  // every destination any peer had ever heard of. With the floor, a
  // candidate below it must not enter the table at all.
  sm::ProphetParams tiny_beta;
  tiny_beta.beta = 1e-10;  // transitive candidate ~5.6e-11 < p_floor
  sm::ProphetScheme scheme(tiny_beta);
  sm::ProphetScheme carrier;
  sp::UserId self{}, carrier_id{}, dest{};
  self.bytes[0] = 1;
  carrier_id.bytes[0] = 2;
  dest.bytes[0] = 3;
  std::set<sp::UserId> subs;
  sos::bundle::BundleStore store(16);
  sm::RoutingContext ctx(self, subs, store, 100.0);

  carrier.on_encounter(ctx, dest);  // carrier can reach dest (P ~0.75)
  scheme.on_peer_blob(carrier_id, su::ByteView(carrier.summary_blob(ctx)));
  scheme.on_encounter(ctx, carrier_id);

  EXPECT_EQ(scheme.table_size(), 1u);  // the carrier only, never dest
  EXPECT_GT(scheme.predictability(carrier_id), 0.7);
  EXPECT_EQ(scheme.predictability(dest), 0.0);
}

TEST(SoakTrust, CrlSizeReportsTheBoundedRevocationSet) {
  sp::TrustStore trust;
  EXPECT_EQ(trust.crl_size(), 0u);
  trust.add_revoked(7);
  trust.add_revoked(7);  // set semantics: no double counting
  EXPECT_EQ(trust.crl_size(), 1u);
  trust.update_crl({1, 2, 3});
  EXPECT_EQ(trust.crl_size(), 3u);
}

namespace {

/// Mobility probe: two far-apart stationary nodes; records every sample
/// time the encounter detector queries.
class ProbeMobility : public ss::MobilityModel {
 public:
  std::size_t node_count() const override { return 2; }
  ss::Vec2 position(std::size_t node, su::SimTime t) const override {
    times.insert(t);
    return node == 0 ? ss::Vec2{0, 0} : ss::Vec2{100000, 0};
  }
  mutable std::set<double> times;
};

}  // namespace

TEST(SoakDetector, TickTimesStayOnTheStartAnchoredGrid) {
  // The k-th tick must land at exactly start + k*tick (one multiplication),
  // not at an accumulated sum of ticks — over a month of 0.1 s ticks the
  // accumulated float error silently shifts every contact edge.
  ss::Scheduler sched;
  ProbeMobility mobility;
  ss::EncounterDetector detector(sched, mobility, 50.0, 0.1);
  const double start = 1000.5;
  const double until = start + 500.0;
  sched.schedule_at(start, [&] { detector.start(until); });
  sched.run_until(until + 10.0);

  ASSERT_GT(mobility.times.size(), 4000u);
  std::size_t k = 0;
  for (double t : mobility.times) {
    ASSERT_EQ(t, start + static_cast<double>(k) * 0.1) << "tick " << k;
    ++k;
  }
  EXPECT_LE(*mobility.times.rbegin(), until);
}

TEST(SoakDetector, RecordedTraceReplaysToTheIdenticalTrace) {
  // Long-horizon live-vs-recorded equivalence: replaying a recorded trace
  // through TracePlayer into a TraceRecorder reproduces the trace exactly
  // (same intervals, same edge times, same order).
  sd::ScenarioConfig config = small_config("interest", su::derive_seed(99, 1));
  config.nodes = 8;
  auto world = sd::record_world(config);
  ASSERT_GT(world->trace.size(), 0u);

  ss::Scheduler sched;
  ss::TraceRecorder recorder(sched);
  ss::TracePlayer player(sched, world->trace);
  player.on_contact_start = [&](std::uint32_t a, std::uint32_t b) {
    recorder.contact_start(a, b);
  };
  player.on_contact_end = [&](std::uint32_t a, std::uint32_t b) {
    recorder.contact_end(a, b);
  };
  player.start();
  sched.run_until(su::days(config.days) + 1.0);
  ss::ContactTrace again = recorder.finish();

  ASSERT_EQ(again.size(), world->trace.size());
  for (std::size_t i = 0; i < again.size(); ++i) {
    const ss::ContactInterval& x = world->trace.contacts()[i];
    const ss::ContactInterval& y = again.contacts()[i];
    EXPECT_EQ(x.start, y.start) << i;
    EXPECT_EQ(x.end, y.end) << i;
    EXPECT_EQ(x.a, y.a) << i;
    EXPECT_EQ(x.b, y.b) << i;
  }
}
