// Simulator substrate tests: event scheduler semantics, mobility model
// invariants (bounds, determinism, sleep behaviour), encounter detection
// (grid vs brute force), and the MultipeerSim state machine including
// bandwidth-limited delivery and mid-transfer loss.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "sim/mobility.hpp"
#include "sim/multipeer.hpp"
#include "sim/radio.hpp"
#include "sim/scheduler.hpp"
#include "util/rng.hpp"

namespace ss = sos::sim;
namespace su = sos::util;

// --- Scheduler -----------------------------------------------------------

TEST(Scheduler, RunsInTimeOrder) {
  ss::Scheduler sched;
  std::vector<int> order;
  sched.schedule_at(3.0, [&] { order.push_back(3); });
  sched.schedule_at(1.0, [&] { order.push_back(1); });
  sched.schedule_at(2.0, [&] { order.push_back(2); });
  sched.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sched.now(), 3.0);
}

TEST(Scheduler, FifoAmongEqualTimestamps) {
  ss::Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) sched.schedule_at(1.0, [&order, i] { order.push_back(i); });
  sched.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Scheduler, ScheduleInIsRelative) {
  ss::Scheduler sched;
  double fired_at = -1;
  sched.schedule_at(5.0, [&] {
    sched.schedule_in(2.5, [&] { fired_at = sched.now(); });
  });
  sched.run_all();
  EXPECT_DOUBLE_EQ(fired_at, 7.5);
}

TEST(Scheduler, CancelPreventsExecution) {
  ss::Scheduler sched;
  bool fired = false;
  auto id = sched.schedule_at(1.0, [&] { fired = true; });
  sched.cancel(id);
  sched.run_all();
  EXPECT_FALSE(fired);
}

TEST(Scheduler, InvalidEventIdIsNeverMintedAndCancelsAsNoOp) {
  // kInvalidEventId is the "no event armed" sentinel the middleware's
  // maybe-scheduled fields (verify flush, routing push/maintenance) init
  // to and reset to on disarm. The scheduler must never mint it — ids
  // start above the sentinel — and cancelling it must be a harmless no-op
  // that leaves no bookkeeping behind.
  ss::Scheduler sched;
  bool fired = false;
  auto id = sched.schedule_at(1.0, [&] { fired = true; });
  EXPECT_NE(id, ss::kInvalidEventId);
  sched.cancel(ss::kInvalidEventId);
  EXPECT_EQ(sched.cancelled_backlog(), 0u);  // no-op left no tombstone
  sched.run_all();
  EXPECT_TRUE(fired);  // the live event was untouched
  // Fresh schedulers (replay shards construct one per task) also never
  // hand out the sentinel as their first id.
  ss::Scheduler shard(100.0);
  EXPECT_NE(shard.schedule_in(1.0, [] {}), ss::kInvalidEventId);
}

TEST(Scheduler, RunUntilStopsAtBoundaryAndAdvancesClock) {
  ss::Scheduler sched;
  int count = 0;
  sched.schedule_at(1.0, [&] { ++count; });
  sched.schedule_at(2.0, [&] { ++count; });
  sched.schedule_at(5.0, [&] { ++count; });
  sched.run_until(3.0);
  EXPECT_EQ(count, 2);
  EXPECT_DOUBLE_EQ(sched.now(), 3.0);
  sched.run_all();
  EXPECT_EQ(count, 3);
}

TEST(Scheduler, PastEventsClampToNow) {
  ss::Scheduler sched;
  sched.schedule_at(10.0, [] {});
  sched.run_all();
  double fired_at = -1;
  sched.schedule_at(1.0, [&] { fired_at = sched.now(); });  // in the past
  sched.run_all();
  EXPECT_DOUBLE_EQ(fired_at, 10.0);
}

TEST(Scheduler, EventsScheduledDuringRunUntilSameWindowExecute) {
  ss::Scheduler sched;
  bool inner = false;
  sched.schedule_at(1.0, [&] {
    sched.schedule_in(0.5, [&] { inner = true; });
  });
  sched.run_until(2.0);
  EXPECT_TRUE(inner);
}

namespace {
/// Counts copy constructions into a shared counter; moves are free.
struct CopyProbe {
  int* copies;
  explicit CopyProbe(int* c) : copies(c) {}
  CopyProbe(const CopyProbe& o) : copies(o.copies) { ++*copies; }
  CopyProbe(CopyProbe&&) noexcept = default;
  CopyProbe& operator=(const CopyProbe&) = delete;
  CopyProbe& operator=(CopyProbe&&) = delete;
};
}  // namespace

TEST(Scheduler, StepMovesEventCallablesWithoutCopying) {
  // A radio delivery's callable owns the frame bytes; popping an event must
  // move it out of the queue, never clone it (with its captures) per step.
  ss::Scheduler sched;
  int copies = 0;
  int fired = 0;
  CopyProbe probe(&copies);
  for (int i = 0; i < 64; ++i) {
    // Out-of-order times and ties, so the heap reshuffles on every push/pop.
    double t = static_cast<double>((i * 37) % 11);
    sched.schedule_at(t, [probe, &fired] { ++fired; (void)probe; });
  }
  auto cancelled = sched.schedule_at(3.0, [probe] { (void)probe; });
  sched.cancel(cancelled);
  copies = 0;  // captures were copied in above; only the run is measured
  sched.run_all();
  EXPECT_EQ(fired, 64);
  EXPECT_EQ(copies, 0);
}

// --- Trajectory / mobility ---------------------------------------------------

TEST(Trajectory, InterpolatesLinearly) {
  ss::Trajectory tr;
  tr.add(0, {0, 0});
  tr.add(10, {100, 0});
  auto p = tr.at(5);
  EXPECT_DOUBLE_EQ(p.x, 50);
  EXPECT_DOUBLE_EQ(p.y, 0);
}

TEST(Trajectory, ClampsOutsideRange) {
  ss::Trajectory tr;
  tr.add(10, {1, 2});
  tr.add(20, {3, 4});
  EXPECT_DOUBLE_EQ(tr.at(0).x, 1);
  EXPECT_DOUBLE_EQ(tr.at(100).x, 3);
}

TEST(Trajectory, DwellSegmentsHold) {
  ss::Trajectory tr;
  tr.add(0, {5, 5});
  tr.add(10, {5, 5});
  tr.add(20, {15, 5});
  EXPECT_DOUBLE_EQ(tr.at(7).x, 5);
  EXPECT_DOUBLE_EQ(tr.at(15).x, 10);
}

namespace {
struct ModelCase {
  const char* name;
  int which;  // 0 rwp, 1 levy, 2 daily
};

std::unique_ptr<ss::TrajectoryMobility> make_model(int which, std::size_t nodes,
                                                   double horizon, su::Rng& rng) {
  switch (which) {
    case 0:
      return ss::random_waypoint(nodes, horizon, {}, rng);
    case 1:
      return ss::levy_walk(nodes, horizon, {}, rng);
    default:
      return ss::daily_routine(nodes, horizon, {}, rng);
  }
}
}  // namespace

class MobilityBounds : public ::testing::TestWithParam<int> {};

TEST_P(MobilityBounds, PositionsStayInArea) {
  su::Rng rng(99);
  auto m = make_model(GetParam(), 8, su::days(2), rng);
  ss::AreaSpec area{};
  for (std::size_t node = 0; node < m->node_count(); ++node) {
    for (double t = 0; t <= su::days(2); t += 977.0) {
      auto p = m->position(node, t);
      EXPECT_GE(p.x, -1e-9);
      EXPECT_LE(p.x, area.width_m + 1e-9);
      EXPECT_GE(p.y, -1e-9);
      EXPECT_LE(p.y, area.height_m + 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Models, MobilityBounds, ::testing::Values(0, 1, 2));

// Degenerate-parameter regressions: a zero speed draw used to produce an
// infinite travel time, and a zero-distance leg with zero pause (e.g. a 0x0
// area) used to spin the generation loop forever without advancing t.
TEST(RandomWaypoint, ZeroSpeedParamsTerminateWithFiniteAnchors) {
  su::Rng rng(3);
  ss::RandomWaypointParams params;
  params.min_speed_mps = 0.0;
  params.max_speed_mps = 0.0;
  params.min_pause_s = 0.0;
  params.max_pause_s = 0.0;
  auto m = ss::random_waypoint(3, 5000.0, params, rng);
  for (std::size_t node = 0; node < 3; ++node) {
    const auto& tr = m->trajectory(node);
    EXPECT_TRUE(std::isfinite(tr.end_time()));
    auto p = m->position(node, 2500.0);
    EXPECT_TRUE(std::isfinite(p.x));
    EXPECT_TRUE(std::isfinite(p.y));
  }
}

TEST(RandomWaypoint, ZeroAreaZeroPauseDoesNotHang) {
  su::Rng rng(4);
  ss::RandomWaypointParams params;
  params.area = {0.0, 0.0};  // every target equals the current position
  params.min_pause_s = 0.0;
  params.max_pause_s = 0.0;
  auto m = ss::random_waypoint(2, 1000.0, params, rng);
  for (std::size_t node = 0; node < 2; ++node) {
    auto p = m->position(node, 500.0);
    EXPECT_DOUBLE_EQ(p.x, 0.0);
    EXPECT_DOUBLE_EQ(p.y, 0.0);
  }
}

TEST(LevyWalk, ZeroSpeedZeroPauseDoesNotHang) {
  su::Rng rng(5);
  ss::LevyWalkParams params;
  params.speed_mps = 0.0;
  params.max_pause_s = 0.0;
  auto m = ss::levy_walk(2, 2000.0, params, rng);
  for (std::size_t node = 0; node < 2; ++node) {
    const auto& tr = m->trajectory(node);
    EXPECT_TRUE(std::isfinite(tr.end_time()));
    auto p = m->position(node, 1000.0);
    EXPECT_TRUE(std::isfinite(p.x));
    EXPECT_TRUE(std::isfinite(p.y));
  }
}

class MobilityDeterminism : public ::testing::TestWithParam<int> {};

TEST_P(MobilityDeterminism, SameSeedSamePositions) {
  su::Rng rng1(7), rng2(7);
  auto a = make_model(GetParam(), 5, su::days(1), rng1);
  auto b = make_model(GetParam(), 5, su::days(1), rng2);
  for (std::size_t node = 0; node < 5; ++node) {
    for (double t = 0; t < su::days(1); t += 3601.0) {
      auto pa = a->position(node, t);
      auto pb = b->position(node, t);
      EXPECT_DOUBLE_EQ(pa.x, pb.x);
      EXPECT_DOUBLE_EQ(pa.y, pb.y);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Models, MobilityDeterminism, ::testing::Values(0, 1, 2));

TEST(DailyRoutine, NodesSleepAtHomeOvernight) {
  su::Rng rng(3);
  auto m = ss::daily_routine(6, su::days(3), {}, rng);
  // At 3am every node is at the same place it was at 1am (asleep at home).
  for (std::size_t node = 0; node < 6; ++node) {
    for (int day = 1; day < 3; ++day) {
      auto p1 = m->position(node, su::days(day) + su::hours(1));
      auto p3 = m->position(node, su::days(day) + su::hours(3));
      EXPECT_NEAR(p1.x, p3.x, 1e-6);
      EXPECT_NEAR(p1.y, p3.y, 1e-6);
    }
  }
}

TEST(DailyRoutine, WeekdayCreatesCoLocation) {
  // With clustered hotspots, some pair should pass within radio range on a
  // weekday; this is the mechanism that makes D2D encounters happen at all.
  su::Rng rng(5);
  ss::DailyRoutineParams params;
  params.hotspot_count = 3;
  auto m = ss::daily_routine(10, su::days(1), params, rng);
  double best = 1e18;
  for (double t = su::hours(8); t < su::hours(22); t += 300.0) {
    for (std::size_t i = 0; i < 10; ++i)
      for (std::size_t j = i + 1; j < 10; ++j)
        best = std::min(best, ss::distance(m->position(i, t), m->position(j, t)));
  }
  EXPECT_LT(best, 150.0);
}

// --- multi-community daily routine ------------------------------------------

namespace {
/// Community grid cell (see daily_routine: near-square grid over the area)
/// a position falls into, for membership checks.
std::size_t community_of(const ss::Vec2& p, const ss::AreaSpec& area, std::size_t k) {
  std::size_t gx = static_cast<std::size_t>(std::ceil(std::sqrt(static_cast<double>(k))));
  std::size_t gy = (k + gx - 1) / gx;
  auto clamp_idx = [](double v, std::size_t n) {
    auto i = static_cast<std::size_t>(std::max(v, 0.0));
    return i < n ? i : n - 1;
  };
  std::size_t cx = clamp_idx(p.x / (area.width_m / static_cast<double>(gx)), gx);
  std::size_t cy = clamp_idx(p.y / (area.height_m / static_cast<double>(gy)), gy);
  return cy * gx + cx;
}
}  // namespace

TEST(DailyRoutine, NonBridgeNodesStayInTheirCommunityCell) {
  su::Rng rng(11);
  ss::DailyRoutineParams params;
  params.area = {6000, 6000};
  params.community_count = 4;
  params.bridge_node_frac = 0.0;  // nobody commutes
  auto m = ss::daily_routine(16, su::days(3), params, rng);
  for (std::size_t node = 0; node < 16; ++node) {
    for (double t = 0; t < su::days(3); t += 1800.0) {
      EXPECT_EQ(community_of(m->position(node, t), params.area, 4), node % 4)
          << "node " << node << " left its community at t=" << t;
    }
  }
}

TEST(DailyRoutine, BridgeNodesVisitMultipleCommunities) {
  su::Rng rng(13);
  ss::DailyRoutineParams params;
  params.area = {6000, 6000};
  params.community_count = 4;
  params.bridge_node_frac = 1.0;  // everyone commutes
  params.active_weekdays = 5;     // attend daily so the rotation is visible
  params.active_attend_p = 1.0;
  auto m = ss::daily_routine(8, su::days(3), params, rng);
  // Some node's midday position must land in different communities on
  // different (week)days: the bridge rotation at work.
  bool some_node_moved = false;
  for (std::size_t node = 0; node < 8 && !some_node_moved; ++node) {
    std::set<std::size_t> seen;
    for (int day = 0; day < 3; ++day) {
      if (su::is_weekend(su::days(day))) continue;
      seen.insert(community_of(m->position(node, su::days(day) + su::hours(13)),
                               params.area, 4));
    }
    some_node_moved = seen.size() > 1;
  }
  EXPECT_TRUE(some_node_moved);
}

TEST(DailyRoutine, HomeSeparationKeepsHouseholdsApart) {
  su::Rng rng(17);
  ss::DailyRoutineParams params;
  params.area = {6000, 6000};
  params.community_count = 4;
  params.home_min_separation_m = 150.0;
  auto m = ss::daily_routine(24, su::days(1), params, rng);
  // 4am: everyone is asleep at home; all pairwise home distances respect
  // the separation floor (the knob that keeps overnight pairs out of radio
  // range and the contact-strand DAG decomposable).
  for (std::size_t i = 0; i < 24; ++i) {
    for (std::size_t j = i + 1; j < 24; ++j) {
      EXPECT_GE(ss::distance(m->position(i, su::hours(4)), m->position(j, su::hours(4))),
                150.0)
          << "homes " << i << " and " << j;
    }
  }
}

TEST(DailyRoutine, SingleCommunityConfigMatchesClassicModel) {
  // community_count = 1 (and 0) must reproduce the classic generator
  // draw-for-draw: the whole sweep history rests on that stream.
  su::Rng rng_classic(23), rng_one(23), rng_zero(23);
  ss::DailyRoutineParams classic;
  ss::DailyRoutineParams one = classic;
  one.community_count = 1;
  one.bridge_node_frac = 0.25;  // irrelevant without communities: never drawn
  ss::DailyRoutineParams zero = classic;
  zero.community_count = 0;
  auto a = ss::daily_routine(6, su::days(2), classic, rng_classic);
  auto b = ss::daily_routine(6, su::days(2), one, rng_one);
  auto c = ss::daily_routine(6, su::days(2), zero, rng_zero);
  for (std::size_t node = 0; node < 6; ++node) {
    for (double t = 0; t < su::days(2); t += 3600.0) {
      auto pa = a->position(node, t);
      auto pb = b->position(node, t);
      auto pc = c->position(node, t);
      EXPECT_DOUBLE_EQ(pa.x, pb.x);
      EXPECT_DOUBLE_EQ(pa.y, pb.y);
      EXPECT_DOUBLE_EQ(pa.x, pc.x);
      EXPECT_DOUBLE_EQ(pa.y, pc.y);
    }
  }
}

// --- EncounterDetector ------------------------------------------------------

namespace {
/// Two nodes that approach, meet, and separate on a straight line.
std::unique_ptr<ss::TrajectoryMobility> approach_and_leave() {
  std::vector<ss::Trajectory> trs(2);
  trs[0].add(0, {0, 0});
  trs[0].add(1000, {0, 0});
  trs[1].add(0, {500, 0});
  trs[1].add(250, {10, 0});   // within 50m range
  trs[1].add(500, {10, 0});
  trs[1].add(750, {500, 0});  // leaves
  trs[1].add(1000, {500, 0});
  return std::make_unique<ss::TrajectoryMobility>(std::move(trs));
}
}  // namespace

TEST(EncounterDetector, DetectsContactStartAndEnd) {
  ss::Scheduler sched;
  auto m = approach_and_leave();
  ss::EncounterDetector det(sched, *m, 50.0, 10.0);
  double start_t = -1, end_t = -1;
  det.on_contact_start = [&](std::size_t a, std::size_t b) {
    EXPECT_EQ(a, 0u);
    EXPECT_EQ(b, 1u);
    start_t = sched.now();
  };
  det.on_contact_end = [&](std::size_t, std::size_t) { end_t = sched.now(); };
  det.start(1000);
  sched.run_all();
  EXPECT_GT(start_t, 200.0);
  EXPECT_LT(start_t, 300.0);
  EXPECT_GT(end_t, 500.0);
  EXPECT_LT(end_t, 800.0);
  EXPECT_EQ(det.total_contacts_seen(), 1u);
}

TEST(EncounterDetector, GridMatchesBruteForce) {
  su::Rng rng(21);
  auto m = ss::random_waypoint(40, 2000, {}, rng);
  ss::Scheduler sched;
  ss::EncounterDetector det(sched, *m, 200.0, 50.0);
  std::set<std::pair<std::size_t, std::size_t>> events;
  det.on_contact_start = [&](std::size_t a, std::size_t b) { events.insert({a, b}); };
  det.start(1000);
  sched.run_until(1000);
  // brute-force at t=1000
  for (std::size_t i = 0; i < 40; ++i)
    for (std::size_t j = i + 1; j < 40; ++j) {
      bool close = ss::distance(m->position(i, 1000), m->position(j, 1000)) <= 200.0;
      EXPECT_EQ(det.in_contact(i, j), close) << i << "," << j;
    }
}

TEST(EncounterDetector, NoSelfOrDuplicatePairs) {
  su::Rng rng(4);
  auto m = ss::random_waypoint(10, 500, {}, rng);
  ss::Scheduler sched;
  ss::EncounterDetector det(sched, *m, 50000.0, 100.0);  // radius spans the whole area
  int starts = 0;
  det.on_contact_start = [&](std::size_t a, std::size_t b) {
    EXPECT_LT(a, b);
    ++starts;
  };
  det.start(200);
  sched.run_all();
  EXPECT_EQ(starts, 45);  // C(10,2), each exactly once
}

// --- MultipeerSim ---------------------------------------------------------------

namespace {
struct MpcFixture {
  ss::Scheduler sched;
  ss::MpcNetwork net{sched, 3, ss::RadioParams{}};
};
}  // namespace

TEST(Mpc, DiscoveryRequiresRangeAndRoles) {
  MpcFixture f;
  auto& a = f.net.endpoint(0);
  auto& b = f.net.endpoint(1);
  std::vector<ss::PeerId> found;
  b.on_peer_found = [&](ss::PeerId p, const ss::DiscoveryInfo&) { found.push_back(p); };
  a.start_advertising({{"USER000001", "5"}});
  b.start_browsing();
  f.sched.run_all();
  EXPECT_TRUE(found.empty());  // not in range yet
  f.net.set_in_range(0, 1, true);
  f.sched.run_all();
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0], 0u);
}

TEST(Mpc, DiscoveryInfoCarriesDictionary) {
  MpcFixture f;
  auto& a = f.net.endpoint(0);
  auto& b = f.net.endpoint(1);
  ss::DiscoveryInfo seen;
  b.on_peer_found = [&](ss::PeerId, const ss::DiscoveryInfo& info) { seen = info; };
  a.start_advertising({{"USERAAA", "7"}, {"USERBBB", "3"}});
  b.start_browsing();
  f.net.set_in_range(0, 1, true);
  f.sched.run_all();
  EXPECT_EQ(seen.at("USERAAA"), "7");
  EXPECT_EQ(seen.at("USERBBB"), "3");
}

TEST(Mpc, PeerLostOnRangeExit) {
  MpcFixture f;
  auto& a = f.net.endpoint(0);
  auto& b = f.net.endpoint(1);
  bool lost = false;
  b.on_peer_lost = [&](ss::PeerId p) { lost = (p == 0); };
  a.start_advertising({});
  b.start_browsing();
  f.net.set_in_range(0, 1, true);
  f.sched.run_all();
  f.net.set_in_range(0, 1, false);
  f.sched.run_all();
  EXPECT_TRUE(lost);
}

TEST(Mpc, InviteEstablishesAfterSetupTime) {
  MpcFixture f;
  auto& a = f.net.endpoint(0);
  auto& b = f.net.endpoint(1);
  b.start_advertising({});
  a.start_browsing();
  f.net.set_in_range(0, 1, true);
  double connected_at = -1;
  a.on_connected = [&](ss::PeerId) { connected_at = f.sched.now(); };
  bool b_connected = false;
  b.on_connected = [&](ss::PeerId p) { b_connected = (p == 0); };
  a.invite(1);
  f.sched.run_all();
  EXPECT_NEAR(connected_at, f.net.radio().setup_time_s, 1e-9);
  EXPECT_TRUE(b_connected);
  EXPECT_TRUE(a.is_connected(1));
  EXPECT_EQ(f.net.connections_established(), 1u);
}

TEST(Mpc, InvitationCanBeDeclined) {
  MpcFixture f;
  auto& a = f.net.endpoint(0);
  auto& b = f.net.endpoint(1);
  b.start_advertising({});
  b.on_invitation = [](ss::PeerId) { return false; };
  f.net.set_in_range(0, 1, true);
  a.invite(1);
  f.sched.run_all();
  EXPECT_FALSE(a.is_connected(1));
  EXPECT_EQ(f.net.connections_failed(), 1u);
}

TEST(Mpc, InviteFailsIfRangeLostDuringSetup) {
  MpcFixture f;
  auto& a = f.net.endpoint(0);
  auto& b = f.net.endpoint(1);
  b.start_advertising({});
  f.net.set_in_range(0, 1, true);
  a.invite(1);
  f.sched.schedule_in(0.5, [&] { f.net.set_in_range(0, 1, false); });
  f.sched.run_all();
  EXPECT_FALSE(a.is_connected(1));
  EXPECT_EQ(f.net.connections_failed(), 1u);
}

TEST(Mpc, ReliableFrameDelivery) {
  MpcFixture f;
  auto& a = f.net.endpoint(0);
  auto& b = f.net.endpoint(1);
  b.start_advertising({});
  f.net.set_in_range(0, 1, true);
  a.invite(1);
  su::Bytes received;
  b.on_receive = [&](ss::PeerId, su::Bytes data) { received = std::move(data); };
  f.sched.run_all();
  a.send(1, su::to_bytes("hello dtn"));
  f.sched.run_all();
  EXPECT_EQ(su::to_string(received), "hello dtn");
  EXPECT_EQ(f.net.frames_delivered(), 1u);
}

TEST(Mpc, FramesArriveInOrderWithBandwidthDelay) {
  MpcFixture f;
  auto& a = f.net.endpoint(0);
  auto& b = f.net.endpoint(1);
  b.start_advertising({});
  f.net.set_in_range(0, 1, true);
  a.invite(1);
  std::vector<std::string> got;
  std::vector<double> at;
  b.on_receive = [&](ss::PeerId, su::Bytes data) {
    got.push_back(su::to_string(data));
    at.push_back(f.sched.now());
  };
  f.sched.run_all();
  su::Bytes big(2'000'000, 0xAA);  // 2MB at 2MB/s ~= 1s on the wire
  a.send(1, big);
  a.send(1, su::to_bytes("second"));
  f.sched.run_all();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[1], "second");
  EXPECT_GT(at[0], f.net.radio().setup_time_s + 0.9);  // big transfer took ~1s
  EXPECT_GT(at[1], at[0]);                             // serialized behind it
}

TEST(Mpc, MidTransferDisconnectLosesFrame) {
  MpcFixture f;
  auto& a = f.net.endpoint(0);
  auto& b = f.net.endpoint(1);
  b.start_advertising({});
  f.net.set_in_range(0, 1, true);
  a.invite(1);
  int received = 0;
  b.on_receive = [&](ss::PeerId, su::Bytes) { ++received; };
  bool a_dropped = false;
  a.on_disconnected = [&](ss::PeerId) { a_dropped = true; };
  f.sched.run_all();
  su::Bytes big(4'000'000, 0xBB);  // ~2s transfer
  a.send(1, big);
  f.sched.schedule_in(0.5, [&] { f.net.set_in_range(0, 1, false); });
  f.sched.run_all();
  EXPECT_EQ(received, 0);
  EXPECT_TRUE(a_dropped);
  EXPECT_EQ(f.net.frames_lost(), 1u);
}

TEST(Mpc, SendWithoutSessionIsDropped) {
  MpcFixture f;
  auto& a = f.net.endpoint(0);
  int received = 0;
  f.net.endpoint(1).on_receive = [&](ss::PeerId, su::Bytes) { ++received; };
  a.send(1, su::to_bytes("void"));
  f.sched.run_all();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(f.net.frames_sent(), 0u);
}

TEST(Mpc, WireSnifferSeesFrames) {
  MpcFixture f;
  auto& a = f.net.endpoint(0);
  auto& b = f.net.endpoint(1);
  b.start_advertising({});
  f.net.set_in_range(0, 1, true);
  a.invite(1);
  su::Bytes sniffed;
  f.net.on_wire_frame = [&](ss::PeerId, ss::PeerId, const su::Bytes& w) { sniffed = w; };
  f.sched.run_all();
  a.send(1, su::to_bytes("plaintext-on-the-wire"));
  f.sched.run_all();
  EXPECT_EQ(su::to_string(sniffed), "plaintext-on-the-wire");
}

TEST(Mpc, ReconnectAfterRangeCycle) {
  MpcFixture f;
  auto& a = f.net.endpoint(0);
  auto& b = f.net.endpoint(1);
  b.start_advertising({});
  a.start_browsing();
  f.net.set_in_range(0, 1, true);
  a.invite(1);
  f.sched.run_all();
  ASSERT_TRUE(a.is_connected(1));
  f.net.set_in_range(0, 1, false);
  f.sched.run_all();
  EXPECT_FALSE(a.is_connected(1));
  f.net.set_in_range(0, 1, true);
  a.invite(1);
  int received = 0;
  b.on_receive = [&](ss::PeerId, su::Bytes) { ++received; };
  f.sched.run_all();
  ASSERT_TRUE(a.is_connected(1));
  a.send(1, su::to_bytes("again"));
  f.sched.run_all();
  EXPECT_EQ(received, 1);
}

TEST(Mpc, ThreeWayIndependentSessions) {
  MpcFixture f;
  auto& a = f.net.endpoint(0);
  auto& b = f.net.endpoint(1);
  auto& c = f.net.endpoint(2);
  b.start_advertising({});
  c.start_advertising({});
  f.net.set_in_range(0, 1, true);
  f.net.set_in_range(0, 2, true);
  a.invite(1);
  a.invite(2);
  f.sched.run_all();
  EXPECT_TRUE(a.is_connected(1));
  EXPECT_TRUE(a.is_connected(2));
  EXPECT_FALSE(b.is_connected(2));
  // Dropping one session leaves the other alive.
  f.net.set_in_range(0, 1, false);
  f.sched.run_all();
  EXPECT_FALSE(a.is_connected(1));
  EXPECT_TRUE(a.is_connected(2));
  EXPECT_EQ(a.connected_peers(), (std::vector<ss::PeerId>{2}));
}
