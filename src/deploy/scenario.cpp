#include "deploy/scenario.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "alleyoop/app.hpp"
#include "crypto/drbg.hpp"
#include "crypto/verify_memo.hpp"
#include "deploy/replay.hpp"
#include "deploy/scenario_detail.hpp"
#include "graph/generators.hpp"
#include "pki/bootstrap.hpp"
#include "sim/multipeer.hpp"
#include "sim/scheduler.hpp"
#include "util/rng.hpp"

namespace sos::deploy {

ScenarioConfig gainesville_config(const std::string& scheme, std::uint64_t seed) {
  ScenarioConfig config;
  config.scheme = scheme;
  config.seed = seed;
  return config;
}

namespace detail {

std::vector<util::SimTime> posting_times(const ScenarioConfig& config, util::Rng& rng) {
  double horizon = util::days(config.days);
  double window = util::hours(config.post_window_end_h - config.post_window_start_h);
  double active_total = window * config.days;
  double per_node = config.total_posts_target / static_cast<double>(config.nodes);
  double rate = per_node / active_total;  // posts per active second

  std::vector<util::SimTime> times;
  util::SimTime t = util::hours(config.post_window_start_h);
  while (t < horizon) {
    t += rng.exponential(1.0 / rate);
    double tod = util::time_of_day(t);
    if (tod < util::hours(config.post_window_start_h)) {
      t += util::hours(config.post_window_start_h) - tod;
      continue;
    }
    if (tod > util::hours(config.post_window_end_h)) {
      // Jump to the next morning's window.
      t += util::days(1) - tod + util::hours(config.post_window_start_h);
      continue;
    }
    if (t < horizon) times.push_back(t);
  }
  return times;
}

std::unique_ptr<sim::TrajectoryMobility> build_mobility(const ScenarioConfig& config,
                                                        util::Rng& rng) {
  sim::DailyRoutineParams mobility_params = config.mobility;
  mobility_params.area = {config.area_w_m, config.area_h_m};
  mobility_params.community_count = config.communities;
  mobility_params.bridge_node_frac = config.bridge_node_frac;
  util::Rng mobility_rng = rng.fork();
  return sim::daily_routine(config.nodes, util::days(config.days), mobility_params,
                            mobility_rng);
}

graph::Digraph build_social_graph(const ScenarioConfig& config, util::Rng& rng) {
  if (config.social) return *config.social;
  if (config.nodes == 10) return graph::baker2017_social_graph();
  util::Rng graph_rng = rng.fork();
  // Density in the ballpark of the deployment's 0.64 undirected density.
  return graph::social_community(config.nodes, 0.38, 0.35, graph_rng);
}

void build_fleet(Fleet& fleet, const ScenarioConfig& config, sim::Scheduler& sched,
                 sim::MpcNetwork& net, crypto::VerifyMemo* verify_memo,
                 const sim::FaultPlan* plan) {
  pki::BootstrapService infra(
      util::concat(util::to_bytes("scenario-infra-"),
                   util::Bytes{static_cast<std::uint8_t>(config.seed)}));
  for (std::size_t i = 0; i < config.nodes; ++i) {
    crypto::Drbg device(util::concat(util::to_bytes("device-" + std::to_string(i) + "-seed-"),
                                     util::Bytes{static_cast<std::uint8_t>(config.seed)}));
    auto creds = infra.signup("user" + std::to_string(i), device, sched.now());
    mw::SosConfig mw_config;
    mw_config.scheme = config.scheme;
    mw_config.store_capacity = config.store_capacity;
    mw_config.resume_lifetime_s = config.resume_lifetime_s;
    mw_config.verify_batch_window_s = config.verify_batch_window_s;
    mw_config.verify_signatures = config.verify_signatures;
    if (plan != nullptr) {
      // Adversaries keep their PKI identity and workload; only behavior
      // changes. A blackhole swaps its routing scheme for the sink; a
      // forger corrupts every signature it makes.
      sim::AdversaryRole role = plan->role(static_cast<std::uint32_t>(i));
      if (role == sim::AdversaryRole::Blackhole) mw_config.scheme = "blackhole";
      if (role == sim::AdversaryRole::Forger) mw_config.forge_signatures = true;
    }
    fleet.nodes.push_back(std::make_unique<mw::SosNode>(
        sched, net.endpoint(static_cast<sim::PeerId>(i)), std::move(*creds), mw_config));
    if (verify_memo != nullptr) fleet.nodes.back()->set_verify_memo(verify_memo);
    fleet.apps.push_back(std::make_unique<alleyoop::App>(*fleet.nodes.back(), &fleet.cloud));
  }
}

std::map<pki::UserId, std::set<pki::UserId>> wire_follows(Fleet& fleet,
                                                          const graph::Digraph& social) {
  std::map<pki::UserId, std::set<pki::UserId>> follows;
  for (auto [i, j] : social.edges()) {
    fleet.apps[i]->follow(fleet.nodes[j]->user_id());
    follows[fleet.nodes[i]->user_id()].insert(fleet.nodes[j]->user_id());
  }
  return follows;
}

std::vector<std::vector<TimelineEvent>> build_timelines(const ScenarioConfig& config,
                                                        util::Rng& workload_rng,
                                                        const sim::FaultPlan* plan) {
  const double horizon = util::days(config.days);
  std::vector<std::vector<TimelineEvent>> timelines(config.nodes);
  for (std::size_t i = 0; i < config.nodes; ++i) {
    std::vector<TimelineEvent>& tl = timelines[i];
    const std::uint32_t node = static_cast<std::uint32_t>(i);
    std::vector<util::SimTime> posts = posting_times(config, workload_rng);
    for (std::size_t k = 0; k < posts.size(); ++k) {
      if (plan != nullptr && plan->node_down(node, posts[k])) continue;
      tl.push_back({posts[k], TimelineEvent::Kind::Post, static_cast<int>(k) + 1, nullptr});
    }
    if (plan != nullptr) {
      std::vector<util::SimTime> floods = plan->flood_times(node, horizon);
      for (std::size_t k = 0; k < floods.size(); ++k) {
        tl.push_back({floods[k], TimelineEvent::Kind::Flood, static_cast<int>(k) + 1, nullptr});
      }
      for (const sim::NodeChurnEvent& c : plan->churn_for(node)) {
        if (c.up_at < horizon) tl.push_back({c.up_at, TimelineEvent::Kind::Reboot, 0, &c});
      }
      // Stable sort: same-instant ties keep insertion order (Post < Flood <
      // Reboot), the tie-break every replay task relies on.
      std::stable_sort(tl.begin(), tl.end(), [](const TimelineEvent& a, const TimelineEvent& b) {
        return a.t < b.t;
      });
    }
  }
  return timelines;
}

}  // namespace detail

graph::Digraph scenario_social_graph(const ScenarioConfig& config) {
  util::Rng rng(config.seed);
  util::Rng mobility_rng = rng.fork();  // consumed first by record_world
  (void)mobility_rng;
  return detail::build_social_graph(config, rng);
}

std::shared_ptr<const ScenarioWorld> record_world(const ScenarioConfig& config) {
  sim::Scheduler sched;
  util::Rng rng(config.seed);
  double horizon = util::days(config.days);
  auto mobility = detail::build_mobility(config, rng);

  sim::EncounterDetector detector(sched, *mobility, config.radio.range_m,
                                  config.encounter_tick_s);
  sim::TraceRecorder recorder(sched);
  detector.on_contact_start = [&](std::size_t a, std::size_t b) {
    recorder.contact_start(static_cast<std::uint32_t>(a), static_cast<std::uint32_t>(b));
  };
  detector.on_contact_end = [&](std::size_t a, std::size_t b) {
    recorder.contact_end(static_cast<std::uint32_t>(a), static_cast<std::uint32_t>(b));
  };
  detector.start(horizon);
  sched.run_until(horizon);
  return std::make_shared<ScenarioWorld>(
      ScenarioWorld{sim::TrajectoryMobility(std::move(*mobility)), recorder.finish()});
}

ScenarioResult run_scenario(const ScenarioConfig& config, const ScenarioWorld* world,
                            const ReplayOptions& replay) {
  // One path for every run: a caller without a world records one, and
  // every world is replayed by a ReplaySession driven to the horizon.
  std::shared_ptr<const ScenarioWorld> recorded;
  if (world == nullptr) {
    recorded = record_world(config);
    world = recorded.get();
  }
  ReplaySession session(config, *world, replay);
  session.advance_to(session.horizon());
  return session.finish();
}

}  // namespace sos::deploy
