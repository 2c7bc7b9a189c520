// Deployment scenario runner: assembles the whole stack — PKI bootstrap,
// AlleyOop apps over SOS nodes, the MPC-like radio, daily-routine mobility
// over the study area, a Poisson posting workload — and runs it under the
// event scheduler. The default configuration reconstructs the Gainesville
// study of §VI (10 users, ~11 km x 8 km, 7 days, 259 posts, the Fig 4a
// social graph, IB routing); every knob is exposed for the ablations.
#pragma once

#include <cstdint>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "deploy/oracle.hpp"
#include "graph/digraph.hpp"
#include "mw/stats.hpp"
#include "sim/faults.hpp"
#include "sim/multipeer.hpp"
#include "sim/radio.hpp"
#include "sim/trace.hpp"

namespace sos::crypto {
class VerifyMemo;
}

namespace sos::deploy {

struct ScenarioConfig {
  std::size_t nodes = 10;
  double area_w_m = 11000.0;           // ~11 km (paper)
  double area_h_m = 8000.0;            // ~8 km
  double days = 7.0;                   // TestFlight study length
  std::string scheme = "interest";     // routing scheme under test
  double total_posts_target = 259.0;   // paper: 259 unique messages
  std::uint64_t seed = 42;

  sim::RadioParams radio{};            // 50 m range, p2p-WiFi-class link
  sim::DailyRoutineParams mobility{};  // homes + campus hotspots + sleep
  double encounter_tick_s = 30.0;

  /// First-class community sweep dimensions (copied into `mobility` by the
  /// world recorder, like `area_*`): >= 2 tiles the area into that many
  /// disjoint mobility communities — separate hotspot pools and home
  /// clusters — and `bridge_node_frac` of the nodes commute between them
  /// across days. 1 is the classic single-hotspot-pool city. Community
  /// traces decompose into many independent contact-strand tasks
  /// (sim::ContactDag), which is what makes --subepisode-jobs effective on
  /// them.
  std::size_t communities = 1;
  double bridge_node_frac = 0.0;

  /// Session-resumption secret lifetime handed to each node's SosConfig
  /// (0 = every contact pays the full cert-exchange + X25519 handshake).
  double resume_lifetime_s = 86400.0;

  /// Batch-verification window handed to each node's SosConfig: > 0 queues
  /// received bundles and verifies them in one batch signature pass at
  /// most this many sim-seconds later, or earlier when their session drops
  /// (dissemination latency up by up to the window); 0 verifies
  /// synchronously.
  double verify_batch_window_s = 0.0;

  /// Disaster fault-injection plan (sim/faults.hpp): degraded links, node
  /// churn, partition-and-heal timelines, adversarial roles. Default (no
  /// faults) is bit-identical to the pre-fault engine. Trace-reshaping
  /// faults are applied to the recorded world at replay time. Use
  /// FaultPlanConfig::validate before sweeping grids.
  sim::FaultPlanConfig faults;

  /// Content-verification ablation (the "unsigned" baseline of the disaster
  /// benches): nodes accept received bundles without certificate/signature
  /// checks. Transport encryption and handshakes are untouched.
  bool verify_signatures = true;

  /// Per-node bundle-store capacity (flooder cells shrink this to make
  /// store-pressure effects visible).
  std::size_t store_capacity = 10000;

  /// Social graph; node i follows node j iff edge (i, j). Defaults to the
  /// reconstructed Fig 4a graph when nodes == 10, otherwise a sampled
  /// campus community of matching density.
  std::optional<graph::Digraph> social;

  /// Posting concentrates in the late afternoon and evening (the usual
  /// social-app activity peak, after the day's gatherings wind down).
  double post_window_start_h = 18.5;
  double post_window_end_h = 23.5;
};

/// The link counters a replay reads off each shard's network and sums into
/// its result. kNetworkFields is the one list of them: the replay's collect,
/// merge and checkpoint, the soak snapshot and the determinism pins walk it.
struct NetworkCounters {
  std::uint64_t wire_frames = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t connections = 0;
  std::uint64_t connections_failed = 0;    // declined/out-of-range/broken setups
  std::uint64_t frames_lost = 0;           // mid-transfer disconnects
  std::uint64_t frames_dropped_fault = 0;  // injected loss/grayhole drops
};

/// One network counter: its name (the soak JSONL key and `--stop` metric),
/// its member, and the sim::MpcNetwork accessor it is read from.
struct NetworkField {
  std::string_view name;
  std::uint64_t NetworkCounters::*member;
  std::uint64_t (sim::MpcNetwork::*read)() const;
};

/// In declaration order, which is the replay checkpoint layout.
inline constexpr NetworkField kNetworkFields[] = {
    {"wire_frames", &NetworkCounters::wire_frames, &sim::MpcNetwork::frames_sent},
    {"wire_bytes", &NetworkCounters::wire_bytes, &sim::MpcNetwork::bytes_sent},
    {"connections", &NetworkCounters::connections, &sim::MpcNetwork::connections_established},
    {"connections_failed", &NetworkCounters::connections_failed,
     &sim::MpcNetwork::connections_failed},
    {"frames_lost", &NetworkCounters::frames_lost, &sim::MpcNetwork::frames_lost},
    {"frames_dropped_fault", &NetworkCounters::frames_dropped_fault,
     &sim::MpcNetwork::frames_dropped_fault},
};

static_assert(sizeof(NetworkCounters) == std::size(kNetworkFields) * sizeof(std::uint64_t),
              "every NetworkCounters counter must appear in kNetworkFields");

/// A run's outputs; the network counters come from the NetworkCounters base.
struct ScenarioResult : NetworkCounters {
  MetricsOracle oracle;
  mw::NodeStats totals;                 // summed over all nodes
  std::uint64_t contacts = 0;           // radio-range encounters
  graph::Digraph social;                // the graph actually used
  double simulated_days = 0;
};

/// The deterministic "world" of a scenario — the mobility trajectories and
/// the contact trace the encounter detector produces over them. Everything
/// in it depends only on the world-shaping config fields (nodes, area, days,
/// mobility, communities, radio, encounter tick) and the seed, never on the routing
/// scheme or middleware knobs, so scheme variants of one sweep cell can
/// record it once and replay it instead of re-running detection.
struct ScenarioWorld {
  sim::TrajectoryMobility mobility;
  sim::ContactTrace trace;
};

/// Record a config's world: generate mobility and run one detector pass
/// over the full horizon, capturing the contact trace.
std::shared_ptr<const ScenarioWorld> record_world(const ScenarioConfig& config);

/// How a recorded world is replayed (deploy/replay.hpp has the engine).
struct ReplayOptions {
  /// Optional worker pool shared with the cell-level sweep (SweepRunner):
  /// strand workers beyond the first borrow tokens from it, so cell- and
  /// strand-level parallelism never oversubscribe the machine together.
  class WorkerBudget* budget = nullptr;
  /// Every node of a replay shares one signature-verdict memo, so each
  /// distinct signature pays curve math once per run instead of once per
  /// carrying node. The memo is run-local unless this points at a caller's
  /// memo, which the replay then consults and extends: SweepRunner hands
  /// every variant of a cell the same one, since one recorded world yields
  /// the same bundles and certificates per variant. Thread-safe; metrics
  /// are bitwise identical whatever the memo holds.
  crypto::VerifyMemo* memo = nullptr;
  /// 0 (default): the mono task list — one task per segment holding every
  /// node, i.e. one scheduler for the whole run. > 0: the contact-strand
  /// DAG — the trace is cut by sim::ContactDag and each member detaches at
  /// its own last contact in a task, so independent contacts replay as
  /// concurrent tasks on this many workers. Metrics are bitwise identical
  /// to mono at any value.
  std::size_t subepisode_jobs = 0;
};

/// Build and run the scenario to completion: record the world when none is
/// given, then replay it on a ReplaySession to the horizon. A given world
/// must have been recorded from a config with identical world-shaping
/// fields and seed; run_scenario(config) and run_scenario(config,
/// record_world(config).get()) are bitwise identical. `replay` selects the
/// task list and, optionally, a caller-owned verify memo.
ScenarioResult run_scenario(const ScenarioConfig& config,
                            const ScenarioWorld* world = nullptr,
                            const ReplayOptions& replay = {});

/// The §VI configuration (defaults above) with the given scheme and seed.
ScenarioConfig gainesville_config(const std::string& scheme = "interest",
                                  std::uint64_t seed = 42);

/// The social graph run_scenario will use for `config` — the explicit
/// override, the reconstructed Fig 4a graph (10 nodes), or the sampled
/// campus community drawn from the config's own RNG stream. Exposed so
/// graph-characterization benches describe exactly what a sweep simulates.
graph::Digraph scenario_social_graph(const ScenarioConfig& config);

}  // namespace sos::deploy
