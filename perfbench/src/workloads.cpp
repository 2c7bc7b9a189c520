#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>

#include "alleyoop/app.hpp"
#include "crypto/drbg.hpp"
#include "crypto/verify_memo.hpp"
#include "deploy/replay.hpp"
#include "deploy/scenario.hpp"
#include "deploy/sweep.hpp"
#include "mw/sos_node.hpp"
#include "pki/bootstrap.hpp"
#include "sim/multipeer.hpp"
#include "sim/scheduler.hpp"
#include "sim/subepisode.hpp"
#include "soak/checkpoint.hpp"
#include "util/codec.hpp"

namespace perfbench {

namespace sd = sos::deploy;

namespace {

constexpr double kDay = 86400.0;

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

/// Benchmark-owned input generator, so the generated inputs never depend on
/// the program's own RNG.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }

 private:
  std::uint64_t s_;
};

// --- per-layer counters --------------------------------------------------

void emit_node_counters(Metrics& m, const sos::mw::NodeStats& t) {
  auto count = [&m](const char* name, std::uint64_t v) {
    m.set(name, static_cast<double>(v), "count");
  };
  count("crypto.sig_verifies", t.bundle_sig_cache_misses);
  count("crypto.sig_cache_hits", t.bundle_sig_cache_hits);
  m.set("crypto.verify_hit_ratio",
        ratio(t.bundle_sig_cache_hits, t.bundle_sig_cache_hits + t.bundle_sig_cache_misses),
        "ratio");
  count("crypto.ecdh_ops", t.ecdh_ops);
  count("pki.handshake_cert_rejected", t.handshake_cert_rejected);
  count("mw.sessions", t.sessions_established);
  count("mw.full_handshakes", t.full_handshakes);
  count("mw.sessions_resumed", t.sessions_resumed);
  m.set("mw.resume_ratio", ratio(t.sessions_resumed, t.sessions_established), "ratio");
  count("mw.bundles_sent", t.bundles_sent);
  count("mw.bundles_received", t.bundles_received);
  count("mw.duplicates_ignored", t.duplicates_ignored);
  m.set("mw.dup_ratio", ratio(t.duplicates_ignored, t.bundles_received), "ratio");
  count("mw.bundle_sig_rejected", t.bundle_sig_rejected);
  count("mw.deliveries", t.deliveries);
  count("mw.transfers_interrupted", t.transfers_interrupted);
  count("mw.decrypt_failures", t.decrypt_failures);
  count("mw.malformed_frames", t.malformed_frames);
  count("bundle.carried", t.bundles_carried);
}

void emit_wire_counters(Metrics& m, const sd::ScenarioResult& r) {
  auto count = [&m](const char* name, std::uint64_t v) {
    m.set(name, static_cast<double>(v), "count");
  };
  count("sim.contacts", r.contacts);
  count("sim.wire_frames", r.wire_frames);
  m.set("sim.wire_bytes", static_cast<double>(r.wire_bytes), "B");
  count("sim.frames_dropped_fault", r.frames_dropped_fault);
  count("sim.frames_lost", r.frames_lost);
  count("sim.connections_failed", r.connections_failed);
}

/// Timed ContactDag::partition over the recorded trace: the strand
/// engine's analysis pass and the parallelism ceiling of this world.
void emit_dag(Metrics& m, Tracer& tracer, const sd::ScenarioConfig& config,
              const sd::ScenarioWorld& world) {
  const auto t0 = Clock::now();
  std::optional<sos::sim::ContactDag> dag;
  {
    auto s = tracer.span(Layer::Sim, "sim.contact_dag_partition");
    dag.emplace(sos::sim::ContactDag::partition(world.trace, config.nodes,
                                                sos::util::days(config.days)));
  }
  m.set("sim.dag_partition_ms", seconds_since(t0) * 1e3, "ms");
  m.set("sim.dag_tasks", static_cast<double>(dag->tasks().size()), "count");
  m.set("sim.dag_width", static_cast<double>(dag->width()), "count");
  m.set("sim.dag_parallelism", dag->parallelism(), "ratio");
}

/// Self time of every layer the run recorded spans in, and the span count.
void emit_self_times(Metrics& m, const Tracer& tracer) {
  const auto self = tracer.self_time_by_layer();
  std::array<bool, kLayerNames.size()> seen{};
  for (const Span& s : tracer.spans()) seen[static_cast<std::size_t>(s.layer)] = true;
  for (std::size_t i = 0; i < kLayerNames.size(); ++i) {
    if (seen[i]) m.set(std::string(kLayerNames[i]) + ".self_s", self[i], "s");
  }
  m.set("trace.spans", static_cast<double>(tracer.spans().size()), "count");
}

/// Digest of a recorded world's contact trace: the generated inputs of a
/// trace-replay workload.
std::string trace_digest(const sos::sim::ContactTrace& trace) {
  Fingerprint fp;
  for (const sos::sim::ContactInterval& c : trace.contacts()) {
    fp.add(c.a);
    fp.add(c.b);
    fp.add(fnv1a(&c.start, sizeof(c.start)));
    fp.add(fnv1a(&c.end, sizeof(c.end)));
  }
  return fp.hex();
}

/// The untraced figures of one world; run.py combines them over a run's
/// worlds into the end-to-end metrics (frames_per_s, rss_kb_per_bundle, ...).
void emit_world_figures(Metrics& m, const std::vector<double>& setup_s, double replay_s,
                        std::size_t replay_samples, std::uint64_t contacts,
                        std::uint64_t wire_frames, std::uint64_t bundles_carried) {
  m.set("setup_s", median(setup_s), "s", setup_s.size());
  m.set("replay_s", replay_s, "s", replay_samples);
  m.set("contacts", static_cast<double>(contacts), "count");
  m.set("wire_frames", static_cast<double>(wire_frames), "count");
  m.set("bundles_carried", static_cast<double>(bundles_carried), "count");
  m.set("peak_rss_mb", peak_rss_mb(), "MB");
}

/// Tracing overhead: how much slower the traced run of some inputs was than
/// untraced runs of the same inputs in the same process, one before and one
/// after it so that drift within the process cancels, as a share of the
/// untraced time.
void emit_overhead(Metrics& m, double before_s, double traced_s, double after_s) {
  const double untraced_s = 0.5 * (before_s + after_s);
  m.set("trace.overhead_pct", 100.0 * (traced_s - untraced_s) / untraced_s, "%");
}

void check_honest_counters(Outcome& o, const sos::mw::NodeStats& t) {
  o.check(t.deliveries > 0, "no deliveries");
  o.check(t.decrypt_failures == 0, "decrypt failures");
  o.check(t.malformed_frames == 0, "malformed frames");
  o.check(t.handshake_cert_rejected == 0, "certificate rejected in a handshake");
}

/// The seed of world `k` of a run: the run's seed is split into one seed
/// per world, so a run's worlds are independent draws of the same cell.
std::uint64_t world_seed(std::uint64_t seed, std::size_t k) {
  SplitMix64 rng(seed);
  std::uint64_t s = rng.next();
  for (std::size_t i = 0; i < k; ++i) s = rng.next();
  return s;
}

// --- hotspot-100n: record_world -> run_scenario, one world per process ----

// Sim time 0 is midnight. Nodes head out between 7.5 h and 9 h, head home
// between 18 h and 20.5 h, and post from 18.5 h to 23.5 h. So a 1.5 d
// horizon holds the first day's gathering (no posts yet), one evening of
// posts (about 17 per node, two thirds of the full cell's 26, since the post
// rate scales with the horizon) and the second day's gathering until noon,
// when those posts spread.
constexpr double kHotspotDays = 1.5;
constexpr std::size_t kHotspotWorlds = 4;
constexpr std::size_t kHotspotSetups = 3;  // set-ups per world, the last one replayed

/// The density grid's 100n cell, configured exactly as SweepRunner runs it
/// for base seed `seed`.
sd::ScenarioConfig hotspot_config(std::uint64_t seed, double days) {
  const std::vector<sd::SweepCell> grid = sd::density_ablation_grid(days);
  sd::SweepOptions opts;
  opts.base_seed = seed;
  const sd::SweepRunner runner(opts);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (grid[i].label == "100n") return runner.cell_config(grid[i], i, 0);
  }
  throw std::logic_error("density_ablation_grid has no 100n cell");
}

struct CellRun {
  std::string inputs;  // digest of the recorded world
  std::vector<double> setup_s;
  double replay_s = 0, cpu_s = 0;
  std::size_t memo_entries = 0;
  sd::ScenarioResult result;
};

/// Record the world (kHotspotSetups times), then replay the last recording
/// on run_scenario's default path with a fresh benchmark-owned verify memo.
CellRun run_cell(const sd::ScenarioConfig& config, Tracer& tracer, Metrics* dag_metrics) {
  CellRun r;
  std::shared_ptr<const sd::ScenarioWorld> world;
  for (std::size_t k = 0; k < kHotspotSetups; ++k) {
    world.reset();
    const auto t0 = Clock::now();
    auto s = tracer.span(Layer::Sim, "sim.record_world");
    world = sd::record_world(config);
    r.setup_s.push_back(seconds_since(t0));
  }
  r.inputs = trace_digest(world->trace);
  if (dag_metrics != nullptr) emit_dag(*dag_metrics, tracer, config, *world);

  sos::crypto::VerifyMemo memo;
  sd::ReplayOptions replay;
  replay.memo = &memo;
  const double cpu0 = process_cpu_s();
  const auto t1 = Clock::now();
  {
    auto s = tracer.span(Layer::Deploy, "deploy.run_scenario");
    r.result = sd::run_scenario(config, world.get(), replay);
  }
  r.replay_s = seconds_since(t1);
  r.cpu_s = process_cpu_s() - cpu0;
  r.memo_entries = memo.size();
  return r;
}

void run_hotspot(const RunSpec& spec, RunOutput& out) {
  Tracer off(false, 0);
  out.worlds = spec.tiny ? 1 : kHotspotWorlds;
  const sd::ScenarioConfig config =
      hotspot_config(world_seed(spec.seed, spec.world), spec.tiny ? 1.0 : kHotspotDays);

  // A traced run replays the world untraced, traced, then untraced again;
  // the difference is the tracing overhead.
  std::optional<CellRun> before;
  if (spec.trace) before = run_cell(config, off, nullptr);
  Tracer& tracer = spec.trace ? out.tracer : off;
  CellRun r;
  {
    auto s = tracer.span(Layer::Bench, "bench.world");
    r = run_cell(config, tracer, spec.trace ? &out.metrics : nullptr);
  }
  out.inputs = r.inputs;
  out.fingerprint = fingerprint(r.result);
  out.outcome.check(r.result.contacts > 0, "no contacts replayed");
  check_honest_counters(out.outcome, r.result.totals);
  out.outcome.check(r.result.totals.bundle_sig_rejected == 0,
                    "honest workload rejected a bundle signature");

  Metrics& m = out.metrics;
  if (!spec.trace) {
    emit_world_figures(m, r.setup_s, r.replay_s, 1, r.result.contacts, r.result.wire_frames,
                       r.result.totals.bundles_carried);
    return;
  }
  const CellRun after = run_cell(config, off, nullptr);
  for (const CellRun* u : {static_cast<const CellRun*>(&*before), &after}) {
    out.outcome.check(fingerprint(u->result) == out.fingerprint,
                      "untraced and traced replays differ");
  }
  m.set("sim.record_world_s", median(r.setup_s), "s", r.setup_s.size());
  emit_wire_counters(m, r.result);
  emit_node_counters(m, r.result.totals);
  m.set("crypto.memo_entries", static_cast<double>(r.memo_entries), "count");
  m.set("deploy.cpu_per_wall", r.cpu_s / r.replay_s, "ratio");
  emit_self_times(m, out.tracer);
  emit_overhead(m, before->replay_s, r.replay_s, after.replay_s);
}

// --- soak-48n-4c: stepped strand-engine replay with daily checkpoints ----

constexpr double kSoakDays = 14.0;
constexpr std::size_t kSoakWorlds = 3;
constexpr std::size_t kSoakSetups = 2;        // set-ups per world, the last one replayed
constexpr double kSoakSegmentS = 6 * 3600.0;  // soak::Runner's snapshot cadence
constexpr double kSoakMinGapS = 60.0;         // soak::Runner's minimum quiescent gap

/// sos_soak's default cell (48 nodes, 4 communities, 10% bridges, posting
/// volume scaled with the horizon).
sd::ScenarioConfig soak_config(std::uint64_t seed, double days) {
  sd::ScenarioConfig c = sd::gainesville_config("interest", seed);
  c.nodes = 48;
  c.area_w_m = 6000.0;
  c.area_h_m = 6000.0;
  c.days = days;
  c.communities = 4;
  c.bridge_node_frac = 0.10;
  c.mobility.home_min_separation_m = 150.0;
  c.total_posts_target = 26.0 * static_cast<double>(c.nodes) * (days / 3.0);
  return c;
}

/// A ReplaySession on the strand engine with a benchmark-owned verify memo.
struct SoakSession {
  std::unique_ptr<sos::crypto::VerifyMemo> memo = std::make_unique<sos::crypto::VerifyMemo>();
  std::unique_ptr<sd::ReplaySession> session;

  SoakSession(const sd::ScenarioConfig& config, const sd::ScenarioWorld& world,
              std::size_t workers, Tracer& tracer) {
    sd::ReplayOptions opts;
    opts.subepisode_jobs = workers;
    opts.memo = memo.get();
    auto s = tracer.span(Layer::Deploy, "deploy.session_ctor");
    session = std::make_unique<sd::ReplaySession>(config, world, opts);
  }
};

struct SteppedReplay {
  sd::ScenarioResult result;
  sos::util::Bytes last_checkpoint;
  std::vector<double> segment_ms;
  double replay_s = 0, checkpoint_s = 0, cpu_s = 0;
  std::size_t checkpoints = 0;
  double checkpoint_bytes = 0;
  std::size_t memo_entries = 0;
};

/// Advance one quiescent cut at a time (the first cut past each 6 h cadence
/// mark, like soak::Runner) and checkpoint in memory at the first cut after
/// each simulated day.
SteppedReplay stepped_replay(SoakSession& soak, const std::array<std::uint8_t, 32>& digest,
                             Tracer& tracer) {
  sd::ReplaySession& session = *soak.session;
  SteppedReplay r;
  std::vector<sos::util::SimTime> cuts = session.quiescent_cuts(kSoakMinGapS);
  cuts.push_back(session.horizon());
  double next_segment = kSoakSegmentS;
  double next_checkpoint = kDay;
  std::uint64_t segments = 0;

  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  std::size_t ci = 0;
  while (session.sim_time() < session.horizon()) {
    std::size_t target = ci;
    while (target + 1 < cuts.size() && cuts[target] < next_segment) ++target;
    const auto t_seg = Clock::now();
    {
      auto s = tracer.span(Layer::Deploy, "deploy.advance_to");
      session.advance_to(cuts[target]);
    }
    r.segment_ms.push_back(seconds_since(t_seg) * 1e3);
    ci = target + 1;
    ++segments;
    next_segment = session.sim_time() + kSoakSegmentS;

    if (session.sim_time() >= next_checkpoint && session.sim_time() < session.horizon()) {
      const auto t_ck = Clock::now();
      sos::soak::Checkpoint ckpt;
      ckpt.segment = segments;
      ckpt.sim_time = session.sim_time();
      ckpt.world_digest = digest;
      {
        auto s = tracer.span(Layer::Deploy, "deploy.save_state");
        sos::util::Writer w;
        session.save_state(w);
        ckpt.payload = w.take();
      }
      {
        auto s = tracer.span(Layer::Soak, "soak.encode_checkpoint");
        r.last_checkpoint = sos::soak::encode_checkpoint(ckpt);
      }
      r.checkpoint_s += seconds_since(t_ck);
      r.checkpoint_bytes += static_cast<double>(r.last_checkpoint.size());
      ++r.checkpoints;
      next_checkpoint = (std::floor(session.sim_time() / kDay) + 1.0) * kDay;
    }
  }
  {
    auto s = tracer.span(Layer::Deploy, "deploy.finish");
    r.result = session.finish();
  }
  r.replay_s = seconds_since(t0);
  r.cpu_s = process_cpu_s() - cpu0;
  r.memo_entries = soak.memo->size();
  return r;
}

struct SoakWorldRun {
  std::vector<double> setup_s, ctor_s;
  SteppedReplay replay;
  double resume_s = 0;
  std::string fingerprint;
  std::shared_ptr<const sd::ScenarioWorld> world;
  std::array<std::uint8_t, 32> digest{};
};

/// Set up one world (kSoakSetups times), replay it stepped with daily
/// checkpoints, then resume from the last checkpoint in a fresh session and
/// replay to the horizon: the resumed result must equal the uninterrupted
/// one bitwise.
SoakWorldRun soak_world(const sd::ScenarioConfig& config, std::size_t workers, Tracer& tracer,
                        Outcome& outcome) {
  SoakWorldRun w;
  std::optional<SoakSession> soak;
  for (std::size_t k = 0; k < kSoakSetups; ++k) {
    soak.reset();
    w.world.reset();
    const auto t0 = Clock::now();
    {
      auto s = tracer.span(Layer::Sim, "sim.record_world");
      w.world = sd::record_world(config);
    }
    const auto t1 = Clock::now();
    soak.emplace(config, *w.world, workers, tracer);
    w.ctor_s.push_back(seconds_since(t1));
    w.setup_s.push_back(seconds_since(t0));
  }
  {
    auto s = tracer.span(Layer::Soak, "soak.world_digest");
    w.digest = sos::soak::world_digest(config, *w.world);
  }
  w.replay = stepped_replay(*soak, w.digest, tracer);
  soak.reset();
  w.fingerprint = fingerprint(w.replay.result);
  check_honest_counters(outcome, w.replay.result.totals);
  outcome.check(w.replay.checkpoints > 0, "no checkpoint was taken");

  const auto t_resume = Clock::now();
  std::string error;
  std::optional<sos::soak::Checkpoint> ckpt;
  {
    auto s = tracer.span(Layer::Soak, "soak.decode_checkpoint");
    ckpt = sos::soak::decode_checkpoint(sos::util::ByteView(w.replay.last_checkpoint), &error);
  }
  outcome.check(ckpt.has_value(), "checkpoint rejected: " + error);
  if (!ckpt.has_value()) return w;
  outcome.check(ckpt->world_digest == w.digest, "checkpoint world digest mismatch");
  SoakSession resumed(config, *w.world, workers, tracer);
  sos::util::Reader reader{sos::util::ByteView(ckpt->payload)};
  bool loaded = false;
  {
    auto s = tracer.span(Layer::Deploy, "deploy.load_state");
    loaded = resumed.session->load_state(reader);
  }
  w.resume_s = seconds_since(t_resume);
  outcome.check(loaded, "checkpoint payload rejected by load_state");
  if (!loaded) return w;
  {
    auto s = tracer.span(Layer::Deploy, "deploy.advance_to");
    resumed.session->advance_to(resumed.session->horizon());
  }
  sd::ScenarioResult tail;
  {
    auto s = tracer.span(Layer::Deploy, "deploy.finish");
    tail = resumed.session->finish();
  }
  outcome.check(fingerprint(tail) == w.fingerprint,
                "resumed result differs from the uninterrupted replay");
  return w;
}

void run_soak(const RunSpec& spec, RunOutput& out) {
  Tracer off(false, 0);
  Tracer& tracer = spec.trace ? out.tracer : off;
  out.worlds = spec.tiny ? 1 : kSoakWorlds;
  const sd::ScenarioConfig config =
      soak_config(world_seed(spec.seed, spec.world), spec.tiny ? 1.5 : kSoakDays);

  // The stepped replay of `world`, untraced, at `workers` workers; its
  // result must not depend on the worker count or on tracing.
  auto untraced = [&](const SoakWorldRun& w, std::size_t workers) {
    SoakSession one(config, *w.world, workers, off);
    SteppedReplay r = stepped_replay(one, w.digest, off);
    out.outcome.check(fingerprint(r.result) == w.fingerprint,
                      std::to_string(workers) + "-worker untraced replay differs");
    return r.replay_s;
  };
  // A traced run replays the world untraced before and after the traced
  // world run (tracing overhead), then at one worker (engine speedup).
  double before_s = 0;
  if (spec.trace) {
    const std::shared_ptr<const sd::ScenarioWorld> world = sd::record_world(config);
    SoakSession first(config, *world, spec.workers, off);
    before_s = stepped_replay(first, sos::soak::world_digest(config, *world), off).replay_s;
  }

  SoakWorldRun w;
  {
    auto s = tracer.span(Layer::Bench, "bench.world");
    w = soak_world(config, spec.workers, tracer, out.outcome);
  }
  out.inputs = trace_digest(w.world->trace);
  out.fingerprint = w.fingerprint;
  const SteppedReplay& run = w.replay;

  Metrics& m = out.metrics;
  if (!spec.trace) {
    emit_world_figures(m, w.setup_s, run.replay_s, 1, run.result.contacts,
                       run.result.wire_frames, run.result.totals.bundles_carried);
    m.set("checkpoint_s", run.checkpoint_s, "s", run.checkpoints);
    m.set("resume_s", w.resume_s, "s");
    return;
  }
  const double after_s = untraced(w, spec.workers);
  const double serial_s = untraced(w, 1);

  m.set("sim.record_world_s", median(tracer.durations("sim.record_world")), "s",
        w.setup_s.size());
  emit_wire_counters(m, run.result);
  emit_node_counters(m, run.result.totals);
  m.set("crypto.memo_entries", static_cast<double>(run.memo_entries), "count");
  emit_dag(m, tracer, config, *w.world);
  m.set("deploy.session_ctor_s", median(w.ctor_s), "s", w.ctor_s.size());
  m.set("deploy.segments", static_cast<double>(run.segment_ms.size()), "count");
  m.set("deploy.segment_ms_p50", median(run.segment_ms), "ms", run.segment_ms.size());
  m.set("deploy.finish_ms", tracer.durations("deploy.finish").front() * 1e3, "ms");
  m.set("deploy.cpu_per_wall", run.cpu_s / run.replay_s, "ratio");
  m.set("deploy.serial_replay_s", serial_s, "s");
  m.set("deploy.speedup", serial_s / after_s, "ratio");
  m.set("soak.checkpoints", static_cast<double>(run.checkpoints), "count");
  m.set("soak.checkpoint_mb", run.checkpoint_bytes / static_cast<double>(run.checkpoints) / 1e6,
        "MB", run.checkpoints);
  m.set("soak.checkpoint_s", run.checkpoint_s, "s", run.checkpoints);
  m.set("soak.resume_s", w.resume_s, "s");
  auto ms_median = [&](const char* span, const char* name) {
    const std::vector<double> d = tracer.durations(span);
    m.set(name, median(d) * 1e3, "ms", d.size());
  };
  ms_median("deploy.save_state", "soak.save_state_ms");
  ms_median("soak.encode_checkpoint", "soak.encode_ms");
  ms_median("soak.world_digest", "soak.world_digest_ms");
  ms_median("soak.decode_checkpoint", "soak.decode_ms");
  ms_median("deploy.load_state", "soak.load_state_ms");
  emit_self_times(m, tracer);
  emit_overhead(m, before_s, run.replay_s, after_s);
}

// --- encounter-16n: the device path, one encounter at a time ---------------

constexpr std::size_t kFleet = 16;
constexpr double kWindowS = 60.0;  // contact window
constexpr double kGapS = 240.0;    // out-of-range gap after each contact
constexpr std::size_t kPostEvery = 4;
constexpr std::size_t kFollowers = 8;  // of the 15 other users; >= kPostEvery

/// Ops come in rounds of kPostEvery: the round's author posts, then meets
/// kPostEvery distinct followers one after another. Each follower lacks the
/// fresh post, so interest-based routing must open a session every time.
struct EncounterInputs {
  std::vector<std::vector<std::size_t>> followers;  // followers[j]: who follows j
  struct Op {
    std::size_t a = 0, b = 0;  // the encountering pair; b follows a
    bool post = false;         // a posts before the encounter
  };
  std::vector<Op> ops;
};

EncounterInputs make_encounter_inputs(std::uint64_t seed, std::size_t ops) {
  SplitMix64 rng(seed ^ 0x656e636f756e7465ULL);
  EncounterInputs in;
  in.followers.resize(kFleet);
  for (std::size_t j = 0; j < kFleet; ++j) {
    // kFollowers distinct followers per author: the seed picks who, not how
    // many, so every seed stores about the same number of bundles.
    std::vector<std::size_t> others;
    for (std::size_t i = 0; i < kFleet; ++i) {
      if (i != j) others.push_back(i);
    }
    while (in.followers[j].size() < kFollowers) {
      const std::size_t pick = rng.below(others.size());
      in.followers[j].push_back(others[pick]);
      others.erase(others.begin() + static_cast<std::ptrdiff_t>(pick));
    }
  }
  while (in.ops.size() < ops) {
    const std::size_t author = rng.below(kFleet);
    std::vector<std::size_t> pool = in.followers[author];
    for (std::size_t r = 0; r < kPostEvery; ++r) {
      const std::size_t pick = rng.below(pool.size());
      in.ops.push_back({author, pool[pick], r == 0});
      pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(pick));
    }
  }
  in.ops.resize(ops);
  return in;
}

struct Fleet {
  sos::sim::Scheduler sched;
  sos::sim::MpcNetwork net{sched, kFleet};
  std::vector<std::unique_ptr<sos::mw::SosNode>> nodes;
  std::vector<std::unique_ptr<sos::alleyoop::App>> apps;
  std::uint64_t events = 0;  // scheduler events the benchmark stepped

  /// Arm the phase deadline: a sentinel event at sim time `t`.
  void set_deadline(double t) {
    deadline_hit = false;
    sched.schedule_at(t, [this] { deadline_hit = true; });
  }

  /// Step the scheduler until `stop()` holds or the deadline event has run;
  /// true iff `stop()` held first.
  template <typename Stop>
  bool step_until(Stop stop) {
    while (!deadline_hit) {
      if (stop()) return true;
      if (!sched.step()) break;
      ++events;
    }
    return stop();
  }

 private:
  bool deadline_hit = true;
};

std::unique_ptr<Fleet> build_fleet(const EncounterInputs& in, std::uint64_t seed,
                                   Tracer& tracer) {
  auto fleet = std::make_unique<Fleet>();
  const std::string tag = std::to_string(seed);
  sos::pki::BootstrapService infra(sos::util::to_bytes("perfbench-ca-" + tag));
  sos::mw::SosConfig config;
  config.scheme = "interest";
  for (std::size_t i = 0; i < kFleet; ++i) {
    sos::crypto::Drbg device(sos::util::to_bytes("perfbench-device-" + std::to_string(i) + "-" + tag));
    std::optional<sos::pki::DeviceCredentials> creds;
    {
      auto s = tracer.span(Layer::Pki, "pki.signup");
      creds = infra.signup("user" + std::to_string(i), device, fleet->sched.now());
    }
    if (!creds) throw std::runtime_error("signup failed for user" + std::to_string(i));
    auto s = tracer.span(Layer::Mw, "mw.node_ctor");
    fleet->nodes.push_back(std::make_unique<sos::mw::SosNode>(
        fleet->sched, fleet->net.endpoint(static_cast<sos::sim::PeerId>(i)), std::move(*creds),
        config));
    fleet->apps.push_back(std::make_unique<sos::alleyoop::App>(*fleet->nodes.back()));
  }
  {
    auto s = tracer.span(Layer::Alleyoop, "alleyoop.follow");
    for (std::size_t j = 0; j < kFleet; ++j) {
      for (std::size_t i : in.followers[j]) fleet->apps[i]->follow(fleet->nodes[j]->user_id());
    }
  }
  auto s = tracer.span(Layer::Mw, "mw.node_start");
  for (auto& node : fleet->nodes) node->start();
  return fleet;
}

struct EncounterPass {
  double setup_s = 0, ops_s = 0;
  std::vector<double> encounter_ms;
  sos::mw::NodeStats totals;
  std::uint64_t events = 0, wire_frames = 0, wire_bytes = 0, frames_lost = 0;
  std::uint64_t connections_failed = 0;
  std::string fingerprint;
};

/// One pass: a fresh fleet, then every op of `in`, one encounter at a time.
EncounterPass encounter_pass(const EncounterInputs& in, std::uint64_t seed, Tracer& tracer,
                             Outcome& outcome) {
  EncounterPass p;
  auto s_pass = tracer.span(Layer::Bench, "bench.pass");
  const auto t_setup = Clock::now();
  std::unique_ptr<Fleet> fleet = build_fleet(in, seed, tracer);
  p.setup_s = seconds_since(t_setup);

  const auto t_ops = Clock::now();
  for (std::size_t k = 0; k < in.ops.size(); ++k) {
    const EncounterInputs::Op& op = in.ops[k];
    if (op.post) {
      auto s = tracer.span(Layer::Alleyoop, "alleyoop.post");
      fleet->apps[op.a]->post("post #" + std::to_string(k) + " by user" + std::to_string(op.a));
    }
    sos::mw::SosNode& na = *fleet->nodes[op.a];
    sos::mw::SosNode& nb = *fleet->nodes[op.b];
    const std::uint64_t sa = na.stats().sessions_established;
    const std::uint64_t sb = nb.stats().sessions_established;
    auto both_connected = [&] {
      return na.stats().sessions_established > sa && nb.stats().sessions_established > sb;
    };
    auto never = [] { return false; };
    const auto a = static_cast<sos::sim::PeerId>(op.a);
    const auto b = static_cast<sos::sim::PeerId>(op.b);

    const auto t_enc = Clock::now();
    auto s_enc = tracer.span(Layer::Bench, "bench.encounter");
    bool connected = false;
    fleet->set_deadline(fleet->sched.now() + kWindowS);
    {
      auto s = tracer.span(Layer::Mw, "mw.handshake");
      fleet->net.set_in_range(a, b, true);
      connected = fleet->step_until(both_connected);
    }
    {
      auto s = tracer.span(Layer::Mw, "mw.sync");
      fleet->step_until(never);
    }
    {
      auto s = tracer.span(Layer::Sim, "sim.gap");
      fleet->net.set_in_range(a, b, false);
      fleet->set_deadline(fleet->sched.now() + kGapS);
      fleet->step_until(never);
    }
    p.encounter_ms.push_back(seconds_since(t_enc) * 1e3);
    outcome.check(connected,
                  "op " + std::to_string(k) + ": no session on both sides of the encounter");
  }
  p.ops_s = seconds_since(t_ops);

  Fingerprint fp;
  for (const auto& node : fleet->nodes) {
    add_stats(p.totals, node->stats());
    fp.add_stats(node->stats());
  }
  p.events = fleet->events;
  p.wire_frames = fleet->net.frames_sent();
  p.wire_bytes = fleet->net.bytes_sent();
  p.frames_lost = fleet->net.frames_lost();
  p.connections_failed = fleet->net.connections_failed();
  for (std::uint64_t v : {p.wire_frames, p.wire_bytes, fleet->net.connections_established(),
                          p.connections_failed, p.frames_lost}) {
    fp.add(v);
  }
  p.fingerprint = fp.hex();
  check_honest_counters(outcome, p.totals);
  return p;
}

void run_encounter(const RunSpec& spec, RunOutput& out) {
  Tracer off(false, 0);
  out.worlds = 1;
  out.repeat_for_budget = true;
  const EncounterInputs in = make_encounter_inputs(spec.seed, spec.tiny ? 48 : 1000);
  Fingerprint inputs;
  for (const auto& followers : in.followers) {
    inputs.add(followers.size());
    for (std::size_t f : followers) inputs.add(f);
  }
  for (const EncounterInputs::Op& op : in.ops) {
    inputs.add(op.a);
    inputs.add(op.b);
    inputs.add(op.post);
  }
  out.inputs = inputs.hex();

  Metrics& m = out.metrics;
  if (!spec.trace) {
    const EncounterPass p = encounter_pass(in, spec.seed, off, out.outcome);
    out.fingerprint = p.fingerprint;
    emit_world_figures(m, {p.setup_s}, p.ops_s, 1, in.ops.size(), p.wire_frames,
                       p.totals.bundles_carried);
    m.set("encounter_ms_p50", median(p.encounter_ms), "ms", p.encounter_ms.size());
    m.set("encounter_ms_p99", percentile(p.encounter_ms, 99.0), "ms", p.encounter_ms.size());
    return;
  }

  // A traced run makes an untraced pass, a traced one and another untraced
  // one (tracing overhead); all three must agree.
  const EncounterPass before = encounter_pass(in, spec.seed, off, out.outcome);
  const EncounterPass p = encounter_pass(in, spec.seed, out.tracer, out.outcome);
  const EncounterPass after = encounter_pass(in, spec.seed, off, out.outcome);
  out.fingerprint = p.fingerprint;
  for (const EncounterPass* u : {&before, &after}) {
    out.outcome.check(u->fingerprint == p.fingerprint, "untraced and traced passes differ");
  }

  Tracer& tracer = out.tracer;
  auto count = [&m](const char* name, std::uint64_t v) {
    m.set(name, static_cast<double>(v), "count");
  };
  count("sim.events_executed", p.events);
  count("sim.wire_frames", p.wire_frames);
  m.set("sim.wire_bytes", static_cast<double>(p.wire_bytes), "B");
  count("sim.frames_lost", p.frames_lost);
  count("sim.connections_failed", p.connections_failed);
  count("sim.contacts", in.ops.size());
  emit_node_counters(m, p.totals);
  auto traced = [&](const char* span, const char* name, double scale, const char* unit) {
    const std::vector<double> d = tracer.durations(span);
    m.set(name, median(d) * scale, unit, d.size());
  };
  traced("pki.signup", "pki.signup_ms", 1e3, "ms");
  traced("mw.handshake", "mw.handshake_ms_p50", 1e3, "ms");
  traced("mw.sync", "mw.sync_ms_p50", 1e3, "ms");
  traced("bench.encounter", "mw.encounter_ms_p50", 1e3, "ms");
  m.set("mw.encounter_ms_p99", percentile(p.encounter_ms, 99.0), "ms", p.encounter_ms.size());
  traced("alleyoop.post", "alleyoop.post_us", 1e6, "us");
  count("alleyoop.posts", static_cast<std::uint64_t>(std::count_if(
                              in.ops.begin(), in.ops.end(), [](const auto& op) { return op.post; })));
  emit_self_times(m, tracer);
  emit_overhead(m, before.ops_s, p.ops_s, after.ops_s);
}

}  // namespace

void run_workload(const RunSpec& spec, RunOutput& out) {
  if (spec.workload == "hotspot-100n") return run_hotspot(spec, out);
  if (spec.workload == "soak-48n-4c") return run_soak(spec, out);
  if (spec.workload == "encounter-16n") return run_encounter(spec, out);
  throw std::invalid_argument("unknown workload: " + spec.workload);
}

}  // namespace perfbench
