// Simulator microbenchmarks: event engine throughput (bare and
// frame-carrying events), mobility position lookups, and grid-accelerated
// encounter scans at simulation-scale node counts (the density ablation's
// inner loop).
#include <benchmark/benchmark.h>

#include "sim/mobility.hpp"
#include "sim/radio.hpp"
#include "sim/scheduler.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

using namespace sos;

static void BM_SchedulerThroughput(benchmark::State& state) {
  // /0: bare events. /512: each event owns a 512-byte frame and reads it
  // when it fires, as a radio delivery does (the receiver decrypts every
  // byte) — what moving (not copying) events on pop is worth.
  const auto frame_bytes = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Scheduler sched;
    std::size_t count = 0;
    for (int i = 0; i < 10000; ++i) {
      if (frame_bytes == 0) {
        sched.schedule_at(static_cast<double>(i % 97), [&count] { ++count; });
      } else {
        util::Bytes frame(frame_bytes, static_cast<std::uint8_t>(i));
        sched.schedule_at(static_cast<double>(i % 97),
                          [&count, frame = std::move(frame)] {
                            for (std::uint8_t byte : frame) count += byte;
                          });
      }
    }
    sched.run_all();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_SchedulerThroughput)->Arg(0)->Arg(512);

static void BM_MobilityPositionLookup(benchmark::State& state) {
  util::Rng rng(1);
  auto m = sim::daily_routine(50, util::days(7), {}, rng);
  double t = 0;
  for (auto _ : state) {
    t += 31.0;
    if (t > util::days(7)) t = 0;
    benchmark::DoNotOptimize(m->position(static_cast<std::size_t>(t) % 50, t));
  }
}
BENCHMARK(BM_MobilityPositionLookup);

static void BM_EncounterScan(benchmark::State& state) {
  util::Rng rng(2);
  auto nodes = static_cast<std::size_t>(state.range(0));
  sim::RandomWaypointParams params;
  params.area = {2000, 2000};
  auto m = sim::random_waypoint(nodes, 4000, params, rng);
  sim::Scheduler sched;
  sim::EncounterDetector det(sched, *m, 50.0, 30.0);
  for (auto _ : state) {
    sched.schedule_in(30.0, [] {});
    sched.step();
    det.scan();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(nodes));
}
BENCHMARK(BM_EncounterScan)->Arg(50)->Arg(200)->Arg(1000);

static void BM_TrajectoryGeneration(benchmark::State& state) {
  for (auto _ : state) {
    util::Rng rng(3);
    benchmark::DoNotOptimize(sim::daily_routine(10, util::days(7), {}, rng));
  }
}
BENCHMARK(BM_TrajectoryGeneration);

BENCHMARK_MAIN();
