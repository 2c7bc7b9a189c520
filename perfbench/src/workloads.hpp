// The benchmark workloads (hotspot-100n, soak-48n-4c, encounter-16n). One
// process runs one world of a workload closed-loop, checks its own outputs,
// and fills a RunOutput with the world's raw figures (untraced runs; run.py
// combines worlds into the end-to-end metrics) or its per-layer figures
// (traced runs).
#pragma once

#include <cstdint>
#include <string>

#include "report.hpp"
#include "spans.hpp"

namespace perfbench {

struct RunSpec {
  std::string workload;
  std::uint64_t seed = 42;
  /// Which of the workload's independent worlds this process runs; each
  /// world runs in its own process so its peak RSS is its own.
  std::size_t world = 0;
  bool trace = false;
  /// Smoke mode: tiny horizons and op counts, so every workload finishes in
  /// about a second while still exercising every measured call.
  bool tiny = false;
  /// Replay-engine worker threads: the CPUs the process may run on.
  std::size_t workers = 1;
};

struct RunOutput {
  explicit RunOutput(const RunSpec& spec) : tracer(spec.trace, spec.seed) {}

  Metrics metrics;
  Outcome outcome;
  std::size_t worlds = 1;   // independent worlds the workload has per run
  /// The single world is run again, each time in a fresh process, for as
  /// long as the time budget lasts (rather than once per run).
  bool repeat_for_budget = false;
  std::string inputs;       // digest of the generated inputs
  std::string fingerprint;  // of this world's outputs
  Tracer tracer;
};

/// Run `spec.workload`; throws std::invalid_argument for an unknown name.
void run_workload(const RunSpec& spec, RunOutput& out);

}  // namespace perfbench
