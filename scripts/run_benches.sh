#!/usr/bin/env bash
# Runs the micro benches with JSON output so the perf trajectory is tracked
# across PRs. Invoked by the `bench-json` CMake target:
#   cmake --build build --target bench-json
# Writes BENCH_crypto.json and BENCH_middleware.json at the repo root.
#
# With --jobs N the scenario sweep benches (fig4a-d + ablations) run too,
# fanned out over N worker threads each via deploy::SweepRunner:
#   scripts/run_benches.sh --jobs 4 build
# Sweep metrics are bitwise identical for any N (only wall-clock changes);
# N is also exported as SOS_SWEEP_JOBS so the bench binaries pick it up
# when run directly. SOS_SUBEPISODE_JOBS, set in the environment, reaches
# them too and replays each cell on the contact-strand DAG.
#
# With --check, no benches run: the script is the repo's full correctness
# gate, in three stages.
#   1. sos-lint: the determinism & constant-time static-analysis pass
#      (tools/sos_lint) over src/, plus its rule-fixture selftest.
#   2. ASan+UBSan: a combined -DSOS_SANITIZE=address,undefined build in
#      <build-dir>-asan runs the ENTIRE ctest suite with UB findings fatal
#      (-fno-sanitize-recover=undefined), then the fast `soak`-labelled
#      tier again on its own (checkpoint/resume pins under ASan). This leg
#      builds RelWithDebInfo without -DNDEBUG, so the invariant asserts
#      (verify_bundles' distinct ids, MessageManager::detach, the
#      save_state quiescence checks, the scheduler's id wrap) run too.
#   3. TSan: a -DSOS_SANITIZE=thread build in <build-dir>-tsan runs the
#      `sweep`-, `fault`-, `mw`-, and `soak`-labelled suites, then re-runs the
#      randomized multi-community harness and the strand-replay pins with
#      SOS_SUBEPISODE_JOBS=4, so the contact-strand worker pool is exercised
#      at a fixed width.
# Each sanitizer stage refuses to report "clean" unless the suite binaries
# are actually instrumented (stale cache / toolchain dropping the flag):
#   scripts/run_benches.sh --check build
#
# With --ab <base-ref>, no micro benches run: the script is an interleaved
# A/B of the repository benchmark (perfbench/run.py --trace 0) between the
# working tree and <base-ref>, which is exported with `git archive` into a
# scratch directory under ${TMPDIR:-/tmp}. Every workload of BENCHMARK.json
# runs 10 pairs at seed 42, alternating which side goes first. For each
# end-to-end metric it prints both sides' median and quartiles, the pairs
# the working tree won, and a verdict: "unresolved" when either side's
# interquartile spread exceeds the metric's BENCHMARK.json bound, "REGRESSED"
# when the median is worse than the base by more than the bound, "gain" when
# the working tree won at least 9 pairs in 10 and its median beats the base's
# by more than the base's own interquartile spread. The export leaves the
# repository's git metadata alone (no worktree to prune after an interrupted
# run). Raw results land in .bench_build/ab/. Exit status 1
# on a failed output check or a regression. Takes about 40 minutes:
#   scripts/run_benches.sh --ab HEAD~1
set -euo pipefail

jobs=""
check=0
ab_base=""
args=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --jobs)   jobs="${2:?--jobs needs a value}"; shift 2 ;;
    --jobs=*) jobs="${1#--jobs=}"; shift ;;
    --check)  check=1; shift ;;
    --ab)     ab_base="${2:?--ab needs a base ref}"; shift 2 ;;
    --ab=*)   ab_base="${1#--ab=}"; shift ;;
    *)        args+=("$1"); shift ;;
  esac
done

if [[ -n "$ab_base" ]]; then
  repo_root="$(cd "$(dirname "$0")/.." && pwd)"
  pairs=10
  seed=42
  base_sha="$(git -C "$repo_root" rev-parse --verify "$ab_base^{commit}")"
  if ! git -C "$repo_root" cat-file -e "$base_sha:perfbench/run.py" 2>/dev/null; then
    echo "error: $ab_base has no perfbench/run.py to compare against" >&2
    exit 1
  fi
  base_dir="$(mktemp -d "${TMPDIR:-/tmp}/sos-ab-base.XXXXXX")"
  trap 'rm -rf "$base_dir"' EXIT
  git -C "$repo_root" archive "$base_sha" | tar -x -C "$base_dir"
  out_dir="$repo_root/.bench_build/ab"
  rm -rf "$out_dir"
  mkdir -p "$out_dir"
  echo "== A/B: base $ab_base ($base_sha) vs working tree" \
       "($(git -C "$repo_root" describe --always --dirty)), $pairs pairs, seed $seed =="

  mapfile -t workloads < <(python3 -c '
import json, sys
for w in json.load(open(sys.argv[1]))["workloads"]:
    print(w["name"])' "$repo_root/BENCHMARK.json")
  run_seconds="$(python3 -c '
import json, sys
print(json.load(open(sys.argv[1]))["run_seconds"])' "$repo_root/BENCHMARK.json")"

  # run_side <side> <workload> [run.py args...]: one perfbench run in that
  # side's tree; the result line is appended to <out_dir>/<side>-<workload>.jsonl.
  run_side() {
    local side="$1" workload="$2" dir
    shift 2
    if [[ "$side" == base ]]; then dir="$base_dir"; else dir="$repo_root"; fi
    if ! (cd "$dir" && python3 perfbench/run.py --workload "$workload" --seed "$seed" "$@") \
        2>> "$out_dir/$side-$workload.log" | tail -n 1 >> "$out_dir/$side-$workload.jsonl"; then
      echo "   $side $workload run failed; see $out_dir/$side-$workload.log" >&2
    fi
  }

  # Build both trees and fill their caches before anything is timed.
  for side in base change; do
    run_side "$side" "${workloads[0]}" --seconds 1 --trace 0 --tiny
    rm -f "$out_dir/$side-${workloads[0]}.jsonl"
  done
  for workload in "${workloads[@]}"; do
    for ((i = 0; i < pairs; i++)); do
      echo "   $workload pair $((i + 1))/$pairs"
      if ((i % 2 == 0)); then order=(base change); else order=(change base); fi
      for side in "${order[@]}"; do
        run_side "$side" "$workload" --seconds "$run_seconds" --trace 0
      done
    done
  done

  python3 - "$repo_root/BENCHMARK.json" "$out_dir" "$pairs" "${workloads[@]}" \
      <<'PY' | tee "$out_dir/report.txt"
import json, statistics, sys

bench = json.load(open(sys.argv[1]))
out_dir, pairs, workloads = sys.argv[2], int(sys.argv[3]), sys.argv[4:]
bad = False


def load(side, workload):
    with open(f"{out_dir}/{side}-{workload}.jsonl") as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


for workload in workloads:
    base, change = load("base", workload), load("change", workload)
    print(f"\n{workload}: {len(base)} base runs, {len(change)} working-tree runs")
    for name, runs in (("base", base), ("change", change)):
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        print(f"  {name} output checks failed: {failed}/{attempted}")
        bad |= failed > 0 or len(runs) < pairs
    if len(base) < 2 or len(change) < 2:
        continue
    print(f"  {'metric':18s} {'base median [q1, q3]':>30s} {'change median [q1, q3]':>30s}"
          f" {'delta':>8s} {'won':>6s}  verdict")
    for spec in bench["end_to_end"]:
        name, bound = spec["name"], spec["bound"]
        higher = spec["better"] == "higher"
        b = [r["metrics"][name]["value"] for r in base]
        c = [r["metrics"][name]["value"] for r in change]
        bq, cq = quartiles(b), quartiles(c)
        won = sum((y > x) if higher else (y < x) for x, y in zip(b, c))
        n = min(len(b), len(c))
        delta = (cq[1] - bq[1]) / bq[1] if bq[1] else 0.0
        gain = delta if higher else -delta
        spread = max((q[2] - q[0]) / q[1] if q[1] else 0.0 for q in (bq, cq))
        beats_all = (min(c) > max(b)) if higher else (max(c) < min(b))
        if spread > bound and not beats_all:
            verdict = f"unresolved (spread {spread:.0%} > bound {bound:.0%})"
        elif gain < -bound:
            verdict = "REGRESSED"
            bad = True
        elif won * 10 >= 9 * n and abs(cq[1] - bq[1]) > bq[2] - bq[0] and gain > 0:
            verdict = "gain"
        else:
            verdict = f"within bound ({bound:.0%})"
        fmt = lambda q: f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"
        print(f"  {name:18s} {fmt(bq):>30s} {fmt(cq):>30s} {delta:+8.1%} {won:>3d}/{n:<2d}  "
              f"{verdict}")
sys.exit(1 if bad else 0)
PY
  exit 0
fi

build_dir="${args[0]:?usage: run_benches.sh [--jobs N] [--check] <build-dir> [repo-root] | --ab <base-ref>}"
repo_root="${args[1]:-$(cd "$(dirname "$0")/.." && pwd)}"

# require_instrumented <dir> <symbol-prefix> <bin>...: refuse to bless a
# suite whose binaries silently built without the sanitizer runtime
# (stale cache / toolchain dropping the flag).
require_instrumented() {
  local dir="$1" sym="$2" bin
  shift 2
  for bin in "$@"; do
    # Plain grep (not -q): under pipefail, -q would SIGPIPE nm on the first
    # match and fail the healthy case.
    if ! nm "$dir/$bin" 2>/dev/null | grep "$sym" > /dev/null; then
      echo "error: $dir/$bin is not ${sym}-instrumented; refusing --check" >&2
      exit 1
    fi
  done
}

# require_cache_flag <dir> <value>: the configured cache must carry the
# requested SOS_SANITIZE value or the build is not the one we think it is.
require_cache_flag() {
  if ! grep -q "^SOS_SANITIZE:STRING=$2\$" "$1/CMakeCache.txt"; then
    echo "error: $1 was configured without SOS_SANITIZE=$2; refusing --check" >&2
    exit 1
  fi
}

if [[ $check -eq 1 ]]; then
  # -- stage 1: static analysis ---------------------------------------------
  echo "== lint: sos-lint over src/ + rule fixtures =="
  python3 "$repo_root/tools/sos_lint/sos_lint.py" --root "$repo_root"
  python3 "$repo_root/tools/sos_lint/sos_lint.py" --root "$repo_root" --selftest

  # -- stage 2: ASan+UBSan over the entire suite ----------------------------
  # Separate build trees keep instrumented objects away from the bench build.
  asan_dir="${build_dir%/}-asan"
  echo "== ASan+UBSan check: configuring $asan_dir =="
  cmake -B "$asan_dir" -S "$repo_root" -DSOS_SANITIZE=address,undefined \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo -DCMAKE_CXX_FLAGS_RELWITHDEBINFO="-O2 -g"
  require_cache_flag "$asan_dir" "address,undefined"
  if grep -q "^CMAKE_CXX_FLAGS_RELWITHDEBINFO:.*NDEBUG" "$asan_dir/CMakeCache.txt"; then
    echo "error: $asan_dir defines NDEBUG, so its asserts would not run; refusing --check" >&2
    exit 1
  fi
  cmake --build "$asan_dir" -j "$(nproc)"
  require_instrumented "$asan_dir" __asan mw_test sweep_test episode_test fault_test soak_test
  require_instrumented "$asan_dir" __ubsan mw_test sweep_test episode_test fault_test soak_test
  echo "== ASan+UBSan check: full ctest suite =="
  ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=print_stacktrace=1 \
    ctest --test-dir "$asan_dir" --output-on-failure
  echo "== ASan+UBSan check: fast soak tier (ctest -L soak) =="
  ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=print_stacktrace=1 \
    ctest --test-dir "$asan_dir" -L soak --output-on-failure

  # -- stage 3: TSan over the concurrency-bearing suites --------------------
  tsan_dir="${build_dir%/}-tsan"
  echo "== TSan check: configuring $tsan_dir =="
  cmake -B "$tsan_dir" -S "$repo_root" -DSOS_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo
  require_cache_flag "$tsan_dir" thread
  cmake --build "$tsan_dir" -j "$(nproc)" --target sweep_test episode_test fault_test \
        bundle_test fastpath_test mw_test sim_test soak_test sos_soak
  require_instrumented "$tsan_dir" __tsan sweep_test episode_test fault_test mw_test soak_test
  for label in sweep fault mw soak; do
    echo "== TSan check: ctest -L $label =="
    ctest --test-dir "$tsan_dir" -L "$label" --output-on-failure
  done
  echo "== TSan check: randomized multi-community harness, SOS_SUBEPISODE_JOBS=4 =="
  SOS_SUBEPISODE_JOBS=4 "$tsan_dir/episode_test" \
    --gtest_filter='RandomizedDeterminism.*:SubepisodeReplay.*'
  echo "lint + ASan/UBSan full suite + TSan sweep/fault/mw suites clean"
  exit 0
fi

# Fail before running anything if a bench binary is missing: otherwise the
# script would die mid-way having refreshed only some BENCH_*.json files,
# leaving a silently inconsistent snapshot.
micro_benches=(bench_micro_crypto bench_micro_middleware)
scenario_benches=(bench_fig4a_social_graph bench_fig4b_mobility_map
                  bench_fig4c_delay_cdf bench_fig4d_delivery_cdf
                  bench_ablation_density bench_ablation_schemes)
required=("${micro_benches[@]}")
[[ -n "$jobs" ]] && required+=("${scenario_benches[@]}")
missing=0
for bench in "${required[@]}"; do
  if [[ ! -x "$build_dir/$bench" ]]; then
    echo "error: $build_dir/$bench not found or not executable" >&2
    echo "       (build it first: cmake --build $build_dir --target $bench)" >&2
    missing=1
  fi
done
[[ $missing -eq 0 ]] || exit 1

"$build_dir/bench_micro_crypto" \
  --benchmark_out="$repo_root/BENCH_crypto.json" \
  --benchmark_out_format=json \
  --benchmark_min_time=0.2
"$build_dir/bench_micro_middleware" \
  --benchmark_out="$repo_root/BENCH_middleware.json" \
  --benchmark_out_format=json \
  --benchmark_min_time=0.2

echo "wrote $repo_root/BENCH_crypto.json and $repo_root/BENCH_middleware.json"

if [[ -n "$jobs" ]]; then
  export SOS_SWEEP_JOBS="$jobs"
  for bench in "${scenario_benches[@]}"; do
    echo "== $bench --jobs $jobs =="
    "$build_dir/$bench" --jobs "$jobs"
  done
fi
