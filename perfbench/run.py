#!/usr/bin/env python3
"""Repository benchmark: builds the SOS library and the perfbench binary from
source, runs one workload, checks its outputs, and prints one JSON result.

    python3 perfbench/run.py --workload hotspot-100n --seed 42 --seconds 40 --trace 0

Run it from the repository root. The last line of standard output is
{"correct", "attempted", "failed", "metrics"}: with --trace 0 the metrics are
the end_to_end metrics of BENCHMARK.json, with --trace 1 its per_layer
metrics. A human-readable report (run metadata, every figure with its unit
and sample count, failures) goes to standard error, and the full result set
to .bench_build/results/. --tiny runs the smoke-test horizons instead of the
benchmark ones (see smoke.py).

--seconds is the time budget of encounter-16n, which repeats its pass while
the budget lasts. hotspot-100n and soak-48n-4c replay a fixed number of whole
worlds (4 and 3), which take about 40 s and 25 s on a 4-CPU machine; the
report says when a run went past --seconds.

Exit status: 0 when a result was printed, 2 when nothing could be measured
(sources missing, build failed, the binary crashed or overran).
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "perfbench")
DEADLINE_S = 170  # a run must end within 180 s (a building first run gets longer)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def nproc():
    return len(os.sched_getaffinity(0))


def build():
    """Configure (once) and build the Release binary into .bench_build."""
    if not os.path.isfile(os.path.join(ROOT, "src", "deploy", "scenario.hpp")):
        fail(f"SOS sources not found under {os.path.join(ROOT, 'src')}")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", str(nproc())])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))


def cmake_cache(key):
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def source_digest():
    """SHA-256 over every file the benchmark builds from (src/ and perfbench/)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown (not a git checkout)"


def cpu_times():
    """Aggregate (steal, total) CPU jiffies from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return fields[7] if len(fields) > 7 else 0, sum(fields)


def metadata(load_at_start, cpu_at_start):
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    version = ""
    if compiler:
        try:
            version = subprocess.run([compiler, "--version"], stdout=subprocess.PIPE,
                                     text=True).stdout.splitlines()[0]
        except (OSError, IndexError):
            pass
    build_type = cmake_cache("CMAKE_BUILD_TYPE")
    meta = {
        "nproc": nproc(),
        "compiler": version or compiler or "unknown",
        "build_type": build_type or "unknown",
        "commit": commit(),
        "source_sha256": source_digest(),
        "loadavg_at_start": list(load_at_start),
    }
    steal, total = cpu_times()
    if total > cpu_at_start[1]:
        # Time the hypervisor gave this machine's CPUs to someone else while
        # the run measured: high values mean noisy figures.
        meta["cpu_steal_pct"] = 100.0 * (steal - cpu_at_start[0]) / (total - cpu_at_start[1])
    if build_type != "Release":
        meta["flag"] = "NOT A RELEASE BUILD: figures are not comparable"
    return meta


def unique_object(pairs):
    """json object hook that rejects a key emitted twice."""
    obj = {}
    for k, v in pairs:
        if k in obj:
            raise ValueError(f"key emitted twice: {k}")
        obj[k] = v
    return obj


# Raw per-world figures that add up over a run's worlds, and those whose
# median over the worlds is taken.
SUMMED = ("replay_s", "contacts", "wire_frames", "bundles_carried", "checkpoint_s", "resume_s")
MEDIAN = ("setup_s", "encounter_ms_p50", "encounter_ms_p99")


def combine(per_world):
    """Combine the untraced per-world figures of a run and derive the
    end-to-end metrics. Worlds drawn from different seeds differ up to
    threefold in size, so the end-to-end figures are rates over pinned work
    counts: on any change that keeps the fingerprints, they move exactly
    inversely to replay time and with peak memory."""
    def total(name):
        return sum(w[name]["value"] for w in per_world)

    def samples(name):
        return sum(w[name]["samples"] for w in per_world)

    def figure(value, unit, n):
        return {"value": value, "unit": unit, "samples": n}

    out = {}
    for name, m in per_world[0].items():
        if name in SUMMED:
            out[name] = figure(total(name), m["unit"], samples(name))
        elif name in MEDIAN:
            out[name] = figure(statistics.median(w[name]["value"] for w in per_world), m["unit"],
                               samples(name))
        elif name in ("peak_rss_mb", "base_rss_mb"):
            out[name] = figure(total(name) / len(per_world), "MB", len(per_world))
        else:
            fail(f"no rule to combine {name} over worlds")
    out["frames_per_s"] = figure(total("wire_frames") / total("replay_s"), "1/s",
                                 samples("replay_s"))
    out["encounters_per_s"] = figure(total("contacts") / total("replay_s"), "1/s",
                                     samples("replay_s"))
    out["rss_kb_per_bundle"] = figure(
        (total("peak_rss_mb") - total("base_rss_mb")) * 1000 / total("bundles_carried"), "kB",
        len(per_world))
    return out


def run_world(args, world, tag, started):
    """Run one world of the workload in its own process."""
    spans_path = os.path.join(BUILD_DIR, "traces", f"{tag}-world{world}.json")
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed), "--world", str(world),
           "--trace", str(args.trace), "--spans-out", spans_path]
    if args.tiny:
        cmd.append("--tiny")
    remaining = DEADLINE_S - (time.monotonic() - started)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=max(remaining, 1))
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within the {DEADLINE_S} s deadline")
    if proc.returncode != 0:
        fail(f"perfbench exited with status {proc.returncode}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1], object_pairs_hook=unique_object)
    except (ValueError, IndexError) as e:
        fail(f"unreadable perfbench output: {e}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true", help="smoke-test horizons")
    args = ap.parse_args()

    load_at_start = os.getloadavg()
    cpu_at_start = cpu_times()
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    design = load_json(os.path.join(BENCH_DIR, "design.json"))
    pins = load_json(os.path.join(BENCH_DIR, "pins.json"))
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        fail(f"unknown workload {args.workload}")

    build()
    started = time.monotonic()  # the first run of a checkout may build for longer

    os.makedirs(os.path.join(BUILD_DIR, "results"), exist_ok=True)
    os.makedirs(os.path.join(BUILD_DIR, "traces"), exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"

    # Each world of the workload runs in its own process, so its peak RSS is
    # its own. World 0 reports how many worlds there are, or that it is to be
    # run again, in fresh processes, while the time budget lasts. A traced
    # run traces world 0 only.
    worlds = [run_world(args, 0, tag, started)]
    if args.trace == 0 and worlds[0]["repeat_for_budget"]:
        while True:
            elapsed = time.monotonic() - started
            if elapsed + elapsed / len(worlds) > args.seconds:
                break
            worlds.append(run_world(args, 0, tag, started))
    elif args.trace == 0:
        while len(worlds) < worlds[0]["worlds"]:
            worlds.append(run_world(args, len(worlds), tag, started))
    elapsed = time.monotonic() - started
    meta = metadata(load_at_start, cpu_at_start)
    attempted = sum(w["attempted"] for w in worlds)
    failed = sum(w["failed"] for w in worlds)
    failures = [f"world {w['world']}: {msg}" for w in worlds for msg in w["failures"]]
    # Repeated runs of one world must reproduce its outputs.
    for w in worlds[1:]:
        if w["world"] == 0:
            attempted += 1
            if w["fingerprint"] != worlds[0]["fingerprint"]:
                failed += 1
                failures.append("a repeated run of world 0 produced other outputs")
    per_world = {w["world"]: w["fingerprint"] for w in worlds}
    fingerprint = per_world[0] if len(per_world) == 1 else hashlib.sha256(
        "".join(per_world[k] for k in sorted(per_world)).encode()).hexdigest()[:32]
    emitted = worlds[0]["metrics"] if args.trace else combine([w["metrics"] for w in worlds])

    # Pinned per-world output fingerprints (default and held-out seed).
    pinned = pins["tiny" if args.tiny else "full"].get(args.workload, {}).get(str(args.seed))
    if pinned is not None:
        for w in worlds:
            attempted += 1
            if w["fingerprint"] != pinned[w["world"]]:
                failed += 1
                failures.append(f"world {w['world']}: fingerprint {w['fingerprint']} "
                                f"!= pinned {pinned[w['world']]}")

    # The metric set of this mode, in BENCHMARK.json order. A per-layer metric
    # that design.json does not list for this workload reads 0: the workload
    # does not exercise that layer.
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for spec in bench[kind]:
        name = spec["name"]
        applies = args.trace == 0 or args.workload in design["per_layer"][name]["workloads"]
        if name in emitted:
            if not applies:
                fail(f"{name} emitted by {args.workload}, which design.json says it does not apply to")
            if emitted[name]["unit"] != spec["unit"]:
                fail(f"{name} emitted in {emitted[name]['unit']}, BENCHMARK.json says {spec['unit']}")
            metrics[name] = {"value": emitted[name]["value"], "unit": spec["unit"]}
        elif applies:
            fail(f"{args.workload} did not emit {name}")
        else:
            metrics[name] = {"value": 0, "unit": spec["unit"]}

    result_set = {"meta": meta, "workload": args.workload, "seed": args.seed,
                  "trace": args.trace, "tiny": args.tiny,
                  "worlds": [{"metrics": w["metrics"], "inputs": w["inputs"],
                              "fingerprint": w["fingerprint"]} for w in worlds],
                  "inputs": sorted({w["inputs"] for w in worlds}), "fingerprint": fingerprint,
                  "attempted": attempted, "failed": failed, "failures": failures,
                  "error_rate": failed / attempted if attempted else 0.0,
                  "all_metrics": emitted}
    with open(os.path.join(BUILD_DIR, "results", tag + ".json"), "w") as f:
        json.dump(result_set, f, indent=1, sort_keys=True)

    report = [f"perfbench {args.workload} seed={args.seed} trace={args.trace}"
              f"{' tiny' if args.tiny else ''}"]
    report += [f"  {k}: {v}" for k, v in meta.items()]
    report.append(f"  worlds: {len(worlds)}, {elapsed:.1f} s")
    if elapsed > args.seconds and not worlds[0]["repeat_for_budget"]:
        report.append(f"  note: {args.workload} replays a fixed number of worlds "
                      f"({worlds[0]['worlds']}), which took longer than --seconds {args.seconds:g}")
    report.append(f"  fingerprint: {fingerprint}"
                  f"{' (pinned)' if pinned is not None else ''}")
    report.append(f"  error_rate: {failed}/{attempted}")
    for name, m in sorted(emitted.items()):
        report.append(f"  {name:28s} {m['value']:.6g} {m['unit']} (n={m['samples']})")
    report += [f"  FAILED: {msg}" for msg in failures[:20]]
    print("\n".join(report), file=sys.stderr)

    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
