#!/usr/bin/env python3
"""Smoke test of the repository benchmark, at tiny horizons (under a minute).

    python3 perfbench/smoke.py

For every workload in BENCHMARK.json, untraced and traced, it checks that the
result line has exactly the contract's keys, that every metric of the mode is
there once with its BENCHMARK.json unit, that every figure the workload
measures carries a sample count, and that the outputs were correct. It then
checks that another seed changes the generated inputs but not the metric
names, that the same seed regenerates the same inputs, that design.json and
BENCHMARK.json describe the same metrics, and that the benchmark refuses to
run, without printing a result, when the program's sources are absent.
Exit status 0 = all checks passed.
"""
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")
RESULTS = os.path.join(ROOT, ".bench_build", "results")

failures = []


def check(ok, what):
    if not ok:
        failures.append(what)
        print(f"FAIL: {what}", file=sys.stderr)


def run(workload, seed, trace):
    proc = subprocess.run([sys.executable, RUN, "--workload", workload, "--seed", str(seed),
                           "--seconds", "1", "--trace", str(trace), "--tiny"],
                          cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        check(False, f"{workload} seed {seed} trace {trace}: exit {proc.returncode}\n"
                     f"{proc.stderr[-2000:]}")
        return None, None
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(RESULTS, f"{workload}-seed{seed}-trace{trace}-tiny.json")) as f:
        return line, json.load(f)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(BENCH_DIR, "design.json")) as f:
        design = json.load(f)

    # design.json is the per-layer map of BENCHMARK.json.
    check(set(design["per_layer"]) == {m["name"] for m in bench["per_layer"]},
          "design.json and BENCHMARK.json list different per-layer metrics")
    workloads = [w["name"] for w in bench["workloads"]]
    check(set(design["workloads"]) == set(workloads),
          "design.json and BENCHMARK.json list different workloads")
    e2e_names = {m["name"] for m in bench["end_to_end"]}
    report_only = set(design["report_only"])
    for name, d in design["per_layer"].items():
        check(set(d["workloads"]) <= set(workloads), f"{name}: unknown workload")
        for mv in d["moves"]:
            check(mv["metric"] in e2e_names | report_only, f"{name}: moves unknown {mv['metric']}")
            check(mv["workload"] in d["workloads"] or mv["workload"] in workloads,
                  f"{name}: moves on unknown workload {mv['workload']}")

    for w in workloads:
        names = {}
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            line, result = run(w, 42, trace)
            if line is None:
                continue
            tag = f"{w} trace {trace}"
            check(set(line) == {"correct", "attempted", "failed", "metrics"}, f"{tag}: keys")
            check(line["correct"] and line["failed"] == 0 and line["attempted"] >= 1,
                  f"{tag}: outputs not correct: {result['failures'][:5]}")
            expected = {m["name"]: m["unit"] for m in bench[kind]}
            check(set(line["metrics"]) == set(expected), f"{tag}: metric names differ")
            for name, unit in expected.items():
                got = line["metrics"].get(name, {})
                check(got.get("unit") == unit, f"{tag}: {name} unit {got.get('unit')} != {unit}")
                check(isinstance(got.get("value"), (int, float)), f"{tag}: {name} has no value")
                applies = trace == 0 or w in design["per_layer"][name]["workloads"]
                if applies:
                    measured = result["all_metrics"].get(name)
                    check(measured is not None and measured["samples"] >= 1,
                          f"{tag}: {name} has no sample count")
            names[trace] = set(line["metrics"])

        # Another seed: other inputs, same metric names. Same seed: same inputs.
        line, other = run(w, 43, 0)
        _, again = run(w, 42, 0)
        with open(os.path.join(RESULTS, f"{w}-seed42-trace0-tiny.json")) as f:
            first = json.load(f)
        if line is not None and again is not None:
            check(other["inputs"] != first["inputs"], f"{w}: seed 43 generated seed 42's inputs")
            check(again["inputs"] == first["inputs"], f"{w}: seed 42 inputs not reproducible")
            check(set(line["metrics"]) == names.get(0), f"{w}: metric names depend on the seed")

    # Without the program's sources the benchmark must fail without a result.
    bare = os.path.join(ROOT, ".bench_build", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workloads[0],
                           "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          "benchmark without sources did not fail cleanly")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"smoke: {'FAILED ' + str(len(failures)) + ' checks' if failures else 'all checks passed'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
