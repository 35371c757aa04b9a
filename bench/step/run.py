#!/usr/bin/env python3
"""Build and run the end-to-end step benchmark (bench_step.cpp).

    python3 bench/step/run.py                 # all workloads, untraced
    python3 bench/step/run.py --trace         # ... plus the traced per-layer run
    python3 bench/step/run.py --sets 2        # repeatability check of two sets
    python3 bench/step/run.py --smoke         # tiny sizes, all gates, < 20 s
    python3 bench/step/run.py --workload sedov --seed 3 --seconds 20 --trace 0

The program is built from source into build-bench/ at the repository root,
and runs there at min(4, nproc) workers (OMP_NUM_THREADS).
Metric names, units and bounds come from BENCHMARK.json at the root; every
metric it declares must be emitted, and nothing else. With --workload, the
last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. Without --workload, every
workload runs in turn and the merged results go to build-bench/bench_step.json.
Exits 1 on a build failure, a failed step or validation, a missing metric,
or (with --sets 2) a repeatability miss.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / "build-bench"
BINARY = BUILD / "bench_step"
SPEC = ROOT / "BENCHMARK.json"

WORKERS = min(4, os.cpu_count() or 1)
RUN_TIMEOUT_S = 170
# Counts that repeat exactly between runs of one seed.
EXACT_COUNTS = ("tree.pairs", "sph.steps", "sph.hsolve_iters",
                "tree.gravity_p2p", "tree.gravity_m2p")


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        return json.loads(SPEC.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {SPEC}: {e}")


def build():
    """Configure and build incrementally; build output goes to stderr."""
    for cmd in (["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", str(BUILD), "--parallel", str(WORKERS)]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def bench(workload, seed, seconds, trace=False, smoke=False):
    """One bench_step process; returns its JSON result. It runs in BUILD,
    where a traced run writes trace_<workload>[_smoke].json."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    if smoke:
        cmd.append("--smoke")
    if trace:
        cmd.append("--trace")
    env = dict(os.environ, OMP_NUM_THREADS=str(WORKERS))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=BUILD,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"{workload}: bench_step exited {proc.returncode} without a result")
    if result["error"]:
        print(f"run.py: {workload}: {result['error']}", file=sys.stderr)
    return result


def declared(spec, trace):
    return spec["per_layer"] if trace else spec["end_to_end"]


def metric_mismatch(spec, result, trace):
    """Names declared but not emitted, or emitted but not declared."""
    want = {m["name"] for m in declared(spec, trace)}
    got = set(result["metrics"])
    return sorted(want ^ got) if result["correct"] else []


def print_result(spec, result, trace):
    w = result["workload"]
    print(f"== {w}  seed {result['seed']}  {result['particles']} particles  "
          f"t_end {result['t_end']}  {result['workers']} workers  "
          f"{'traced' if trace else 'untraced'}")
    step_s = result["info"].get("step_s")
    for m in declared(spec, trace):
        value = result["metrics"].get(m["name"])
        if value is None:
            continue
        line = f"  {m['name']:<28} {value:>16.6g} {m['unit']:<10}"
        if "bound" in m:
            line += f" bound {100 * m['bound']:.0f}%"
        elif step_s and m["unit"] == "s" and m["name"] != "parallel.wait_s":
            line += f" {100 * value / step_s:5.1f}% of step"
        print(line)
    print(f"  {'fail_rate':<28} {result['failed'] / max(result['attempted'], 1):>16.6g}"
          f" {'failed/op':<10} ({result['failed']} of {result['attempted']} ops)")
    if not trace:
        info = result["info"]
        print(f"  samples: {info.get('reps')} loop(s), {info.get('step_samples')} steps, "
              f"{info.get('setup_samples')} set-ups")


def result_line(spec, result, trace):
    """The one-line result of a --workload run."""
    units = {m["name"]: m["unit"] for m in declared(spec, trace)}
    mismatch = metric_mismatch(spec, result, trace)
    if mismatch:
        print(f"run.py: metric set differs from BENCHMARK.json: {mismatch}", file=sys.stderr)
    return {
        "correct": bool(result["correct"]) and not mismatch,
        "attempted": max(int(result["attempted"]), 1),
        "failed": int(result["failed"]),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in result["metrics"].items() if k in units},
    }


def compare_sets(spec, first, second):
    """Repeatability: every end-to-end metric within its bound, counts equal."""
    ok = True
    print("== repeatability: set 2 / set 1")
    for a, b in zip(first, second):
        w = a["workload"]
        if not (a["correct"] and b["correct"]):
            print(f"  {w:<14} a run failed; nothing to compare")
            ok = False
            continue
        for m in spec["end_to_end"]:
            v1, v2 = a["metrics"][m["name"]], b["metrics"][m["name"]]
            ratio = v2 / v1
            miss = abs(ratio - 1) > m["bound"]
            ok &= not miss
            print(f"  {w:<14} {m['name']:<20} {v1:>12.6g} {v2:>12.6g} "
                  f"ratio {ratio:.4f}{'  OVER BOUND' if miss else ''}")
        for c in EXACT_COUNTS:
            same = a["counts"][c] == b["counts"][c]
            ok &= same
            if not same:
                print(f"  {w:<14} {c:<20} {a['counts'][c]} != {b['counts'][c]}")
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", help="run one workload and print the result line")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, help="measured time per run "
                   "(default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                   help="per-layer traced run instead of the end-to-end run")
    p.add_argument("--sets", type=int, default=1, help="untraced sets to run and compare")
    p.add_argument("--smoke", action="store_true", help="tiny sizes, a few steps each")
    args = p.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload and args.workload not in names:
        fail(f"unknown workload {args.workload}; one of {names}")
    seconds = args.seconds or spec["run_seconds"]
    build()

    if args.workload:
        bench(args.workload, args.seed, seconds, smoke=True)  # untimed warm-up
        result = bench(args.workload, args.seed, seconds, bool(args.trace), args.smoke)
        print_result(spec, result, bool(args.trace))
        line = result_line(spec, result, bool(args.trace))
        print(json.dumps(line))
        return 0 if line["correct"] else 1

    if not args.smoke:  # a smoke run is its own warm-up
        for w in names:
            bench(w, args.seed, seconds, smoke=True)
    sets = []
    for _ in range(max(args.sets, 1)):
        sets.append([bench(w, args.seed, seconds, smoke=args.smoke) for w in names])
    traced = []
    if args.trace or args.smoke:
        traced = [bench(w, args.seed, seconds, trace=True, smoke=args.smoke) for w in names]

    ok = True
    for result in sets[-1]:
        print_result(spec, result, False)
        ok &= result["correct"] and not metric_mismatch(spec, result, False)
    for result in traced:
        print_result(spec, result, True)
        ok &= result["correct"] and not metric_mismatch(spec, result, True)
    if len(sets) > 1:
        ok &= compare_sets(spec, sets[0], sets[1])

    out = BUILD / ("bench_step_smoke.json" if args.smoke else "bench_step.json")
    out.write_text(json.dumps({"sets": sets, "traced": traced}, indent=1) + "\n")
    print(f"results: {out}")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
