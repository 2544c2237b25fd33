#!/usr/bin/env python3
"""Runs the benchmark's workloads through the haechi_e2e driver and
summarises them. run.sh builds the driver and calls this with --driver;
see run.sh for the modes and README.md for the metrics."""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
WORKLOADS = ["spike_const", "token_storm", "observed_congestion", "threads_saturate"]
CALIBRATE_SEEDS = 10
# Bound floors for --calibrate, as a share of the median: throughput and
# memory move with the host even when the code does not. The protocol
# metrics get PROTOCOL_FLOOR.
FLOORS = {"ios_per_host_s": 0.03, "peak_rss_mb": 0.05}
PROTOCOL_FLOOR = 0.003
SETUP_BOUND = 0.25  # setup_s gets the largest bound the contract allows
MAX_BOUND = 0.25


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def expected_units(spec, traced):
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


def schema_errors(result, units):
    """Problems with one driver result, checked against BENCHMARK.json."""
    if not isinstance(result, dict):
        return ["last stdout line is not a JSON object"]
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"keys {sorted(result)}")
    if not isinstance(result.get("correct"), bool):
        errors.append("correct is not a boolean")
    for key, low in (("attempted", 1), ("failed", 0)):
        value = result.get(key)
        if not isinstance(value, int) or isinstance(value, bool) or value < low:
            errors.append(f"{key} is {value!r}")
    metrics = result.get("metrics")
    if not isinstance(metrics, dict) or set(metrics) != set(units):
        return errors + ["metric names differ from BENCHMARK.json"]
    for name, entry in metrics.items():
        value = entry.get("value") if isinstance(entry, dict) else None
        if (not isinstance(entry, dict) or set(entry) != {"value", "unit"}
                or entry["unit"] != units[name]
                or not isinstance(value, (int, float)) or isinstance(value, bool)
                or not math.isfinite(value)):
            errors.append(f"metric {name}: {entry!r}")
    return errors


def run_driver(args, spec, workload, seed, traced, seconds, length=1.0):
    """One driver process; returns (result, problems)."""
    cmd = [args.driver, f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={int(traced)}", f"--length={length}"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    problems = schema_errors(result, expected_units(spec, traced))
    if not problems and not result["correct"]:
        problems.append("correct is false")
    if proc.returncode != 0:
        problems.append(f"driver exited {proc.returncode}")
    if problems:
        print(f"{workload} seed {seed} {'traced' if traced else 'untraced'}: "
              + "; ".join(problems), file=sys.stderr)
    return result, problems


def summarise(values):
    return {"median": statistics.median(values), "min": min(values), "max": max(values)}


def repeat(args, spec):
    """Every workload untraced then traced, args.repeat times, alternating
    the workload order; prints median and min-max per metric."""
    start = time.monotonic()
    runs = {}  # (workload, pass) -> [result]
    ok = True
    for r in range(args.repeat):
        order = WORKLOADS if r % 2 == 0 else WORKLOADS[::-1]
        for workload in order:
            for traced in (False, True):
                result, problems = run_driver(args, spec, workload, args.seed,
                                              traced, args.seconds)
                ok = ok and not problems
                if result is not None and not problems:
                    runs.setdefault((workload, traced), []).append(result)
    wall = time.monotonic() - start

    report = {}
    for workload in WORKLOADS:
        print(f"\n== {workload} (seed {args.seed}, {args.repeat} invocations)")
        print(f"  {'metric':34} {'median':>14} {'min':>14} {'max':>14}  unit")
        entry = report.setdefault(workload, {})
        for traced, section in ((False, "end_to_end"), (True, "per_layer")):
            results = runs.get((workload, traced), [])
            for metric in spec[section]:
                name = metric["name"]
                values = [res["metrics"][name]["value"] for res in results]
                if not values:
                    continue
                s = summarise(values)
                entry.setdefault(section, {})[name] = dict(s, unit=metric["unit"])
                print(f"  {name:34} {s['median']:14.6g} {s['min']:14.6g} "
                      f"{s['max']:14.6g}  {metric['unit']}")
    print(f"\nwall time {wall:.1f} s; correct: {str(ok).lower()}")
    print(json.dumps({"correct": ok, "wall_s": wall, "seed": args.seed,
                      "repeat": args.repeat, "workloads": report}))
    return 0 if ok else 1


def smoke(args, spec):
    """Every workload at 1/10 length, both passes, with the schema check."""
    start = time.monotonic()
    ok = True
    for workload in WORKLOADS:
        for traced in (False, True):
            t0 = time.monotonic()
            _, problems = run_driver(args, spec, workload, args.seed, traced,
                                     seconds=0.1, length=0.1)
            ok = ok and not problems
            print(f"{workload:20} {'traced' if traced else 'untraced':9} "
                  f"{'ok' if not problems else 'FAILED':7} {time.monotonic() - t0:6.1f} s")
    wall = time.monotonic() - start
    print(json.dumps({"correct": ok, "wall_s": wall}))
    return 0 if ok else 1


def calibrate(args, spec):
    """Runs each workload untraced on seeds 1..CALIBRATE_SEEDS and suggests
    a bound per end-to-end metric: three times the worst quartile spread
    (q3 - q1) / median across workloads, with floors."""
    values = {}  # (workload, metric) -> [value]
    ok = True
    for seed in range(1, CALIBRATE_SEEDS + 1):
        order = WORKLOADS if seed % 2 == 1 else WORKLOADS[::-1]
        for workload in order:
            result, problems = run_driver(args, spec, workload, seed, False,
                                          args.seconds)
            ok = ok and not problems
            if result is None or problems:
                continue
            for name, entry in result["metrics"].items():
                values.setdefault((workload, name), []).append(entry["value"])

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    suggested = {}
    print(f"  {'workload':20} {'metric':16} {'median':>14} {'spread':>8} "
          f"{'bound':>6}  within bound/3")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        worst = 0.0
        for workload in WORKLOADS:
            v = values.get((workload, name), [])
            if len(v) < 2:
                continue
            q1, _, q3 = statistics.quantiles(v, n=4)
            median = statistics.median(v)
            spread = (q3 - q1) / abs(median) if median else math.inf
            worst = max(worst, spread)
            fine = name == "setup_s" or spread < bounds[name] / 3
            print(f"  {workload:20} {name:16} {median:14.6g} {spread:8.4f} "
                  f"{bounds[name]:6.3f}  {'yes' if fine else 'NO'}")
        if name == "setup_s":
            suggested[name] = SETUP_BOUND
        else:
            floor = FLOORS.get(name, PROTOCOL_FLOOR)
            suggested[name] = round(min(MAX_BOUND, max(floor, 3 * worst)), 3)
    print(json.dumps({"correct": ok, "seeds": CALIBRATE_SEEDS,
                      "suggested_bounds": suggested,
                      "values": {f"{w}/{m}": v for (w, m), v in values.items()}}))
    return 0 if ok else 1


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(prog="run.sh")
    parser.add_argument("--driver", required=True, help=argparse.SUPPRESS)
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--calibrate", action="store_true")
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    if args.smoke:
        return smoke(args, spec)
    if args.calibrate:
        return calibrate(args, spec)
    return repeat(args, spec)


if __name__ == "__main__":
    sys.exit(main())
