#!/usr/bin/env python3
"""Steadiness mode: run each workload repeatedly and check each metric's spread.

Runs the BENCHMARK.json command untraced, once per seed 1..runs, for every
workload, and repeats that whole set `--sets` times. For every end-to-end
metric it prints, per set, the median and the interquartile spread
(Q3 - Q1 from statistics.quantiles(values, n=4)) as a share of the median,
against the metric's bound; and the change of each later set's median from
the first set's, in the metric's "worse" direction.

    python3 perfbench/steady.py [--workloads a,b] [--runs 10] [--sets 2]

Run from the repository root. Exits 1 when a run fails a check, a spread
exceeds its bound, or a later set's median is worse than the first set's
by more than the bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_set(bench, workloads, runs):
    """{workload: {metric: [values]}} for one set; False if a run failed."""
    ok = True
    out = {}
    for wl in workloads:
        values = out.setdefault(wl, {})
        for seed in range(1, runs + 1):
            cmd = bench["command"] + ["--workload", wl, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            p = subprocess.run(cmd, capture_output=True, text=True)
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                print(f"{wl} seed {seed}: exit {p.returncode}\n{p.stdout[-2000:]}{p.stderr[-2000:]}")
                ok = False
                continue
            res = json.loads(lines[-1])
            ok &= res["correct"]
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{wl} seed {seed}: " + " ".join(
                f"{n}={m['value']:.4g}" for n, m in res["metrics"].items()), flush=True)
    return out, ok


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    metrics = bench["end_to_end"]

    sets = []
    ok = True
    for i in range(args.sets):
        print(f"--- set {i + 1}", flush=True)
        values, set_ok = run_set(bench, workloads, args.runs)
        sets.append(values)
        ok &= set_ok

    for wl in workloads:
        print(f"\n{wl}: {args.sets} sets of {args.runs} runs")
        print(f"  {'metric':<22} {'set':>3} {'median':>12} {'spread':>8} {'vs set 1':>9} {'bound':>6}  verdict")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            first = None
            for i, values in enumerate(sets):
                vals = values.get(wl, {}).get(name, [])
                if len(vals) < 2:
                    print(f"  {name:<22} {i + 1:>3} too few runs")
                    ok = False
                    continue
                med = statistics.median(vals)
                q = statistics.quantiles(vals, n=4)
                spread = (q[2] - q[0]) / abs(med)
                first = med if first is None else first
                worse = (med - first) / abs(first)
                if m["better"] == "higher":
                    worse = -worse
                verdict = "steady (< bound/3)" if spread <= bound / 3 else "within bound"
                if spread > bound:
                    verdict = "SPREAD OVER BOUND"
                    ok = False
                if worse > bound:
                    verdict = "MEDIAN WORSE THAN SET 1 BY MORE THAN BOUND"
                    ok = False
                print(f"  {name:<22} {i + 1:>3} {med:>12.6g} {spread:>8.4f} {worse:>+9.4f} {bound:>6.2f}  {verdict}")
    print(flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
