#!/usr/bin/env python3
"""Steadiness evidence for the benchmark's bounds.

    python3 perfbench/steadiness.py --runs 10 --seconds 20 --out steady.json

Runs two alternating sets (A, B, A, B, ...) of the same build: run i of
each set uses seed base+i on every workload.  For each end-to-end metric
on each workload it prints both sets' median and quartiles, the spread
(interquartile distance over the median) of each set, the set-to-set
difference of the medians, and the metric's bound from BENCHMARK.json.
A metric holds when each set's spread stays within its bound (setup_s
excepted) and the medians differ by no more than the bound; the target
while tuning is a spread under a third of the bound.  --sets 1 runs one
set only (a cheap probe while tuning).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed} failed")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed}: a correctness check failed")
    return result


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=2)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--out", help="write all runs and summaries as JSON")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    names = ["A", "B"][:args.sets]
    runs = {s: {w: [] for w in workloads} for s in names}
    for i in range(args.runs):
        for s in names:
            for w in workloads:
                result = run_once(w, args.seed_base + i, seconds)
                runs[s][w].append(result)
                print(f"set {s} run {i + 1} {w}: " + ", ".join(
                    f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                    file=sys.stderr, flush=True)

    report = {"seconds": seconds, "runs": runs, "summary": {}}
    ok = True
    header = (f"{'workload':12} {'metric':22} {'set':3} {'median':>11} "
              f"{'q1':>11} {'q3':>11} {'spread':>7}  {'diff':>7} {'bound':>5}")
    print(header)
    for w in workloads:
        shares = {s: sum(r["failed"] for r in runs[s][w]) /
                  sum(r["attempted"] for r in runs[s][w]) for s in names}
        print(f"{w:12} failed share: " +
              ", ".join(f"set {s} {v:.6f}" for s, v in shares.items()))
        if len(set(shares.values())) > 1:
            ok = False
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sets = {s: summary([r["metrics"][name]["value"] for r in runs[s][w]])
                    for s in names}
            diff = None
            if len(names) == 2 and sets["A"]["median"]:
                diff = (sets["B"]["median"] - sets["A"]["median"]) / \
                    sets["A"]["median"]
            report["summary"].setdefault(w, {})[name] = {
                "bound": bound, "sets": sets, "diff": diff}
            for s in names:
                st = sets[s]
                verdict = ""
                if name != "setup_s" and st["spread"] > bound:
                    verdict, ok = " SPREAD", False
                elif name != "setup_s" and st["spread"] > bound / 3:
                    verdict = " (over a third)"
                diff_text = f"{diff:+7.3f}" if (diff is not None and s == "B") else " " * 7
                if s == "B" and diff is not None and abs(diff) > bound:
                    verdict, ok = verdict + " DRIFT", False
                print(f"{w:12} {name:22} {s:3} {st['median']:11.5g} "
                      f"{st['q1']:11.5g} {st['q3']:11.5g} {st['spread']:7.3f}  "
                      f"{diff_text} {bound:5.2f}{verdict}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
