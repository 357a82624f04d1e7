#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs SETS sets of untraced runs of every workload, one run per seed and
workload, alternating workloads inside each set, and prints per set and
workload each end-to-end metric's median, quartiles (statistics.quantiles,
n=4) and quartile spread as a share of the median, flagging spreads at or
above a third of the metric's bound in BENCHMARK.json. With two or more sets
it also prints how far each later set's median moved from the first's.

Run from the repository root:

    python3 perfbench/steady.py --sets 2 --seeds 101-110
    python3 perfbench/steady.py --sets 1 --seeds 1-5 --workloads grid-write
"""
import argparse
import json
import statistics
import subprocess
import sys


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seeds", default="101-110")
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    # values[set][workload][metric] -> list of values
    values = [{w: {} for w in args.workloads} for _ in range(args.sets)]
    for s in range(args.sets):
        for seed in seed_list(args.seeds):
            for w in args.workloads:
                cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                          "--seconds", str(args.seconds), "--trace", "0"]
                p = subprocess.run(cmd, capture_output=True, text=True)
                if p.returncode != 0:
                    sys.exit(f"{w} seed {seed} failed:\n{p.stderr[-3000:]}")
                res = json.loads(p.stdout.strip().splitlines()[-1])
                if not res["correct"] or res["failed"]:
                    sys.exit(f"{w} seed {seed}: correct={res['correct']} failed={res['failed']}")
                print(f"set {s + 1} {w} seed {seed}: " + " ".join(
                    f"{k}={v['value']:.5g}" for k, v in sorted(res["metrics"].items())),
                    file=sys.stderr, flush=True)
                for k, v in res["metrics"].items():
                    values[s][w].setdefault(k, []).append(v["value"])

    print("| set | workload | metric | median | q1 | q3 | spread | bound/3 |")
    print("|---|---|---|---|---|---|---|---|")
    for s in range(args.sets):
        for w in args.workloads:
            for k, xs in sorted(values[s][w].items()):
                q1, _, q3 = statistics.quantiles(xs, n=4)
                med = statistics.median(xs)
                spread = (q3 - q1) / med
                flag = "" if k == "setup_s" or spread < bounds[k] / 3 else " **over**"
                print(f"| {s + 1} | {w} | {k} | {med:.5g} | {q1:.5g} | {q3:.5g} | "
                      f"{100 * spread:.2f}%{flag} | {100 * bounds[k] / 3:.2f}% |")
    if args.sets > 1:
        print()
        print("| set | workload | metric | median change vs set 1 | bound |")
        print("|---|---|---|---|---|")
        for s in range(1, args.sets):
            for w in args.workloads:
                for k, xs in sorted(values[s][w].items()):
                    base = statistics.median(values[0][w][k])
                    change = (statistics.median(xs) - base) / base
                    print(f"| {s + 1} | {w} | {k} | {100 * change:+.2f}% | {100 * bounds[k]:.0f}% |")


if __name__ == "__main__":
    main()
