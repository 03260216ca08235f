#!/usr/bin/env python3
"""Repeat mode: run one workload several times, each with its own seed, and
print each metric's median, quartiles and relative spread.

The runs are untraced and measure run_seconds of BENCHMARK.json each. The
spread is (Q3 - Q1) / median over the runs, with quartiles as
`statistics.quantiles(values, n=4)` gives them. Bounds in BENCHMARK.json
are set from this output: each end-to-end metric's spread must stay below
its bound, and should stay below a third of it.

Run from the repository root:

    python3 perfbench/repeat.py --workload serve-read --runs 10 --seed 1
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1, help="run i uses seed + i")
    args = ap.parse_args()

    bench = json.loads(pathlib.Path("BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values, units = {}, {}
    for i in range(args.runs):
        seed = args.seed + i
        cmd = bench["command"] + [
            "--workload", args.workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", "0",
        ]
        p = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = p.stdout.strip().splitlines()
        if p.returncode != 0 or not lines:
            sys.stderr.write(p.stdout + p.stderr)
            sys.exit(f"run with seed {seed} failed (exit {p.returncode})")
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"run with seed {seed}: correct={result['correct']} failed={result['failed']}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"run {i + 1}/{args.runs} seed={seed} done", file=sys.stderr, flush=True)

    print(f"workload={args.workload} runs={args.runs} seeds={args.seed}..{args.seed + args.runs - 1} "
          f"seconds={seconds}")
    print(f"{'metric':<34} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}  bound")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds[name]
        verdict = "ok" if spread < bound / 3 else "WIDE" if spread < bound else "OVER"
        print(f"{name:<34} {units[name]:<6} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.4f}  {bound} {verdict}")
    print("per run, in seed order:")
    for name, vals in values.items():
        print(f"  {name:<32} " + " ".join(f"{v:.4g}" for v in vals))


if __name__ == "__main__":
    main()
