#!/usr/bin/env python3
"""Check the benchmark's steadiness across seeds.

    python3 perfbench/spread.py --workload dse --seeds 1-10 [--trace 0]

Runs perfbench/run.py once per seed, one after another, with the
run_seconds of BENCHMARK.json, and prints for every metric its median and
its quartile spread: (Q3 - Q1) / median with Python's
statistics.quantiles(values, n=4). An end-to-end metric passes when its
spread is under a third of its bound (setup_s is exempt). Exits non-zero
when a run fails or, with --trace 0, when any spread misses that target.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {}
    for seed in parse_seeds(args.seeds):
        run = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if run.returncode != 0:
            print(f"seed {seed}: run failed ({run.returncode})")
            return 1
        result = json.loads(run.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    steady = True
    for name, vals in values.items():
        mid = statistics.median(vals)
        sp = spread(vals) if len(vals) >= 2 and mid != 0 else float("nan")
        verdict = ""
        if args.trace == 0 and name in bounds:
            ok = name == "setup_s" or sp < bounds[name] / 3
            steady &= ok
            verdict = f"bound {bounds[name]:.2f} {'ok' if ok else 'TOO WIDE'}"
        print(f"{name:40s} median {mid:14.6g}  spread {sp:8.4f}  {verdict}")
        print("    " + " ".join(f"{v:.6g}" for v in vals))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
