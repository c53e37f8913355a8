#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each end-to-end metric's
spread: the distance between the first and third quartile of its values
(statistics.quantiles, n=4) as a share of their median, against the bound
in BENCHMARK.json.

    python3 perfbench/spread.py --workload train --seeds 1,2,3,4,5

Run it from the repository root. Each run is the command BENCHMARK.json
names, with its run_seconds.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="comma-separated seeds")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    metrics = bench["end_to_end"]
    values = {m["name"]: [] for m in metrics}
    for seed in args.seeds.split(","):
        cmd = bench["command"] + [
            "--workload", args.workload,
            "--seed", seed,
            "--seconds", str(bench["run_seconds"]),
            "--trace", "0",
        ]
        t = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True)
        wall = time.monotonic() - t
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
        result = json.loads(lines[-1])
        got = {k: v["value"] for k, v in result["metrics"].items()}
        print(
            f"seed {seed}: {wall:.1f}s correct={result['correct']} "
            f"attempted={result['attempted']} failed={result['failed']} "
            + " ".join(f"{k}={v:.6g}" for k, v in got.items()),
            flush=True,
        )
        for name in values:
            values[name].append(got.get(name, float("nan")))

    print()
    for m in metrics:
        vals = values[m["name"]]
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
        else:
            spread = float("nan")
        bound = m["bound"]
        verdict = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
        print(f"{m['name']:<34} median {med:<12.6g} spread {spread:.4f}  bound {bound}  {verdict}")


if __name__ == "__main__":
    main()
