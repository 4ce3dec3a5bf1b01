#!/usr/bin/env python3
"""Run one workload over several seeds and report each metric's median and
quartile spread (the distance between the first and third quartile as a
share of the median), the measure BENCHMARK.json's bounds are judged by.

    python3 perfbench/spread.py --workload crawl_bulk --seeds 1-10

Each run is the command of BENCHMARK.json with its run_seconds; a run that
exits non-zero is reported and stops the script.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from stats import iqr_share, median  # noqa: E402


def parse_seeds(spec: str) -> list[int]:
    """"1-3,7" -> [1, 2, 3, 7]."""
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, help='e.g. "1-10" or "3,5,8"')
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    values: dict[str, list[float]] = {}
    for seed in parse_seeds(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = r.stdout.strip().splitlines()
        if r.returncode or not lines:
            print(f"seed {seed}: exit {r.returncode}\n{r.stderr[-3000:]}")
            return 1
        result = json.loads(lines[-1])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()))
    if len(next(iter(values.values()))) < 2:
        return 0
    for name, v in values.items():
        print(f"{name}: median {median(v):.4g} spread {iqr_share(v):.4f} "
              f"(n={len(v)})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
