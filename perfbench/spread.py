"""Repeat the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload mc-large [--workload ...]
                                --seeds 1-10 [--seconds 20] [--out FILE]

For every end-to-end metric it prints the values, the median, the quartiles
and the spread: the distance between the first and third quartile, as
statistics.quantiles(values, n=4) gives them, divided by the median.  Run it
from the root of a checkout, like run.py.  --out writes the same numbers
as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", default="25")
    p.add_argument("--out")
    args = p.parse_args(argv)

    report: dict = {}
    for workload in args.workload:
        runs = []
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            doc = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(doc)
            print(f"{workload} seed {seed}: attempted {doc['attempted']} failed {doc['failed']}",
                  flush=True)
        metrics = {}
        for name, first in runs[0]["metrics"].items():
            metrics[name] = summarize([r["metrics"][name]["value"] for r in runs])
            metrics[name]["unit"] = first["unit"]
            s = metrics[name]
            print(f"  {name:32s} median {s['median']:.6g} {s['unit']}  "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.4f}")
        report[workload] = {
            "seeds": parse_seeds(args.seeds),
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "metrics": metrics,
        }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
