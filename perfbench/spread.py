"""Check the benchmark's steadiness: run workloads over seeds 1 to 10.

Usage, from the root of a checkout::

    python3 perfbench/spread.py [--seconds N] [WORKLOAD ...]

Each run is its own process (``perfbench/run.py``), one after another.
For every end-to-end metric this prints the median of the runs and the
spread, the distance between the first and third quartiles as a share
of the median, beside a third of the metric's bound from
``BENCHMARK.json``.  The exit code is 0 only when every run was correct
and every spread is below a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workloads", nargs="*", default=names)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for name in args.workloads:
        runs = []
        for seed in SEEDS:
            out = subprocess.run(
                spec["command"] + ["--workload", name, "--seed", str(seed),
                                   "--seconds", str(args.seconds),
                                   "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            steady &= result["correct"]
            runs.append(result["metrics"])
        print(f"{name}: {len(runs)} runs")
        for metric, bound in bounds.items():
            values = [r[metric]["value"] for r in runs]
            s = spread(values)
            ok = s < bound / 3
            steady &= ok
            print(f"  {metric:16s} median {statistics.median(values):12.4f}"
                  f"  spread {s:6.3f}  (bound/3 {bound / 3:.3f})"
                  f"{'' if ok else '  TOO WIDE'}  "
                  + " ".join(f"{v:.4g}" for v in values))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
