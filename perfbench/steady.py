"""Steadiness check: two sets of runs of the same code, compared.

Usage (from the repository root)::

    python3 perfbench/steady.py [--workload NAME ...] [--runs 10] [--seed 1]

Runs the command of ``BENCHMARK.json`` ``--runs`` times per workload,
each time with another seed (``--seed``, ``--seed + 1``, ...), and
repeats that in a second set with the same seeds, the two sets taking
turns run by run. For every (workload, metric) it prints each set's
median, quartiles and IQR / median, marks the metric ``unresolved``
when that spread exceeds the metric's bound, and says whether the
second set's median is within the bound of the first set's, in the
metric's worse direction. Quartiles are
``statistics.quantiles(values, n=4)``. It exits 1 when a run fails,
is incorrect, or a check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = 2


def one_run(bench: dict, workload: str, seed: int) -> dict:
    cmd = [*bench["command"], "--workload", workload, "--seed",
           str(seed), "--seconds", str(bench["run_seconds"]),
           "--trace", "0"]
    t0 = time.perf_counter()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    wall = time.perf_counter() - t0
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited {out.returncode}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / median if median else 0.0}


def worse_share(first: float, later: float, better: str) -> float:
    """How much worse ``later`` is than ``first``, as a share."""
    if not first:
        return 0.0
    change = (later - first) / first
    return change if better == "lower" else -change


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = bench["end_to_end"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    failed = False
    for workload in workloads:
        # Sets alternate run by run, so drift in host speed during the
        # check reaches every set alike.
        sets: list[list[dict]] = [[] for _ in range(SETS)]
        for i in range(args.runs):
            for s, runs in enumerate(sets):
                result = one_run(bench, workload, args.seed + i)
                failed |= not result["correct"]
                runs.append(result)
                print(f"{workload} set {s + 1} seed {args.seed + i}: "
                      f"correct={result['correct']} "
                      f"attempted={result['attempted']} "
                      f"wall={result['wall_s']:.1f}s", flush=True)
        print(f"\n{workload}\n  {'metric':38s} set median       q1"
              f"           q3           iqr/med  verdict")
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            rows = [spread([r["metrics"][name]["value"] for r in runs])
                    for runs in sets]
            for k, row in enumerate(rows):
                verdict = []
                if row["iqr_share"] > bound:
                    verdict.append("unresolved")
                    failed = True
                if k:
                    worse = worse_share(rows[0]["median"], row["median"],
                                        metric["better"])
                    agree = worse <= bound
                    verdict.append(f"{'agrees' if agree else 'DISAGREES'}"
                                   f" ({worse:+.3f} worse)")
                    failed |= not agree
                print(f"  {name:38s} {k + 1}  {row['median']:<12.6g} "
                      f"{row['q1']:<12.6g} {row['q3']:<12.6g} "
                      f"{row['iqr_share']:<8.4f} {' '.join(verdict)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
