"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload lint --seed 1 --seconds 32 --trace 0

A run pins itself to one CPU, imports the program from ``src/``
(timed as ``setup_s``), draws its item list from ``--seed``, warms up
on one item, then runs whole passes over the same item list until
``--seconds`` are used. Every pass starts from the same state
(:meth:`Workload.reset`). Each item's output is checked against the
committed reference.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics of
:mod:`layers` plus the program's own counters. The last line of
standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--setup-only`` times set-up alone in this interpreter and prints
``{"setup_s": ...}``; a run calls it in fresh interpreters to take the
median of several set-ups.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, Workload  # noqa: E402

#: Set-ups timed per run (this interpreter plus fresh ones).
SETUP_SAMPLES = 9
#: A percentile needs this many samples beyond it to be reported.
TAIL_SAMPLES = 10


def host_facts() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu_count": os.cpu_count(),
            "python": platform.python_version(), "cpu_model": model}


def set_up(workload: Workload) -> float:
    """Import the program; return the set-up seconds."""
    t0 = time.perf_counter()
    workload.import_program()
    return time.perf_counter() - t0


def setup_probe(args) -> float:
    """``set_up`` in a fresh interpreter; its seconds."""
    cmd = [sys.executable, str(Path(__file__)), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-only"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=150, check=True)
    return float(json.loads(out.stdout.strip().splitlines()[-1])
                 ["setup_s"])


class Pass:
    """Item latencies and outcomes of one pass."""

    def __init__(self) -> None:
        self.seconds: list[float] = []
        self.ok = 0


def items_per_s(records: list[Pass]) -> float:
    """Items per second of item time over every pass."""
    return sum(len(r.seconds) for r in records) / sum(
        sum(r.seconds) for r in records)


def run_pass(workload: Workload, items: list) -> Pass:
    workload.reset()
    gc.collect()
    record = Pass()
    clock = time.perf_counter
    for item in items:
        t0 = clock()
        try:
            output = workload.run(item)
        except Exception:  # an item that raises counts as failed
            record.seconds.append(clock() - t0)
            traceback.print_exc(file=sys.stderr)
            continue
        record.seconds.append(clock() - t0)
        record.ok += workload.check(item, output)
    return record


def measure(workload: Workload, items: list, seconds: float,
            min_rounds: int, one_round) -> list:
    """Warm up on one item, then call ``one_round()`` until ``seconds``
    are used, overshooting by at most half a round (at least
    ``min_rounds``)."""
    run_pass(workload, items[:1])
    rounds: list = []
    walls: list[float] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rounds.append(one_round())
        walls.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(rounds) >= min_rounds and \
                elapsed + statistics.median(walls) / 2 > seconds:
            return rounds


def latency_metrics(records: list[Pass]) -> dict:
    """``item_p50_ms`` is the median over items of each item's median
    over passes: on ``wllsms``, whose items fall in a cheap and a
    costly cluster, the pooled median sits in the sparse low tail of
    the costly one and spread more from run to run. ``item_p90_ms``
    pools every sample, since ``wllsms`` has too few items per pass
    for ten to lie beyond its 90th percentile."""
    samples = sorted(s for r in records for s in r.seconds)
    per_item = [statistics.median(r.seconds[i] for r in records)
                for i in range(len(records[0].seconds))]
    out = {"items_per_s": (items_per_s(records), "1/s"),
           "item_p50_ms": (statistics.median(per_item) * 1e3, "ms")}
    if len(samples) >= 10 * TAIL_SAMPLES:
        out["item_p90_ms"] = (
            statistics.quantiles(samples, n=10)[8] * 1e3, "ms")
    return out


def untraced(args, workload: Workload, items: list,
             setup_s: float) -> tuple[list[Pass], dict]:
    min_passes = -(-10 * TAIL_SAMPLES // len(items))
    records = measure(workload, items, args.seconds, min_passes,
                      lambda: run_pass(workload, items))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    samples = [setup_s]
    for _ in range(SETUP_SAMPLES - 1):
        samples.append(setup_probe(args))
    metrics = latency_metrics(records)
    attempted = sum(len(r.seconds) for r in records)
    metrics.update({
        "setup_s": (statistics.median(samples), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "ok_share": (sum(r.ok for r in records) / attempted, "ratio"),
    })
    return records, metrics


@dataclass
class Round:
    """One untraced and one traced pass over the same items."""

    plain: Pass
    spanned: Pass
    #: Engine dispatch seconds of the untraced pass.
    dispatch_s: float
    #: Layer calls and program counters of the traced pass.
    counts: dict
    #: Layer self seconds of the traced pass.
    self_s: dict


def traced(args, workload: Workload, items: list
           ) -> tuple[list[Pass], dict]:
    """Rounds of one untraced and one traced pass. Counts come from
    the first traced pass; times are medians over rounds."""
    from repro.core.analysis.hb import GRAPH_CACHE
    from layers import COUNTERS, LAYERS, SimStatsSink, Tracer

    tracer, sink = Tracer(), SimStatsSink()

    def one_round() -> Round:
        sink.take()
        plain = run_pass(workload, items)
        dispatch_s = sink.take()["sim.engine.dispatch_s"]
        tracer.install()
        try:
            spanned = run_pass(workload, items)
        finally:
            tracer.uninstall()
        layers = tracer.take()
        engine = sink.take()
        engine.pop("sim.engine.dispatch_s")
        hb = GRAPH_CACHE.stats()
        counts = {**{f"{k}.calls": c for k, (c, _s) in layers.items()},
                  **dict.fromkeys(COUNTERS, 0),
                  **engine, **workload.counters(),
                  "hb.cache.hits": hb["hits"],
                  "hb.cache.misses": hb["misses"]}
        return Round(plain, spanned, dispatch_s, counts,
                     {k: s for k, (_c, s) in layers.items()})

    sink.install()
    try:
        rounds = measure(workload, items, args.seconds, 1, one_round)
    finally:
        sink.uninstall()

    plain = [r.plain for r in rounds]
    spanned = [r.spanned for r in rounds]
    metrics: dict = {name: (value, "count")
                     for name, value in rounds[0].counts.items()}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (statistics.median(
            r.self_s[layer] for r in rounds), "s")
    metrics["sim.engine.dispatch_s"] = (
        statistics.median(r.dispatch_s for r in rounds), "s")
    metrics["trace.overhead"] = (
        items_per_s(spanned) / items_per_s(plain), "ratio")
    metrics["core.directives.overhead_ratio"] = (
        directive_overhead(items, plain) if args.workload == "wllsms"
        else 0.0, "ratio")
    return plain + spanned, metrics


def directive_overhead(items: list, records: list[Pass]) -> float:
    """Mean host time of directive items / that of ``original`` ones."""
    directive, original = [], []
    for record in records:
        for item, seconds in zip(items, record.seconds):
            if item[1] == "directive":
                directive.append(seconds)
            elif item[1] == "original":
                original.append(seconds)
    return statistics.mean(directive) / statistics.mean(original)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if hasattr(os, "sched_setaffinity"):
        # One core for the whole run, set-up probes included: the
        # engine passes a baton between rank threads, and handoffs that
        # cross cores were the largest source of spread on 2 vCPUs.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                dir=ROOT / ".perfbench_tmp"))
    try:
        workload = WORKLOADS[args.workload](tmp)
        setup_s = set_up(workload)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        items = workload.items(args.seed)
        if args.trace:
            records, metrics = traced(args, workload, items)
        else:
            records, metrics = untraced(args, workload, items, setup_s)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    attempted = sum(len(r.seconds) for r in records)
    ok = sum(r.ok for r in records)
    print(f"host {json.dumps(host_facts())}")
    print(f"{args.workload} seed={args.seed} items/pass={len(items)} "
          f"passes={len(records)} attempted={attempted} ok={ok}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": ok == attempted, "attempted": attempted,
        "failed": attempted - ok,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
