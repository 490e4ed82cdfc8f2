"""The benchmark's own tests.

Run from the repository root (they are not part of the program's test
suite)::

    python3 -m pytest perfbench -q

* a perturbed reference entry drives a workload's ``ok_share`` below 1;
* the same seed builds the same item list, another seed another one;
* every count of a traced run repeats exactly across runs and across
  ``PYTHONHASHSEED`` values, and a run emits exactly the metric names
  ``BENCHMARK.json`` declares;
* ``Engine.run`` is a ``sim.engine`` span while the engine-counter sink
  wraps it;
* without the program's sources the benchmark fails without a result.
"""

from __future__ import annotations

import inspect
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = sorted(WORKLOADS)


#: Items the in-process tests run: one WL-LSMS cycle, a few others.
FEW = {"wllsms": 5}


def _workload(name: str, tmp_path: Path):
    workload = WORKLOADS[name](tmp_path)
    workload.import_program()
    return workload


def _bench(*args: str, env: dict | None = None,
           cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300,
        env={**os.environ, **(env or {})})


def _result(out: subprocess.CompletedProcess) -> dict:
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", NAMES)
def test_perturbed_reference_fails_the_item(name, tmp_path):
    workload = _workload(name, tmp_path)
    items = workload.items(5)[:FEW.get(name, 3)]
    clean = run.run_pass(workload, items)
    assert clean.ok == len(items)

    workload.reset()
    key = sorted(workload.digest(items[0], workload.run(items[0])))[0]
    workload.refs = {**workload.refs, key: "perturbed"}
    perturbed = run.run_pass(workload, items)
    assert perturbed.ok < len(items)


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_builds_the_same_items(name, tmp_path):
    first = _workload(name, tmp_path)
    second = WORKLOADS[name](tmp_path)
    items = first.items(11)
    assert items == second.items(11)
    assert items != first.items(12)


@pytest.mark.parametrize("name", NAMES)
def test_traced_counts_repeat_exactly(name):
    args = ("--workload", name, "--seed", "3", "--seconds", "1",
            "--trace", "1")
    runs = [_result(_bench(*args, env={"PYTHONHASHSEED": seed}))
            for seed in ("0", "0", "1")]
    declared = {m["name"] for m in BENCH["per_layer"]}
    for result in runs:
        assert result["correct"]
        assert set(result["metrics"]) == declared
    counts = [{k: v["value"] for k, v in r["metrics"].items()
               if v["unit"] == "count"} for r in runs]
    assert counts[0] == counts[1] == counts[2]
    assert any(counts[0].values())


def test_engine_run_is_a_span_under_the_stats_sink(tmp_path):
    from layers import SimStatsSink, Tracer
    from repro.sim.engine import Engine

    workload = _workload("wllsms", tmp_path)
    item = workload.items(1)[0]
    run_fn = vars(Engine)["run"]
    sink = SimStatsSink()
    calls = []
    for with_sink in (False, True):
        if with_sink:
            sink.install()
        tracer = Tracer()
        tracer.install()
        try:
            assert inspect.unwrap(Engine.run) is run_fn
            workload.run(item)
        finally:
            tracer.uninstall()
            sink.uninstall()
        calls.append(tracer.take()["sim.engine"][0])
    assert vars(Engine)["run"] is run_fn
    assert sink.take()["sim.engine.switches"] > 0
    # The sink's wrapper must not hide Engine.run from the tracer.
    assert calls[0] == calls[1] > 0


def test_untraced_run_reports_end_to_end_metrics():
    result = _result(_bench("--workload", "wllsms", "--seed", "2",
                            "--seconds", "1", "--trace", "0"))
    declared = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    metrics = result["metrics"]
    assert set(metrics) == set(declared)
    for name, metric in metrics.items():
        assert metric["unit"] == declared[name]
        assert metric["value"] > 0
    assert metrics["ok_share"]["value"] == 1.0
    assert result["correct"] and result["failed"] == 0


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _bench("--workload", "lint", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
