"""Scheduler determinism: exact goldens of the engine's observables.

The heap ready queue and direct baton handoff must not change *any*
observable of a run — dispatch order, span streams, virtual completion
times — only host wall-clock. These tests pin those observables on a
message-heavy synthetic ring and on the paper's WL-LSMS application
(quick mode) as exact goldens in ``tests/sim/golden/determinism.json``,
so a future scheduler change that perturbs the deterministic
``(virtual time, rank)`` order fails loudly. Floats are stored as
:meth:`float.hex`; the span stream as its length plus a sha256 of the
``repr`` of its ``(rank, kind, t0, t1, attrs)`` tuples.

The golden was recorded while the pre-heap seed scheduler (linear ready
scans, a scheduler bounce per slice) still existed, and both schedulers
produced every value in it. A negative control checks that the span
comparison sees dispatch order: reverse-rank tie breaking records the
same spans in another order and fails the golden. After an intended
scheduler change, re-pin it with
``PYTHONPATH=src python tests/sim/test_determinism.py`` and say why in
the change description.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import os

import numpy as np
import pytest

from repro import mpi
from repro.apps.wllsms import AppConfig, run_app
from repro.netmodel import gemini_model
from repro.sim import Engine
from repro.sim.engine import ProcState

_MODEL = gemini_model()
_GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "golden", "determinism.json")

RING_NPROCS = (2, 5, 16)
SPAN_NPROCS = 8
QUICK = dict(n_lsms=2, group_size=4, t=32, tc=4, wl_steps=2)
VARIANTS = (
    ("original", "TARGET_COMM_MPI_2SIDE"),
    ("waitall", "TARGET_COMM_MPI_2SIDE"),
    ("directive", "TARGET_COMM_MPI_2SIDE"),
    ("directive", "TARGET_COMM_SHMEM"),
)


class _ReverseTieEngine(Engine):
    """Negative control: breaks ``(time, rank)`` ties in reverse rank
    order (the heap holds ``(time, -rank)``); otherwise the same
    scheduler."""

    def _make_ready(self, proc):
        proc.state = ProcState.READY
        heapq.heappush(self._ready_heap, (proc.now, -proc.rank))

    def _pop_next_ready(self):
        heap = self._ready_heap
        while heap:
            now, neg_rank = heapq.heappop(heap)
            proc = self.procs[-neg_rank]
            if proc.state is ProcState.READY and proc.now == now:
                return proc
        return None

    def _ready_before(self, proc):
        heap = self._ready_heap
        while heap:
            now, neg_rank = heap[0]
            p = self.procs[-neg_rank]
            if p.state is ProcState.READY and p.now == now:
                return (now, neg_rank) < (proc.now, -proc.rank)
            heapq.heappop(heap)
        return False


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


def _ring_main(env):
    comm = mpi.init(env, _MODEL)
    out = np.full(64, float(env.rank))
    inb = np.zeros(64)
    for _ in range(4):
        rreq = comm.Irecv(inb, source=(env.rank - 1) % env.size)
        sreq = comm.Isend(out, dest=(env.rank + 1) % env.size)
        comm.Waitall([rreq, sreq])
        env.compute(1e-6 * (env.rank + 1))
    return env.now


def _ring(nprocs: int) -> dict:
    res = Engine(nprocs).run(_ring_main)
    return {"values": _hex(res.values),
            "finish_times": _hex(res.finish_times),
            "makespan": res.makespan.hex()}


def _span_stream(engine_cls, nprocs: int = SPAN_NPROCS) -> list[tuple]:
    """The ordered ``(rank, kind, t0, t1, attrs)`` spans of one ring run."""
    res = engine_cls(nprocs, profile=True).run(_ring_main)
    return [(s.rank, s.kind, s.t0, s.t1, s.attrs) for s in res.profile]


def _span_digest(spans: list[tuple]) -> dict:
    return {"length": len(spans),
            "sha256": hashlib.sha256(repr(spans).encode()).hexdigest()}


def _wllsms(variant: str, target: str) -> dict:
    cfg = AppConfig(variant=variant, target=target, model=_MODEL, **QUICK)
    res = run_app(cfg)
    return {"makespan": res.makespan.hex(),
            "finish_times": _hex(res.finish_times),
            "group_energies": _hex(res.group_energies),
            "ln_g": _hex(res.wang_landau.ln_g)}


def collect() -> dict:
    """Every pinned observable, in the golden's shape."""
    return {
        "ring": {str(n): _ring(n) for n in RING_NPROCS},
        "spans": _span_digest(_span_stream(Engine)),
        "wllsms": {f"{v}/{t}": _wllsms(v, t) for v, t in VARIANTS},
    }


def _golden() -> dict:
    with open(_GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


class TestRingEquivalence:
    @pytest.mark.parametrize("nprocs", RING_NPROCS)
    def test_results_identical(self, nprocs):
        assert _ring(nprocs) == _golden()["ring"][str(nprocs)]

    def test_traces_identical(self):
        """Span-by-span: same ranks, kinds, intervals and attributes in
        the same recording order — the dispatch sequence itself."""
        spans = _span_stream(Engine)
        assert spans
        assert _span_digest(spans) == _golden()["spans"]

    def test_span_stream_sees_tie_order(self):
        """The span golden is sensitive to dispatch order: the same ring
        under reverse-rank tie breaking records the same spans in a
        different order, and its digest misses the golden."""
        spans = _span_stream(Engine)
        reversed_ties = _span_stream(_ReverseTieEngine)
        assert sorted(map(repr, spans)) == sorted(map(repr, reversed_ties))
        golden = _golden()["spans"]
        assert _span_digest(reversed_ties)["length"] == golden["length"]
        assert _span_digest(reversed_ties) != golden


class TestWlLsmsEquivalence:
    """Makespan, finish times, group energies and ``ln_g`` of the
    WL-LSMS demo (quick mode) on each variant."""

    @pytest.mark.parametrize("variant,target", VARIANTS)
    def test_variant_equivalent(self, variant, target):
        got = _wllsms(variant, target)
        assert got == _golden()["wllsms"][f"{variant}/{target}"]


if __name__ == "__main__":
    os.makedirs(os.path.dirname(_GOLDEN), exist_ok=True)
    with open(_GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(collect(), fh, indent=1, sort_keys=True)
        fh.write("\n")
