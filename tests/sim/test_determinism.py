"""Scheduler-equivalence regression: heap engine vs the seed engine.

The heap ready queue and direct baton handoff must not change *any*
observable of a run — dispatch order, span streams, virtual completion
times — only host wall-clock. These tests pin that equivalence on a
message-heavy synthetic workload and on the paper's WL-LSMS
application (quick mode), so a future scheduler change that perturbs
the deterministic ``(virtual time, rank)`` order fails loudly.
"""

import heapq

import numpy as np
import pytest

from repro import mpi
from repro.apps.wllsms import AppConfig, run_app
from repro.netmodel import gemini_model
from repro.sim import Engine, SeedEngine
from repro.sim.engine import ProcState

_MODEL = gemini_model()


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


def _span_stream(engine_cls, nprocs=8):
    """The ordered ``(rank, kind, t0, t1, attrs)`` spans of one ring run."""
    res = engine_cls(nprocs, profile=True).run(_ring_main)
    return [(s.rank, s.kind, s.t0, s.t1, s.attrs) for s in res.profile]


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


class TestRingEquivalence:
    @pytest.mark.parametrize("nprocs", [2, 5, 16])
    def test_results_identical(self, nprocs):
        new = Engine(nprocs).run(_ring_main)
        old = SeedEngine(nprocs).run(_ring_main)
        assert new.values == old.values
        assert new.finish_times == old.finish_times
        assert new.makespan == old.makespan

    def test_traces_identical(self):
        """Span-by-span: same ranks, kinds, intervals and attributes in
        the same recording order — the dispatch sequence itself is
        unchanged."""
        new = _span_stream(Engine)
        assert new
        assert new == _span_stream(SeedEngine)

    def test_span_stream_sees_tie_order(self):
        """The comparison above is sensitive to dispatch order: the
        same ring under reverse-rank tie breaking records the same
        spans in a different order."""
        new = _span_stream(Engine)
        reversed_ties = _span_stream(_ReverseTieEngine)
        assert sorted(map(repr, new)) == sorted(map(repr, reversed_ties))
        assert new != reversed_ties


class TestWlLsmsEquivalence:
    """Acceptance criterion: identical makespan and finish times for
    the WL-LSMS demo (quick mode) before and after the change."""

    QUICK = dict(n_lsms=2, group_size=4, t=32, tc=4, wl_steps=2,
                 model=gemini_model())

    @pytest.mark.parametrize("variant,target", [
        ("original", "TARGET_COMM_MPI_2SIDE"),
        ("waitall", "TARGET_COMM_MPI_2SIDE"),
        ("directive", "TARGET_COMM_MPI_2SIDE"),
        ("directive", "TARGET_COMM_SHMEM"),
    ])
    def test_variant_equivalent(self, variant, target):
        cfg = AppConfig(variant=variant, target=target, **self.QUICK)
        new = run_app(cfg, engine_cls=Engine)
        old = run_app(cfg, engine_cls=SeedEngine)
        assert new.makespan == old.makespan
        assert new.finish_times == old.finish_times
        assert new.group_energies == old.group_energies
        assert np.array_equal(new.wang_landau.ln_g, old.wang_landau.ln_g)
