"""Patterns: directive and raw-MPI forms agree; analysis classifies."""

import numpy as np
import pytest

from repro import mpi
from repro.core.analysis import classify_pattern, comm_graph
from repro.netmodel import zero_model
from repro.patterns import PATTERNS, get_pattern
from repro.patterns import fan, halo, pipeline
from repro.sim import Engine


def run(nprocs, fn):
    model = zero_model()
    eng = Engine(nprocs)

    def main(env):
        comm = mpi.init(env, model)
        return fn(env, comm)

    return eng.run(main)


class TestRing:
    @pytest.mark.parametrize("variant", ["directive", "mpi"])
    @pytest.mark.parametrize("size", [2, 3, 7])
    def test_both_forms_rotate(self, variant, size):
        spec = get_pattern("ring")

        def prog(env, comm):
            out = np.full(3, float(env.rank))
            inb = np.zeros(3)
            if variant == "directive":
                spec.run_directive(env, out, inb)
            else:
                spec.run_mpi(comm, out, inb)
            return inb[0]

        res = run(size, prog)
        expected = [(r - 1) % size for r in range(size)]
        assert res.values == [float(e) for e in expected]


class TestEvenOdd:
    @pytest.mark.parametrize("variant", ["directive", "mpi"])
    @pytest.mark.parametrize("size", [2, 4, 5])
    def test_both_forms(self, variant, size):
        spec = get_pattern("evenodd")

        def prog(env, comm):
            out = np.full(2, float(env.rank * 10))
            inb = np.zeros(2)
            if variant == "directive":
                spec.run_directive(env, out, inb)
            else:
                spec.run_mpi(comm, out, inb)
            return inb[0]

        res = run(size, prog)
        for r in range(size):
            if r % 2 == 1:
                assert res.values[r] == (r - 1) * 10.0
            else:
                assert res.values[r] == 0.0


class TestHalo:
    @pytest.mark.parametrize("variant", ["directive", "mpi"])
    def test_neighbours_exchanged(self, variant):
        def prog(env, comm):
            interior = np.arange(8.0) + 100 * env.rank
            left = np.zeros(2)
            right = np.zeros(2)
            if variant == "directive":
                halo.run_directive(env, interior, left, right)
            else:
                halo.run_mpi(comm, interior, left, right)
            return (left.tolist(), right.tolist())

        res = run(3, prog)
        # rank 1: left halo = rank 0's last two, right = rank 2's first two
        assert res.values[1] == ([6.0, 7.0], [200.0, 201.0])
        # boundaries untouched
        assert res.values[0][0] == [0.0, 0.0]
        assert res.values[2][1] == [0.0, 0.0]

    def test_directive_consolidates_sync(self):
        model = zero_model()
        eng = Engine(3)

        def main(env):
            comm = mpi.init(env, model)
            interior = np.arange(8.0)
            halo.run_directive(env, interior, np.zeros(2), np.zeros(2))

        eng.run(main)
        # One waitall per rank, instead of up to 4 waits each.
        assert eng.stats.sync_calls["waitall"] == 3
        assert eng.stats.sync_calls["wait"] == 0


class TestPipeline:
    @pytest.mark.parametrize("variant", ["directive", "mpi"])
    def test_chain_forwarding(self, variant):
        def prog(env, comm):
            out = np.arange(5.0) + 10 * env.rank
            inb = np.zeros(5)
            if variant == "directive":
                pipeline.run_directive(env, out, inb)
            else:
                pipeline.run_mpi(comm, out, inb)
            return inb.tolist()

        res = run(3, prog)
        assert res.values[1] == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert res.values[2] == [10.0, 11.0, 12.0, 13.0, 14.0]
        assert res.values[0] == [0.0] * 5


class TestFan:
    @pytest.mark.parametrize("variant", ["directive", "mpi"])
    def test_fanout(self, variant):
        def prog(env, comm):
            data = (np.arange(float(env.size * 2)).reshape(env.size, 2)
                    if env.rank == 1 else None)
            mine = np.zeros(2)
            if variant == "directive":
                fan.run_fanout_directive(env, 1, data, mine)
            else:
                fan.run_fanout_mpi(comm, 1, data, mine)
            return mine.tolist()

        res = run(4, prog)
        for r in range(4):
            assert res.values[r] == [2.0 * r, 2.0 * r + 1]

    @pytest.mark.parametrize("variant", ["directive", "mpi"])
    def test_fanin(self, variant):
        def prog(env, comm):
            mine = np.full(2, float(env.rank + 1))
            collected = np.zeros((env.size, 2)) if env.rank == 0 else None
            if variant == "directive":
                fan.run_fanin_directive(env, 0, mine, collected)
            else:
                fan.run_fanin_mpi(comm, 0, mine, collected)
            return collected[:, 0].tolist() if env.rank == 0 else None

        res = run(3, prog)
        assert res.values[0] == [1.0, 2.0, 3.0]


class TestCatalogAnalysis:
    def test_all_patterns_registered(self):
        assert set(PATTERNS) == {"ring", "evenodd", "halo1d", "pipeline",
                                 "fanout", "fanin", "halo2d",
                                 "butterfly"}

    def test_unknown_pattern_rejected(self):
        with pytest.raises(KeyError, match="available"):
            get_pattern("torus")

    @pytest.mark.parametrize("name,expected", [
        ("ring", "ring"),
        ("evenodd", "pairwise"),
        ("halo1d", "shift"),
        ("pipeline", "shift"),
    ])
    def test_dataflow_classification(self, name, expected):
        spec = get_pattern(name)
        g = comm_graph(spec.clauses(), nprocs=8, extra_vars={"n": 4})
        assert classify_pattern(g) == expected

    def test_fan_classification_with_vars(self):
        spec = get_pattern("fanout")
        g = comm_graph(spec.clauses(), nprocs=spec.nprocs,
                       extra_vars=spec.bindings)
        # The first (root, peer) instance: one edge.
        assert g.edges == [(0, 1)]
