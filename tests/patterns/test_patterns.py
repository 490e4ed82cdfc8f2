"""Patterns: the registry text, lowered to every target, and the
hand-written MPI form deliver the same data; analysis classifies."""

import numpy as np
import pytest

from repro.core.analysis import classify_pattern, comm_graph
from repro.patterns import PATTERNS, get_pattern
from tests.patterns._forms import (
    SYNC_KIND,
    TARGETS,
    hand_written,
    payloads,
    run_mpi_form,
    run_text,
    seeded,
)

#: ``"directive"`` runs the registry text on every target, ``"mpi"``
#: the hand-written form on the text's buffers.
VARIANTS = ["directive", "mpi"]


def _zeros(n):
    return [0.0] * n


def _first(value, n):
    return seeded(n, value).tolist()


class TestRing:
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("size", [2, 3, 7])
    def test_both_forms_rotate(self, variant, size):
        for run in payloads("ring", size, variant):
            # Each rank receives its predecessor's seed, rank + 1.
            assert [p["inb"] for p in run] == \
                [_first((r - 1) % size + 1.0, 8) for r in range(size)]


class TestEvenOdd:
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("size", [2, 4, 5])
    def test_both_forms(self, variant, size):
        for run in payloads("evenodd", size, variant):
            for r in range(size):
                if r % 2 == 1:
                    assert run[r]["inb"] == _first(float(r), 6)
                else:
                    assert run[r]["inb"] == _zeros(6)


class TestHalo:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_neighbours_exchanged(self, variant):
        for run in payloads("halo1d", 3, variant):
            # rank 1: left halo = rank 0's right edge, right halo = rank
            # 2's left edge
            assert (run[1]["left_halo"], run[1]["right_halo"]) == \
                (_first(1.0, 8), _first(103.0, 8))
            # boundaries untouched
            assert run[0]["left_halo"] == _zeros(8)
            assert run[2]["right_halo"] == _zeros(8)

    def test_directive_consolidates_sync(self):
        spec = get_pattern("halo1d")
        for target in TARGETS:
            stats = run_text(spec.source, 3, target).stats
            # One consolidated sync per rank, instead of up to 4 waits.
            assert stats.sync_calls == {SYNC_KIND[target]: 3}, target


class TestPipeline:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_chain_forwarding(self, variant):
        for run in payloads("pipeline", 3, variant):
            received = [[run[r][f"in{p}"][0] for p in range(4)]
                        for r in range(3)]
            assert received[1] == [1.0, 101.0, 201.0, 301.0]
            assert received[2] == [2.0, 102.0, 202.0, 302.0]
            assert received[0] == [0.0] * 4


class TestFan:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_fanout(self, variant):
        for run in payloads("fanout", 4, variant):
            # Root 0 sends row k (seeded k) to peer k; peer 4 is absent.
            for r in range(4):
                for k in range(1, 5):
                    assert run[r][f"got{k}"] == (
                        _first(float(k), 4) if r == k else _zeros(4))

    def test_fanout_mpi_from_any_root(self):
        # The text's root is 0; the hand-written form takes any root.
        def prog(comm):
            data = (np.arange(8.0).reshape(4, 2) if comm.rank == 1
                    else None)
            mine = np.zeros(2)
            hand_written("fanout")(comm, 1, data, mine)
            return mine.tolist()

        res, _ = run_mpi_form(4, prog)
        assert res.values == [[2.0 * r, 2.0 * r + 1] for r in range(4)]

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_fanin(self, variant):
        for run in payloads("fanin", 3, variant):
            assert [run[0][f"col{k}"][0] for k in range(1, 5)] == \
                [2.0, 3.0, 0.0, 0.0]


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
