"""Metric aggregation: overlap ratios, forfeited overlap, traffic."""

import pytest

from repro.core.analysis.progsim import simulate_program
from repro.core.clauses import Target
from repro.patterns import get_pattern
from repro.profiling.metrics import _overlap, _union, aggregate
from repro.profiling.spans import Profile
from repro.sim import comm_matrix


class TestIntervalHelpers:
    def test_union_merges_overlaps(self):
        assert _union([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == \
            [(0.0, 3.0), (5.0, 6.0)]

    def test_overlap_clips_to_union(self):
        union = [(0.0, 2.0), (5.0, 6.0)]
        assert _overlap(1.0, 5.5, union) == pytest.approx(1.5)
        assert _overlap(2.5, 4.0, union) == 0.0


class TestAggregate:
    def _profile(self):
        p = Profile()
        # Rank 0: 2us compute fully inside a 0..3us window, then 1us sync.
        p.add(0, "window", 0.0, 3e-6)
        p.add(0, "post", 0.0, 1e-7, bytes=64, sends=1, recvs=0,
              label="p2p@L3")
        p.add(0, "compute", 1e-6, 3e-6)
        p.add(0, "sync", 3e-6, 4e-6)
        # Rank 1: 2us compute entirely after its sync (no window cover).
        p.add(1, "sync", 0.0, 1e-6)
        p.add(1, "compute", 1e-6, 3e-6)
        p.add(1, "message", 0.0, 1e-6, src=0, dst=1, seq=0, nbytes=64)
        p.finish([4e-6, 3e-6])
        return p

    def test_overlap_ratio_per_rank(self):
        m = aggregate(self._profile())
        assert m.ranks[0].overlap_ratio == pytest.approx(1.0)
        assert m.ranks[1].overlap_ratio == 0.0
        assert 0.0 <= m.realized_overlap_ratio <= 1.0

    def test_forfeited_overlap_is_min_of_sync_and_exposed_compute(self):
        m = aggregate(self._profile())
        # Rank 0 overlapped everything: nothing forfeited.
        assert m.ranks[0].forfeited_overlap_s == 0.0
        # Rank 1: min(1us sync, 2us exposed compute) = 1us.
        assert m.ranks[1].forfeited_overlap_s == pytest.approx(1e-6)
        assert m.forfeited_overlap_s == pytest.approx(1e-6)

    def test_traffic_attribution(self):
        m = aggregate(self._profile())
        assert m.ranks[0].msgs_sent == 1
        assert m.ranks[1].msgs_recv == 1
        assert m.ranks[1].bytes_recv == 64
        assert m.total_bytes == 64

    def test_directive_rows(self):
        m = aggregate(self._profile())
        assert m.directives["p2p@L3"].posts == 1
        assert m.directives["p2p@L3"].bytes == 64

    def test_render_mentions_key_figures(self):
        out = aggregate(self._profile()).render()
        assert "realized overlap" in out
        assert "forfeited overlap" in out
        assert "rank" in out

    def test_empty_profile(self):
        p = Profile()
        p.finish([])
        m = aggregate(p)
        assert m.realized_overlap_ratio == 0.0
        assert m.forfeited_overlap_s == 0.0


@pytest.mark.parametrize("target", [t.value for t in Target])
@pytest.mark.parametrize("name,nprocs", [("ring", 5), ("halo1d", 6)])
def test_traffic_agrees_with_comm_matrix_and_stats(name, nprocs, target):
    """``aggregate`` counts payload only: one-sided ``notify`` spans are
    synchronization, so its totals match the communication matrix and
    the engine's counters on every target."""
    spec = get_pattern(name)
    outcome = simulate_program(spec.program(), nprocs, target=target,
                               extra_vars=spec.bindings, profile=True)
    m = aggregate(outcome.profile)
    matrix = comm_matrix(outcome.profile)
    counts = {(m.total_messages, m.total_bytes),
              (matrix.total_messages, matrix.total_bytes),
              (outcome.stats.total_messages, outcome.stats.total_bytes)}
    assert len(counts) == 1, counts
    assert sum(r.msgs_sent for r in m.ranks) == m.total_messages
    assert sum(r.bytes_sent for r in m.ranks) == m.total_bytes
