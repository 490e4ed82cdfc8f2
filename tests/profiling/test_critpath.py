"""Critical-path invariants across patterns x targets, and the
advisor cross-check the profiler exists to provide."""

import pytest

from repro.core.analysis.progsim import simulate_program
from repro.core.pragma import parse_program
from repro.patterns import get_pattern
from repro.profiling import aggregate, critical_path

TARGETS = ("TARGET_COMM_MPI_2SIDE", "TARGET_COMM_MPI_1SIDE",
           "TARGET_COMM_SHMEM")
PATTERNS = ("ring", "halo2d", "evenodd")


def _profile_pattern(name, target):
    spec = get_pattern(name)
    outcome = simulate_program(spec.program(), spec.nprocs, target=target,
                               extra_vars=spec.bindings, profile=True)
    assert outcome.profile is not None
    return outcome.profile


class TestCatalogInvariants:
    @pytest.mark.parametrize("target", TARGETS)
    @pytest.mark.parametrize("pattern", sorted(PATTERNS))
    def test_path_bounded_and_ratios_sane(self, pattern, target):
        profile = _profile_pattern(pattern, target)
        cp = critical_path(profile)
        # The charged chain can never outrun the run itself.
        assert 0.0 < cp.length_s <= profile.makespan + 1e-12
        assert cp.makespan_s == pytest.approx(profile.makespan)
        assert sum(cp.breakdown.values()) == pytest.approx(cp.length_s)
        assert all(step.charge_s >= 0.0 for step in cp.steps)
        m = aggregate(profile)
        assert 0.0 <= m.realized_overlap_ratio <= 1.0
        for rank in m.ranks:
            assert 0.0 <= rank.overlap_ratio <= 1.0
            assert rank.forfeited_overlap_s >= 0.0

    @pytest.mark.parametrize("target", TARGETS)
    def test_ring_path_crosses_ranks(self, target):
        cp = critical_path(_profile_pattern("ring", target))
        assert len(cp.steps) >= 2
        # The ring's length is communication-bound: the chain must pass
        # through the communication vocabulary, not just compute.
        assert {"sync", "message", "notify"} & set(cp.breakdown)

    def test_render(self):
        cp = critical_path(_profile_pattern("ring", TARGETS[0]))
        out = cp.render(limit=3)
        assert "critical path" in out
        assert "forfeited overlap" in out


class TestAdvisorCrossCheck:
    def test_forfeited_overlap_matches_ci101_saving(self):
        """Acceptance: on early_sync.c the *measured* forfeited overlap
        is within 10% of the advisor's CI101 *predicted* saving (same
        nprocs, target, net model)."""
        from repro.core.analysis.advisor import advise_program

        with open("examples/pragmas/slow/early_sync.c",
                  encoding="utf-8") as fh:
            program = parse_program(fh.read())
        findings = [f for f in advise_program(program, nprocs=8)
                    if f.diagnostic.code == "CI101"]
        assert findings, "advisor no longer flags early_sync.c"
        predicted = findings[0].diagnostic.saving_s

        outcome = simulate_program(program, nprocs=8,
                                   target="TARGET_COMM_MPI_2SIDE",
                                   profile=True)
        cp = critical_path(outcome.profile)
        measured = cp.forfeited_overlap_s
        assert measured == pytest.approx(predicted, rel=0.10)
        # The prediction can promise at most what the run forfeits.
        assert predicted <= measured + 1e-12
        assert cp.length_s <= outcome.modeled_time + 1e-12

    def test_hoisted_version_forfeits_nothing(self):
        """After the CI101 fix (compute inside the overlap body) the
        realized overlap is full and nothing is forfeited."""
        from repro.core.analysis.fix import fix_source

        with open("examples/pragmas/slow/early_sync.c",
                  encoding="utf-8") as fh:
            source = fh.read()
        result = fix_source(source, nprocs=8)
        assert result.changed
        outcome = simulate_program(parse_program(result.source),
                                   nprocs=8,
                                   target="TARGET_COMM_MPI_2SIDE",
                                   profile=True)
        m = aggregate(outcome.profile)
        assert m.realized_overlap_ratio == pytest.approx(1.0)
        assert m.forfeited_overlap_s == pytest.approx(0.0, abs=1e-9)
