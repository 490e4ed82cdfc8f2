"""Sync-plan fuzzer: quick sweeps inline, the full CI sweep as slow,
the must-catch case — a deliberately weakened sync plan — and the
static/dynamic cross-check: every weakened plan the fuzzer catches at
run time must also be refuted by the static verifier."""

import pytest

import repro.core.region as region
from repro.bench.listings import LISTING5_ANNOTATED
from repro.core.analysis.codes import DEADLOCK_CODES, STALE_READ_CODES
from repro.core.analysis.verify import WEAKENINGS, verify_program
from repro.core.pragma import parse_program
from repro.faults import CASE_NAMES, FUZZ_TARGETS, FaultPlan, fuzz, fuzz_one
from repro.faults.fuzz import CASES, _diff, weaken_pending_sync
from repro.faults.watchdog import Watchdog
from repro.patterns.catalog import get_pattern

QUICK_PATTERNS = ("ring", "evenodd")


class TestQuickSweep:
    @pytest.mark.parametrize("target", FUZZ_TARGETS)
    def test_patterns_survive_adversarial_timing(self, target):
        failures = fuzz(patterns=QUICK_PATTERNS, targets=(target,),
                        seeds=range(3))
        assert failures == []

    def test_halo_and_butterfly_one_seed_each_target(self):
        for pattern in ("halo2d", "butterfly"):
            for target in FUZZ_TARGETS:
                assert fuzz_one(pattern, target, 1) is None

    def test_custom_plan_replay(self):
        plan = FaultPlan(seed=4, delay_jitter=1e-4, reorder_prob=0.5,
                         drop_prob=0.2)
        assert fuzz_one("ring", "TARGET_COMM_MPI_2SIDE", 4,
                        plan=plan) is None


class TestWeakenedSyncIsCaught:
    """Acceptance: a sync plan that silently drops one receive handle
    must produce a reported failure on every lowering target."""

    @pytest.fixture()
    def weakened_sync(self, monkeypatch):
        orig = region.PendingComm.sync

        def weakened(self, env):
            if self.recvs:
                self.recvs.pop()
            return orig(self, env)

        monkeypatch.setattr(region.PendingComm, "sync", weakened)

    @pytest.mark.parametrize("target", FUZZ_TARGETS)
    def test_dropped_recv_handle_detected(self, weakened_sync, target):
        failure = fuzz_one("ring", target, 0)
        assert failure is not None
        assert failure.pattern == "ring" and failure.target == target
        assert "seed=0" in str(failure)   # replay instructions

    def test_failure_reports_the_divergent_rank(self, weakened_sync):
        failure = fuzz_one("ring", "TARGET_COMM_MPI_2SIDE", 0)
        assert "rank" in failure.detail
        assert "expected" in failure.detail and "got" in failure.detail
        # Pattern payloads are per-rank buffer dicts: the failure names
        # the buffer that diverged, not just the rank.
        assert " buffer '" in failure.detail


def test_diff_names_rank_and_buffer():
    """The one payload comparator: per-rank dicts name the buffer,
    lists name the rank, and a run that captured nothing compares."""
    assert _diff(None, None) is None
    assert _diff([{"a": [1.0]}], [{"a": [1.0]}]) is None
    assert _diff([{"a": [1.0], "b": [2.0]}],
                 [{"a": [1.0], "b": [3.0]}]) == (
        "rank 0 buffer 'b': expected [2.0], got [3.0]")
    assert _diff([[1.0], [2.0]], [[1.0], [4.0]]) == (
        "rank 1: expected [2.0], got [4.0]")
    assert _diff(None, [{"a": [1.0]}]) == (
        "expected None, got [{'a': [1.0]}]")


#: The (pattern, target, weakening) cells the seed-0 fuzz run does not
#: catch. Every other cell of the matrix must stay caught, and must
#: stay statically refuted; a cell entering or leaving this set fails
#: the cross-check. All 45 cells were caught when the matrix was pinned.
DYNAMIC_MISSES: frozenset[tuple[str, str, str]] = frozenset()

#: Codes that count as "statically refuted" for the cross-check.
_REFUTING = DEADLOCK_CODES | STALE_READ_CODES

#: A tight watchdog: a weakened plan that deadlocks dynamically should
#: fail fast, not eat the suite's time budget.
_XCHECK_WATCHDOG = Watchdog(wall_timeout=20.0, stall_events=1_000_000)


def _static_program(pattern):
    """A fuzz case's static form -> ``(Program, nprocs, extra_vars)``.

    A pattern case runs its registry text, so the verifier reads that
    text at the registry's world size and bindings. WL-LSMS quick mode
    moves the Listing-5 atom payload between the window master and a
    group member; the annotated listing is the published static form
    of that transfer."""
    if pattern == "wllsms":
        return (parse_program(LISTING5_ANNOTATED), 8,
                {"from_rank": 1, "to_rank": 0, "size1": 1024, "size2": 16})
    spec = get_pattern(pattern)
    return parse_program(spec.source), spec.nprocs, dict(spec.bindings)


@pytest.fixture(scope="module")
def dynamic_baselines():
    """Unfaulted reference results, one per (pattern, target)."""
    cache = {}

    def get(pattern, target):
        key = (pattern, target)
        if key not in cache:
            case = next(c for c in CASES if c.name == pattern)
            cache[key] = case.baseline(target, _XCHECK_WATCHDOG)
        return cache[key]

    return get


class TestStaticDynamicCrossCheck:
    """Acceptance: the verifier has no false negatives on the corpus of
    weakened sync plans the dynamic fuzzer catches — and no false
    positives on the unweakened plans."""

    @pytest.mark.parametrize("pattern", sorted(CASE_NAMES))
    @pytest.mark.parametrize("target", FUZZ_TARGETS)
    def test_unweakened_twin_verifies_clean(self, pattern, target):
        program, nprocs, extra_vars = _static_program(pattern)
        report = verify_program(program, nprocs=nprocs, target=target,
                                extra_vars=extra_vars)
        assert report.errors == [], \
            "\n".join(str(d) for d in report.errors)

    @pytest.mark.parametrize("pattern", sorted(CASE_NAMES))
    @pytest.mark.parametrize("target", FUZZ_TARGETS)
    @pytest.mark.parametrize("weakening", WEAKENINGS)
    def test_dynamically_caught_implies_statically_flagged(
            self, pattern, target, weakening, dynamic_baselines):
        baseline = dynamic_baselines(pattern, target)
        with weaken_pending_sync(weakening):
            failure = fuzz_one(pattern, target, seed=0,
                               watchdog=_XCHECK_WATCHDOG,
                               baseline=baseline)
        assert (failure is None) == (
            (pattern, target, weakening) in DYNAMIC_MISSES), (
            f"caught matrix changed at {pattern}/{target}/{weakening}: "
            f"{failure}")
        if failure is None:
            return
        program, nprocs, extra_vars = _static_program(pattern)
        report = verify_program(program, nprocs=nprocs, target=target,
                                extra_vars=extra_vars,
                                weakening=weakening)
        codes = {d.code for d in report.errors}
        assert codes & _REFUTING, (
            f"dynamic fuzzer caught {pattern} on {target} under "
            f"{weakening} ({failure.detail}), but the static verifier "
            f"reported only {sorted(codes) or 'nothing'}")


@pytest.mark.slow
class TestFullSweep:
    """The CI fuzz job's workload: >= 50 seeds per (pattern, target)."""

    @pytest.mark.parametrize("pattern", CASE_NAMES)
    def test_fifty_seeds_every_target(self, pattern):
        failures = fuzz(patterns=(pattern,), targets=FUZZ_TARGETS,
                        seeds=range(50))
        assert failures == [], "\n".join(str(f) for f in failures)
