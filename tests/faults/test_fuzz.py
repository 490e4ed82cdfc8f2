"""The registry texts through the one differential harness: quick
oracle sweeps inline, the full CI sweep as slow, the must-catch case —
a deliberately weakened sync plan — and the static/dynamic
cross-check: every weakened plan the fuzzer catches at run time must
also be refuted by the static verifier."""

import pytest

import repro.core.region as region
from repro.bench.listings import LISTING5_ANNOTATED
from repro.core.analysis.codes import DEADLOCK_CODES, STALE_READ_CODES
from repro.core.analysis.progsim import simulate_program
from repro.core.analysis.verify import WEAKENINGS, verify_program
from repro.core.clauses import Target
from repro.core.pragma import parse_program
from repro.faults import FUZZ_TARGETS, FaultPlan, fuzz_program, fuzz_wllsms
from repro.faults.fuzz import _diff, _run_wllsms, weaken_pending_sync
from repro.faults.watchdog import Watchdog
from repro.gen.oracle import OracleConfig, check_program
from repro.patterns import PATTERNS, get_pattern
from tests.patterns._forms import registry_program

#: Every registry pattern, by name.
REGISTRY = tuple(PATTERNS)


def fuzz_text(name, target, seeds, **kwargs):
    """``fuzz_program`` over the registry text of ``name`` at its
    registry world size and bindings."""
    spec = get_pattern(name)
    return fuzz_program(spec.program(), spec.nprocs, target=target,
                        seeds=seeds, extra_vars=spec.bindings, name=name,
                        **kwargs)


def run_payloads(name, target, faults=None):
    """Per-rank payloads of one run of the registry text of ``name``."""
    spec = get_pattern(name)
    return simulate_program(spec.program(), spec.nprocs, target=target,
                            extra_vars=spec.bindings, capture=True,
                            faults=faults).payloads


class TestQuickSweep:
    @pytest.mark.parametrize("target", FUZZ_TARGETS)
    def test_patterns_survive_adversarial_timing(self, target):
        config = OracleConfig(targets=(Target(target),), fuzz_seeds=3)
        for name in REGISTRY:
            result = check_program(registry_program(name), config)
            assert result.ok, [str(d) for d in result.disagreements]
            assert result.dynamic == {target: "ok"}, name

    def test_custom_plan_replay(self):
        plan = FaultPlan(seed=4, delay_jitter=1e-4, reorder_prob=0.5,
                         drop_prob=0.2)
        assert (run_payloads("ring", "TARGET_COMM_MPI_2SIDE", plan)
                == run_payloads("ring", "TARGET_COMM_MPI_2SIDE"))


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
        [failure] = fuzz_text("ring", target, [0])
        assert failure.pattern == "ring" and failure.target == target
        assert "seeds=[0]" in str(failure)   # replay instructions

    def test_failure_reports_the_divergent_rank(self, weakened_sync):
        [failure] = fuzz_text("ring", "TARGET_COMM_MPI_2SIDE", [0])
        assert "rank" in failure.detail
        assert "expected" in failure.detail and "got" in failure.detail
        # Pattern payloads are per-rank buffer dicts: the failure names
        # the buffer that diverged, not just the rank.
        assert " buffer '" in failure.detail

    def test_oracle_replay_hint_reruns_the_failure(self, weakened_sync):
        """The replay call a schedule-divergence detail prints exists
        and reproduces that detail; ``program`` in it is the parsed
        source the oracle checked."""
        gp = registry_program("ring")
        result = check_program(gp, OracleConfig(
            targets=(Target.SHMEM,), fuzz_seeds=2))
        details = [d.detail for d in result.disagreements
                   if d.kind == "schedule-divergence"]
        assert len(details) == 2
        for detail in details:
            hint = detail.split("\n  replay: ")[1]
            rerun = eval(hint, {"fuzz_program": fuzz_program,
                                "program": parse_program(gp.source)})
            assert [str(f) for f in rerun] == [detail]


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
#: the cross-check. All 81 cells were caught when the matrix was pinned.
DYNAMIC_MISSES: frozenset[tuple[str, str, str]] = frozenset()

#: Codes that count as "statically refuted" for the cross-check.
_REFUTING = DEADLOCK_CODES | STALE_READ_CODES

#: A tight watchdog: a weakened WL-LSMS plan that deadlocks dynamically
#: should fail fast, not eat the suite's time budget.
_XCHECK_WATCHDOG = Watchdog(wall_timeout=20.0, stall_events=1_000_000)

#: The registry texts, then the application.
CROSS_CHECKED = (*REGISTRY, "wllsms")


def _static_program(pattern):
    """A fuzz case's static form -> ``(Program, nprocs, extra_vars)``.

    A registry pattern is its text, read at the registry's world size
    and bindings. WL-LSMS quick mode moves the Listing-5 atom payload
    between the window master and a group member; the annotated listing
    is the published static form of that transfer."""
    if pattern == "wllsms":
        return (parse_program(LISTING5_ANNOTATED), 8,
                {"from_rank": 1, "to_rank": 0, "size1": 1024, "size2": 16})
    spec = get_pattern(pattern)
    return spec.program(), spec.nprocs, dict(spec.bindings)


@pytest.fixture(scope="module")
def dynamic_baselines():
    """Unfaulted, unweakened reference results, one per (pattern,
    target)."""
    cache = {}

    def get(pattern, target):
        key = (pattern, target)
        if key not in cache:
            cache[key] = (_run_wllsms(target, None, _XCHECK_WATCHDOG)
                          if pattern == "wllsms"
                          else run_payloads(pattern, target))
        return cache[key]

    return get


def _seed0_detail(pattern, target, baseline):
    """The seed-0 jittered run's divergence from ``baseline``, or None.
    The caller holds the weakening; the baseline predates it."""
    if pattern != "wllsms":
        failures = fuzz_text(pattern, target, [0], baseline=baseline)
        return failures[0].detail if failures else None
    try:
        got = _run_wllsms(target, FaultPlan.jitter(0), _XCHECK_WATCHDOG)
    except Exception as exc:
        return f"raised {type(exc).__name__}: {exc}"
    return _diff(baseline, got)


class TestStaticDynamicCrossCheck:
    """Acceptance: the verifier has no false negatives on the corpus of
    weakened sync plans the dynamic fuzzer catches — and no false
    positives on the unweakened plans."""

    @pytest.mark.parametrize("pattern", sorted(CROSS_CHECKED))
    @pytest.mark.parametrize("target", FUZZ_TARGETS)
    def test_unweakened_twin_verifies_clean(self, pattern, target):
        program, nprocs, extra_vars = _static_program(pattern)
        report = verify_program(program, nprocs=nprocs, target=target,
                                extra_vars=extra_vars)
        assert report.errors == [], \
            "\n".join(str(d) for d in report.errors)

    @pytest.mark.parametrize("pattern", sorted(CROSS_CHECKED))
    @pytest.mark.parametrize("target", FUZZ_TARGETS)
    @pytest.mark.parametrize("weakening", WEAKENINGS)
    def test_dynamically_caught_implies_statically_flagged(
            self, pattern, target, weakening, dynamic_baselines):
        baseline = dynamic_baselines(pattern, target)
        with weaken_pending_sync(weakening):
            detail = _seed0_detail(pattern, target, baseline)
        assert (detail is None) == (
            (pattern, target, weakening) in DYNAMIC_MISSES), (
            f"caught matrix changed at {pattern}/{target}/{weakening}: "
            f"{detail}")
        if detail is None:
            return
        program, nprocs, extra_vars = _static_program(pattern)
        report = verify_program(program, nprocs=nprocs, target=target,
                                extra_vars=extra_vars,
                                weakening=weakening)
        codes = {d.code for d in report.errors}
        assert codes & _REFUTING, (
            f"dynamic fuzzer caught {pattern} on {target} under "
            f"{weakening} ({detail}), but the static verifier "
            f"reported only {sorted(codes) or 'nothing'}")


@pytest.mark.slow
class TestFullSweep:
    """The CI fuzz job's workload: per (pattern, target), 50 oracle fuzz
    seeds and 25 sanitized seeds; WL-LSMS likewise."""

    @pytest.mark.parametrize("pattern", REGISTRY)
    def test_oracle_fifty_seeds_every_target(self, pattern):
        result = check_program(registry_program(pattern),
                               OracleConfig(fuzz_seeds=50, fix_check=True))
        assert result.ok, "\n".join(str(d) for d in result.disagreements)
        assert set(result.dynamic.values()) == {"ok"}

    @pytest.mark.parametrize("pattern", REGISTRY)
    def test_sanitized_seeds_every_target(self, pattern):
        for target in FUZZ_TARGETS:
            tally = {}
            failures = fuzz_text(pattern, target, range(25),
                                 sanitize=True, tally=tally)
            assert failures == [], "\n".join(str(f) for f in failures)
            # A sanitized sweep is only evidence if the sanitizer
            # actually compared access pairs.
            assert tally["runs"] == 26
            assert tally["sanitizer_checks"] > 0

    @pytest.mark.parametrize("target", FUZZ_TARGETS)
    def test_wllsms_every_seed(self, target):
        failures = fuzz_wllsms(target, range(50))
        assert failures == [], "\n".join(str(f) for f in failures)
        tally = {}
        failures = fuzz_wllsms(target, range(25), sanitize=True,
                               tally=tally)
        assert failures == [], "\n".join(str(f) for f in failures)
        assert tally["sanitizer_checks"] > 0
