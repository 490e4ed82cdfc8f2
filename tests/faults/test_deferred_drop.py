"""Drop + retransmission under deferred-delivery mode, per target.

Satellite regression for the recovery transport: heavy message loss
must never corrupt data on any lowering target, whether the flat legacy
retransmit model or the recovery runtime's bounded-retry policies pay
for the resends — and deferred delivery (payloads land only at the
guaranteeing sync) must compose with both.
"""

import pytest

from repro.faults import FaultPlan, Watchdog
from repro.faults.fuzz import FUZZ_TARGETS
from repro.patterns import get_pattern
from repro.recovery import RecoveryConfig, RetryPolicy, run_with_recovery
from repro.sim import Engine

_WD = Watchdog(wall_timeout=60.0, stall_events=1_000_000)

#: Aggressive loss: most messages drop at least once.
_DROPPY = dict(seed=11, drop_prob=0.6, max_retransmits=5,
               deferred_delivery=True)


def _main(name, target):
    """The registry pattern's text as a per-rank main on ``target``."""
    return get_pattern(name).main(target)


@pytest.mark.parametrize("target", FUZZ_TARGETS)
class TestLegacyRetransmit:
    def test_ring_bit_exact_under_heavy_drop(self, target):
        base = Engine(5).run(_main("ring", target)).values
        eng = Engine(5, faults=FaultPlan(**_DROPPY), watchdog=_WD)
        res = eng.run(_main("ring", target))
        assert res.values == base
        assert eng.stats.faults["drop"] > 0
        # without a recovery context the retries counter stays legacy-off
        assert eng.stats.retries == 0

    def test_halo2d_bit_exact_under_heavy_drop(self, target):
        base = Engine(6).run(_main("halo2d", target)).values
        eng = Engine(6, faults=FaultPlan(**_DROPPY), watchdog=_WD)
        res = eng.run(_main("halo2d", target))
        assert res.values == base


@pytest.mark.parametrize("target", FUZZ_TARGETS)
class TestRetryPolicyTransport:
    def test_ring_retries_are_counted_and_bounded(self, target):
        base = Engine(5).run(_main("ring", target)).values
        policy = RetryPolicy(max_retries=6, backoff=2.0)
        cfg = RecoveryConfig(retry=policy)
        res = run_with_recovery(_main("ring", target), 5,
                                faults=FaultPlan(**_DROPPY), config=cfg,
                                watchdog=_WD, profile=True)
        assert res.values == base
        assert res.recovery.restarts == 0     # drops alone never abort
        assert res.stats.retries > 0
        retry_spans = res.profile.of_kind("retry")
        assert len(retry_spans) == res.stats.retries
        assert all(s.attrs["attempt"] < policy.max_retries
                   for s in retry_spans)

    def test_retry_spans_name_the_transport(self, target):
        cfg = RecoveryConfig(retry=RetryPolicy(max_retries=6))
        res = run_with_recovery(_main("ring", target), 5,
                                faults=FaultPlan(**_DROPPY), config=cfg,
                                watchdog=_WD, profile=True)
        kinds = {s.attrs["transport"] for s in res.profile.of_kind("retry")}
        expected = {"TARGET_COMM_MPI_2SIDE": "mpi2s",
                    "TARGET_COMM_MPI_1SIDE": "mpi1s",
                    "TARGET_COMM_SHMEM": "shmem"}[target]
        assert kinds == {expected}

    def test_backoff_slows_the_run_monotonically(self, target):
        """A harsher backoff can only delay delivery, never corrupt it."""
        gentle = RecoveryConfig(retry=RetryPolicy(
            max_retries=6, backoff=1.0, jitter_frac=0.0))
        harsh = RecoveryConfig(retry=RetryPolicy(
            max_retries=6, backoff=4.0, jitter_frac=0.0))
        r_gentle = run_with_recovery(_main("ring", target), 5,
                                     faults=FaultPlan(**_DROPPY),
                                     config=gentle, watchdog=_WD)
        r_harsh = run_with_recovery(_main("ring", target), 5,
                                    faults=FaultPlan(**_DROPPY),
                                    config=harsh, watchdog=_WD)
        assert r_gentle.values == r_harsh.values
        assert r_harsh.makespan >= r_gentle.makespan
