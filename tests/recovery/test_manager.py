"""The recovery loop: shrink/respawn, checkpoint restart, structured
failures, stats folding and profile stitching."""

import numpy as np
import pytest

from repro import mpi
from repro.core import comm_p2p
from repro.errors import RankFailedError
from repro.faults import FaultPlan, RankCrash, Watchdog
from repro.faults.fuzz import FUZZ_TARGETS
from repro.netmodel import gemini_model
from repro.patterns.catalog import get_pattern, power_of_two
from repro.profiling.chrome import chrome_trace
from repro.recovery import (
    RESPAWN,
    SHRINK,
    RecoveryConfig,
    RecoveryError,
    register_state,
    restore,
    run_with_recovery,
)
from repro.sim import Engine

_MODEL = gemini_model()
_WD = Watchdog(wall_timeout=60.0, stall_events=1_000_000)


def _ring_main(target):
    return get_pattern("ring").main(target)


ITERS = 5


def _iter_main(env):
    """Iterative accumulating ring, checkpointed every iteration.

    Cut ``k`` snapshots {acc pre-update, inb received} at iteration
    ``k``'s sync boundary, so a restore applies the pending update and
    resumes at ``k + 1``.
    """
    mpi.init(env, _MODEL)
    prev = (env.rank - 1 + env.size) % env.size
    nxt = (env.rank + 1) % env.size
    acc = np.zeros(4)
    start = 0
    cp = restore(env)
    if cp is not None:
        acc[:] = cp.state["acc"] + cp.state["inb"]
        start = cp.cut + 1
    register_state(env, acc=acc)
    for it in range(start, ITERS):
        out = acc + (env.rank + 1) * (it + 1)
        inb = np.zeros(4)
        register_state(env, inb=inb)
        with comm_p2p(env, sender=prev, receiver=nxt, sbuf=out, rbuf=inb):
            pass
        acc += inb
    return acc.tolist()


class TestPolicies:
    @pytest.mark.parametrize("target", FUZZ_TARGETS)
    @pytest.mark.parametrize("policy", [SHRINK, RESPAWN])
    def test_ring_crash_recovers_bit_exact(self, target, policy):
        """Acceptance: a crashed ring completes under either policy on
        every lowering target, with payloads bit-exact against the
        unfaulted baseline at the final world size."""
        plan = FaultPlan(seed=3, drop_prob=0.2,
                         crashes=(RankCrash(rank=2, at=0.0),))
        res = run_with_recovery(
            _ring_main(target), 5, faults=plan,
            config=RecoveryConfig(policy=policy), watchdog=_WD)
        world = res.recovery.final_world
        assert world == (4 if policy == SHRINK else 5)
        base = Engine(world).run(_ring_main(target)).values
        assert res.values == base
        assert res.recovery.restarts == 1
        assert res.stats.failures_detected >= 1

    def test_shrink_respects_pattern_validity(self):
        """Butterfly's power-of-two constraint (from the catalog) makes
        shrink fall 4 -> 2, not 4 -> 3."""
        main = get_pattern("butterfly").main("TARGET_COMM_MPI_2SIDE")
        assert get_pattern("butterfly").valid_world is power_of_two
        plan = FaultPlan(seed=1, crashes=(RankCrash(rank=1, at=0.0),))
        cfg = RecoveryConfig(policy=SHRINK, valid_world=power_of_two)
        res = run_with_recovery(main, 4, faults=plan, config=cfg,
                                watchdog=_WD)
        assert res.recovery.final_world == 2
        assert res.values == Engine(2).run(main).values

    def test_shrink_below_min_world_gives_up(self):
        plan = FaultPlan(seed=0, crashes=(RankCrash(rank=1, at=0.0),))
        cfg = RecoveryConfig(policy=SHRINK, min_world=2)
        with pytest.raises(RecoveryError):
            run_with_recovery(_ring_main("TARGET_COMM_MPI_2SIDE"), 2,
                              faults=plan, config=cfg, watchdog=_WD)

    def test_max_recoveries_zero_reraises(self):
        plan = FaultPlan(seed=0, crashes=(RankCrash(rank=1, at=0.0),))
        cfg = RecoveryConfig(max_recoveries=0)
        with pytest.raises(RecoveryError) as ei:
            run_with_recovery(_ring_main("TARGET_COMM_MPI_2SIDE"), 3,
                              faults=plan, config=cfg, watchdog=_WD)
        assert isinstance(ei.value.__cause__, RankFailedError)

    def test_double_crash_takes_two_episodes(self):
        ref = Engine(4).run(_iter_main)
        plan = FaultPlan(seed=9, crashes=(
            RankCrash(rank=1, at=ref.makespan * 0.3),
            RankCrash(rank=3, at=ref.makespan * 0.6)))
        res = run_with_recovery(_iter_main, 4, faults=plan,
                                config=RecoveryConfig(policy=RESPAWN),
                                watchdog=_WD)
        assert res.values == ref.values
        assert len(res.recovery.episodes) == 2
        assert res.recovery.restarts == 2

    def test_degraded_completion_is_recovered_too(self):
        """A crash nobody touches lets the attempt finish degraded; the
        manager still recovers so the caller gets the full answer."""
        def main(env):
            mpi.init(env, _MODEL)
            if env.rank == 2:
                env.compute(1e-6)
                return "lonely"
            peer = 1 - env.rank if env.rank < 2 else env.rank
            out = np.full(2, float(env.rank))
            inb = np.zeros(2)
            with comm_p2p(env, sender=peer, receiver=peer,
                          sendwhen=env.rank < 2, receivewhen=env.rank < 2,
                          sbuf=out, rbuf=inb):
                pass
            return inb.tolist()

        plan = FaultPlan(seed=0, crashes=(RankCrash(rank=2, at=0.0),))
        res = run_with_recovery(main, 3, faults=plan,
                                config=RecoveryConfig(policy=RESPAWN),
                                watchdog=_WD)
        assert res.values[2] == "lonely"
        assert res.recovery.restarts == 1
        assert not res.degraded


class TestCheckpointRestart:
    def test_respawn_restores_consistent_cut(self):
        ref = Engine(4).run(_iter_main)
        plan = FaultPlan(seed=7,
                         crashes=(RankCrash(rank=2, at=ref.makespan / 2),))
        res = run_with_recovery(_iter_main, 4, faults=plan,
                                config=RecoveryConfig(policy=RESPAWN),
                                watchdog=_WD, profile=True)
        assert res.values == ref.values
        episode = res.recovery.episodes[0]
        assert episode.restore_cut >= 0
        assert episode.restore_time > 0.0
        assert res.stats.checkpoints_taken > 0
        # every surviving rank emitted a restore mark on the restart
        assert len(res.profile.of_kind("restore")) == 4

    def test_checkpoints_disabled_restarts_from_scratch(self):
        ref = Engine(4).run(_iter_main)
        plan = FaultPlan(seed=7,
                         crashes=(RankCrash(rank=2, at=ref.makespan / 2),))
        cfg = RecoveryConfig(policy=RESPAWN, checkpoint=False)
        res = run_with_recovery(_iter_main, 4, faults=plan, config=cfg,
                                watchdog=_WD)
        assert res.values == ref.values
        assert res.recovery.episodes[0].restore_cut == -1
        assert res.stats.checkpoints_taken == 0

    def test_shrink_clears_old_world_cuts(self):
        ref = Engine(4).run(_iter_main)
        # Crashes fire at dispatch boundaries; 0.3x the rank's finish
        # time reliably lands before its last dispatch.
        plan = FaultPlan(seed=5, crashes=(
            RankCrash(rank=1, at=ref.finish_times[1] * 0.3),))
        res = run_with_recovery(_iter_main, 4, faults=plan,
                                config=RecoveryConfig(policy=SHRINK),
                                watchdog=_WD)
        assert res.recovery.episodes[0].restore_cut == -1
        assert res.values == Engine(3).run(_iter_main).values


class TestStructuredFailure:
    def test_rank_failed_error_carries_structured_fields(self):
        def main(env):
            comm = mpi.init(env, _MODEL)
            if env.rank == 0:
                env.compute(1.0)
                comm.Send(np.zeros(2), dest=1)
            return None

        plan = FaultPlan(seed=0, crashes=(RankCrash(rank=1, at=0.0),))
        with pytest.raises(RankFailedError) as ei:
            Engine(2, faults=plan).run(main)
        err = ei.value
        assert err.failed_rank == 1
        assert err.failure_time is not None and err.failure_time >= 0.0
        assert err.detected_by == 0

    def test_quiescence_failure_has_no_detector(self):
        def main(env):
            comm = mpi.init(env, _MODEL)
            if env.rank == 0:
                comm.Recv(np.zeros(2), source=1)
            return None

        plan = FaultPlan(seed=0, crashes=(RankCrash(rank=1, at=0.0),))
        with pytest.raises(RankFailedError) as ei:
            Engine(2, faults=plan).run(main)
        assert ei.value.failed_rank == 1
        assert ei.value.detected_by is None

    def test_degraded_result_reports_failures(self):
        def main(env):
            mpi.init(env, _MODEL)
            env.compute(1e-6)
            return env.rank

        plan = FaultPlan(seed=0, crashes=(RankCrash(rank=1, at=0.0),))
        res = Engine(3, faults=plan).run(main)
        assert res.degraded
        assert [ev.rank for ev in res.failures] == [1]
        report = res.failure_report()
        assert "rank 1 failed" in report
        assert "2 of 3 ranks finished" in report
        assert "failed_ranks=[1]" in repr(res)


class TestStatsAndProfile:
    def test_counters_fold_across_attempts(self):
        plan = FaultPlan(seed=3, drop_prob=0.3,
                         crashes=(RankCrash(rank=2, at=0.0),))
        res = run_with_recovery(_ring_main("TARGET_COMM_MPI_2SIDE"), 5,
                                faults=plan,
                                config=RecoveryConfig(policy=RESPAWN),
                                watchdog=_WD)
        stats, rstats = res.stats, res.recovery
        assert stats.retries == rstats.retries > 0
        assert stats.restarts == rstats.restarts == 1
        assert stats.failures_detected == rstats.failures_detected >= 1
        assert stats.recovery_wall_s == rstats.recovery_wall_s > 0.0
        for token in ("retries=", "restarts=1", "failures_detected="):
            assert token in stats.summary()

    def test_stitched_profile_and_chrome_export(self):
        """The merged profile spans all attempts on one timeline with a
        recovery bridge, and survives Chrome export."""
        plan = FaultPlan(seed=3, drop_prob=0.2,
                         crashes=(RankCrash(rank=2, at=0.0),))
        res = run_with_recovery(_ring_main("TARGET_COMM_MPI_2SIDE"), 5,
                                faults=plan,
                                config=RecoveryConfig(policy=RESPAWN),
                                watchdog=_WD, profile=True)
        prof = res.profile
        bridges = prof.of_kind("recovery")
        assert len(bridges) == 1
        assert bridges[0].attrs["policy"] == RESPAWN
        assert bridges[0].attrs["failed_ranks"] == (2,)
        # attempts are ordered on the stitched timeline
        attempts = {s.attrs.get("attempt") for s in prof
                    if s.kind != "recovery"}
        assert attempts == {0, 1}
        end_of_0 = max(s.t1 for s in prof
                       if s.attrs.get("attempt") == 0)
        start_of_1 = min(s.t0 for s in prof
                         if s.attrs.get("attempt") == 1)
        assert start_of_1 >= end_of_0
        assert prof.of_kind("detect")
        assert prof.of_kind("retry")
        # Chrome export renders recovery kinds without falling through
        trace = chrome_trace(prof)
        names = {e.get("name") for e in trace["traceEvents"]}
        assert "recovery" in names and "crash" in names
        cats = {e.get("cat") for e in trace["traceEvents"]}
        assert {"detect", "retry", "recovery"} <= cats

    def test_faultplan_required_not_injector(self):
        compiled = FaultPlan(seed=0).compile()
        with pytest.raises(RecoveryError):
            run_with_recovery(_ring_main("TARGET_COMM_MPI_2SIDE"), 3,
                              faults=compiled)
