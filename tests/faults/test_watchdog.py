"""Progress watchdog: wall-clock hangs and virtual-time livelock."""

import threading

import numpy as np
import pytest

from repro import mpi
from repro.errors import RankFailedError, SimHangError
from repro.faults import FaultPlan, RankCrash, Watchdog
from repro.netmodel import gemini_model
from repro.sim import Engine


class TestConfig:
    def test_limits_must_be_positive(self):
        with pytest.raises(ValueError):
            Watchdog(wall_timeout=0.0)
        with pytest.raises(ValueError):
            Watchdog(stall_events=0)

    def test_none_disables_a_check(self):
        wd = Watchdog(wall_timeout=None, stall_events=None)
        assert wd.wall_timeout is None and wd.stall_events is None


class TestWallHang:
    def test_wedged_host_thread_is_reported(self):
        """A rank stuck outside the engine's control (here: waiting on
        an Event nobody sets) produces a SimHangError with a per-rank
        report instead of hanging the host forever."""
        def main(env):
            if env.rank == 0:
                threading.Event().wait()  # never returns
            env.compute(1e-6)
            return None

        eng = Engine(2, watchdog=Watchdog(wall_timeout=0.3))
        with pytest.raises(SimHangError) as ei:
            eng.run(main)
        assert "no scheduling activity" in str(ei.value)
        assert "rank 0" in ei.value.report

    def test_healthy_run_is_untouched(self):
        def main(env):
            env.compute(1e-3)
            return env.rank

        eng = Engine(3, watchdog=Watchdog(wall_timeout=5.0))
        assert eng.run(main).values == [0, 1, 2]


class TestVirtualStall:
    def test_livelocked_polling_is_reported(self):
        """Every rank spinning yield_() with no progress anywhere must
        trip the stall watchdog (virtual time cannot advance)."""
        def main(env):
            while True:
                env.yield_()

        eng = Engine(2, watchdog=Watchdog(wall_timeout=None,
                                          stall_events=200))
        with pytest.raises(SimHangError) as ei:
            eng.run(main)
        assert ei.value.report  # carries the per-rank progress report

    def test_report_names_each_ranks_last_span(self):
        """Under profiling the report ends each rank's line with the
        last span that rank recorded before the hang."""
        def main(env):
            env.compute(1e-6 * (env.rank + 1), label=f"setup{env.rank}")
            while True:
                env.yield_()

        eng = Engine(2, profile=True,
                     watchdog=Watchdog(wall_timeout=None, stall_events=200))
        with pytest.raises(SimHangError) as ei:
            eng.run(main)
        lines = ei.value.report.splitlines()
        assert len(lines) == 2
        for rank, line in enumerate(lines):
            (last,) = eng.profile.by_rank(rank)
            assert last.kind == "compute"
            assert last.attrs["label"] == f"setup{rank}"
            assert line.startswith(f"  rank {rank}: ")
            assert line.endswith(f", last span: {last}")

    def test_report_names_a_blocked_ranks_waiter(self):
        """A blocked rank's line names the reason its waiter was made
        with; ``block()`` itself takes no reason."""
        def main(env):
            if env.rank == 0:
                env.make_waiter("value from rank 1")
                env.block()
            while True:
                env.yield_()

        eng = Engine(2, watchdog=Watchdog(wall_timeout=None,
                                          stall_events=200))
        with pytest.raises(SimHangError) as ei:
            eng.run(main)
        assert ei.value.report.splitlines()[0] == (
            "  rank 0: blocked t=0.000000000, waiting on value from rank 1")

    def test_progress_resets_the_stall_counter(self):
        """Long but *productive* polling loops stay under the limit:
        compute() in between resets the no-progress count."""
        def main(env):
            for _ in range(50):
                for _ in range(10):
                    env.yield_()
                env.compute(1e-9)
            return env.rank

        eng = Engine(2, watchdog=Watchdog(wall_timeout=None,
                                          stall_events=100))
        assert eng.run(main).values == [0, 1]


class TestDisarmOnAbort:
    """Once an abort (any SimAbortError) is in flight, both watchdog
    checks are disarmed: the abort is the verdict, and a SimHangError
    must never race it or mask it during teardown."""

    def test_rank_failure_wins_over_tight_watchdog(self):
        """A crash abort with the tightest watchdog settings still
        surfaces as RankFailedError, never SimHangError."""
        model = gemini_model()

        def main(env):
            comm = mpi.init(env, model)
            if env.rank == 0:
                comm.Recv(np.zeros(2), source=1)  # rank 1 dies first
            return None

        plan = FaultPlan(seed=0, crashes=(RankCrash(rank=1, at=0.0),))
        eng = Engine(2, faults=plan,
                     watchdog=Watchdog(wall_timeout=0.2, stall_events=1))
        with pytest.raises(RankFailedError):
            eng.run(main)
        assert eng._aborting  # the disarm flag latched

    def test_stall_counter_ignores_events_while_aborting(self):
        eng = Engine(2, watchdog=Watchdog(wall_timeout=None,
                                          stall_events=1))
        eng._aborting = True
        for _ in range(10):   # would raise SimHangError if armed
            eng._note_stall_event()
        assert eng._stall_events == 0
