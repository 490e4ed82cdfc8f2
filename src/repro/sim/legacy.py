"""The seed scheduler, preserved as a reference baseline.

:class:`SeedEngine` reproduces the original (pre-heap) scheduler
algorithm exactly: an ``O(P)`` ready-list rebuild per dispatch, an
``O(P)`` linear scan per yield, and a return to the scheduler thread on
every slice boundary (two OS-thread context switches per slice instead
of one direct handoff).

It exists for one job: determinism regression tests
(``tests/sim/test_determinism.py``) assert that both engines produce
identical virtual-time results (span streams, finish times,
makespans) — the heap refactor is a pure performance change.

Do not use it for anything else; it shares the public API of
:class:`~repro.sim.engine.Engine` but is deliberately frozen at the
seed behaviour.
"""

from __future__ import annotations

from typing import Any

from repro.errors import SimDeadlockError, SimProcessError
from repro.sim.engine import Engine, Proc, ProcState, Waiter


class SeedEngine(Engine):
    """The seed (pre-heap) scheduler: linear scans + scheduler bounce."""

    # -- ready bookkeeping: a bare state flag, no queue ----------------

    def _make_ready(self, proc: Proc) -> None:
        proc.state = ProcState.READY

    # -- primitives ----------------------------------------------------

    def wake(self, waiter: Waiter, time: float, payload: Any = None) -> None:
        # Seed behaviour: no owner-state guard (the bug PR 1 fixed);
        # kept verbatim so the baseline is byte-for-byte the seed
        # algorithm for valid programs.
        from repro.errors import SimStateError
        if waiter.woken:
            raise SimStateError("waiter was already woken")
        waiter.woken = True
        waiter.wake_time = time
        waiter.payload = payload
        proc = waiter.proc
        proc.now = max(proc.now, time)
        proc.state = ProcState.READY

    def yield_(self, proc: Proc) -> None:
        from repro.errors import SimStateError
        if proc is not self._current:
            raise SimStateError("a rank may only yield itself")
        self.check_time(proc)
        if not self._someone_ready_before(proc):
            self.stats.fast_yields += 1
            return
        proc.state = ProcState.READY
        self._switch_from(proc)

    def _someone_ready_before(self, proc: Proc) -> bool:
        for p in self.procs:
            if p is proc or p.state is not ProcState.READY:
                continue
            if (p.now, p.rank) < (proc.now, proc.rank):
                return True
        return False

    # -- control transfer: always bounce through the scheduler ---------

    def _switch_from(self, proc: Proc) -> None:
        self._sched_evt.set()
        proc._wait_baton()

    def _on_proc_exit(self, proc: Proc) -> None:
        self._sched_evt.set()

    # -- the seed scheduler loop ---------------------------------------

    def _schedule_loop(self) -> None:
        while True:
            ready = [p for p in self.procs if p.state is ProcState.READY]
            if not ready:
                blocked = [p for p in self.procs
                           if p.state is ProcState.BLOCKED]
                if blocked:
                    self._raise_deadlock(blocked)
                return
            proc = min(ready, key=lambda p: (p.now, p.rank))
            if self._past_max_time(proc):
                raise self._max_time_error(proc)
            self._dispatch(proc)
            if proc.error is not None:
                if isinstance(proc.error, SimDeadlockError):
                    raise proc.error
                raise SimProcessError(proc.rank, proc.error) \
                    from proc.error
