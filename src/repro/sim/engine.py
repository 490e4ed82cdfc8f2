"""The cooperative virtual-time scheduler.

One host thread is created per simulated rank, but *exactly one* thread
ever runs at a time: control is handed as a baton to the runnable rank
with the smallest ``(virtual time, rank)``. Host threads are used purely
as resumable stacks (coroutine carriers); there is no true concurrency,
which is what makes the simulation deterministic.

Scheduling machinery (this module's hot path):

* **Ready min-heap** — runnable ranks live in a binary heap keyed by
  ``(virtual time, rank)``, maintained incrementally by
  :meth:`Engine.wake` / :meth:`Engine.yield_` / :meth:`Engine.block`.
  Selecting the next rank is ``O(log P)`` instead of the ``O(P)``
  ready-list rebuild a linear scan would cost per dispatch.
* **Run-to-block batching** — a rank keeps its OS thread across any
  number of yields while it remains the earliest runnable rank (the
  *fast yield* path), and when it genuinely stops (blocks, yields
  behind an earlier rank, or finishes) it hands the baton *directly* to
  the next runnable rank without bouncing through the scheduler thread.
  A scheduled slice therefore costs one OS-thread switch, not two; the
  scheduler thread only wakes when no rank is runnable (run end,
  deadlock, abort).

Virtual time is per-rank. It advances only through
:meth:`repro.sim.process.Env.compute`/:meth:`~repro.sim.process.Env.advance`
(explicitly modelled work) and through wake-ups at message-completion
times computed by the communication libraries' cost models. Causality is
preserved because every wake time is ``max(waiter's clock, cause's
completion time)`` — clocks are monotone per rank.

Determinism regression tests pin this engine's span streams, finish
times and makespans as exact goldens (``tests/sim/golden/``), recorded
while the pre-heap seed scheduler still ran beside it and agreed.
"""

from __future__ import annotations

import enum
import heapq
import threading
import time as _time
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Any

from repro.errors import (
    RankFailedError,
    SimAbortError,
    SimDeadlockError,
    SimHangError,
    SimProcessError,
    SimStateError,
)
from repro.sim.process import Env
from repro.sim.stats import SimStats


class ProcState(enum.Enum):
    NEW = "new"
    READY = "ready"
    RUNNING = "running"
    BLOCKED = "blocked"
    DONE = "done"
    FAILED = "failed"
    #: Killed by fault injection; the rank's thread is parked and will
    #: be unwound at shutdown, and its rank is in ``Engine.failed_ranks``.
    CRASHED = "crashed"


class _Poisoned(BaseException):
    """Raised inside a simulated rank's thread to unwind it during abort.

    Derives from ``BaseException`` so user ``except Exception`` handlers
    cannot swallow it.
    """


class Waiter:
    """One pending block by one rank.

    A library that needs to block a rank creates a ``Waiter``, registers
    it wherever the waking party will find it (e.g. a message queue), and
    calls :meth:`Engine.block`. The waking party later calls
    :meth:`Engine.wake` with the virtual completion time and an optional
    payload, which the blocked rank receives as ``block()``'s return.
    """

    __slots__ = ("proc", "reason", "woken", "wake_time", "payload")

    def __init__(self, proc: "Proc", reason: str):
        self.proc = proc
        self.reason = reason
        self.woken = False
        self.wake_time: float | None = None
        self.payload: Any = None

    def __repr__(self) -> str:
        state = "woken" if self.woken else "pending"
        return f"<Waiter rank={self.proc.rank} reason={self.reason!r} {state}>"


class Proc:
    """Scheduler-side record of one simulated rank."""

    def __init__(self, engine: "Engine", rank: int,
                 fn: Callable[[Env], Any]):
        self.engine = engine
        self.rank = rank
        self.fn = fn
        self.now: float = 0.0
        self.state = ProcState.NEW
        #: The baton is a pre-acquired ``Lock`` used as a binary
        #: semaphore: ``_wait_baton`` blocks in ``acquire()`` until the
        #: scheduling party ``release()``s it. A raw lock is markedly
        #: cheaper per handoff than ``threading.Event`` (no Condition
        #: machinery), which matters at thousands of slices per run.
        self.baton = threading.Lock()
        self.baton.acquire()
        self.env = Env(engine, self)
        self.waiter: Waiter | None = None
        self.error: BaseException | None = None
        self.result: Any = None
        self.thread = threading.Thread(
            target=self._thread_main, name=f"sim-rank-{rank}", daemon=True
        )

    # Runs on the rank's own host thread.
    def _thread_main(self) -> None:
        try:
            self._wait_baton()
            self.result = self.fn(self.env)
            self.state = ProcState.DONE
        except _Poisoned:
            # Shutdown unwind: the scheduler is not waiting on us and the
            # baton chain must not continue. A crashed rank keeps its
            # CRASHED state (it is a modelled fault, not a host failure).
            if self.state is not ProcState.CRASHED:
                self.state = ProcState.FAILED
            return
        except BaseException as exc:  # noqa: BLE001 - reported to the scheduler
            self.error = exc
            self.state = ProcState.FAILED
        self.engine._on_proc_exit(self)

    def _wait_baton(self) -> None:
        self.baton.acquire()
        if self.engine._poison:
            raise _Poisoned()

    def __repr__(self) -> str:
        return f"<Proc rank={self.rank} t={self.now:.9f} {self.state.value}>"


@dataclass(frozen=True)
class FailureEvent:
    """One rank failure, as structured data for reports and recovery."""

    #: The rank that was killed.
    rank: int
    #: Virtual time it was killed.
    time: float
    #: Rank that detected the failure (eager detection), or ``None``
    #: when the engine found it at quiescence / run end.
    detected_by: int | None = None

    def __str__(self) -> str:
        by = ("engine" if self.detected_by is None
              else f"rank {self.detected_by}")
        return (f"rank {self.rank} failed at t={self.time:.9f} "
                f"(detected by {by})")


@dataclass
class RunResult:
    """Outcome of one simulated SPMD run."""

    nprocs: int
    #: Per-rank virtual finish times.
    finish_times: list[float]
    #: Per-rank return values of the SPMD callable.
    values: list[Any]
    stats: SimStats
    #: Ranks killed by fault injection. Non-empty only for a *degraded*
    #: run: every surviving rank finished without touching a dead peer.
    #: Crashed ranks contribute their crash time to ``finish_times`` and
    #: ``None`` to ``values``.
    failed_ranks: tuple[int, ...] = ()
    #: Span profile of the run (``Engine(profile=True)``); feed it to
    #: :mod:`repro.profiling` for metrics, Chrome export and
    #: critical-path extraction.
    profile: Any = None
    #: Structured record of every injected rank failure (degraded runs).
    failures: tuple[FailureEvent, ...] = ()
    #: :class:`repro.recovery.RecoveryStats` when the run was produced
    #: by :func:`repro.recovery.run_with_recovery`; ``None`` otherwise.
    recovery: Any = None

    @property
    def makespan(self) -> float:
        """Virtual time at which the last rank finished."""
        return max(self.finish_times) if self.finish_times else 0.0

    @property
    def degraded(self) -> bool:
        """True when the run completed despite losing ranks."""
        return bool(self.failed_ranks)

    def failure_report(self) -> str:
        """Human-readable account of a degraded run's casualties."""
        if not self.failures:
            return "no rank failures"
        lines = [str(ev) for ev in self.failures]
        lines.append(f"{self.nprocs - len(self.failures)} of "
                     f"{self.nprocs} ranks finished")
        return "\n".join(lines)

    def __repr__(self) -> str:
        degraded = (f" failed_ranks={list(self.failed_ranks)}"
                    if self.failed_ranks else "")
        return (f"<RunResult nprocs={self.nprocs} "
                f"makespan={self.makespan:.9f}{degraded}>")


class Engine:
    """Runs SPMD callables over ``nprocs`` simulated ranks.

    Parameters
    ----------
    nprocs:
        Number of simulated ranks.
    max_time:
        Safety limit on virtual time; a rank advancing past it aborts the
        run (guards against accidental infinite loops in modelled time).
    faults:
        Optional :class:`repro.faults.FaultPlan` (or a pre-compiled
        injector) of adversarial perturbations — message jitter,
        reordering, drops, rank stalls and crashes — consulted at
        message-post and dispatch time. ``None`` (default) runs the
        benign schedule.
    watchdog:
        Optional :class:`repro.faults.Watchdog` configuration. When set,
        wall-clock hangs and virtual-time stalls abort the run with a
        :class:`repro.errors.SimHangError` carrying a per-rank progress
        report instead of hanging silently.
    profile:
        If true, collect a :class:`repro.profiling.Profile` of span
        events (compute, post, sync, message delivery, barriers,
        faults); available as ``RunResult.profile`` after the run.
    recovery:
        Optional :class:`repro.recovery.RecoveryContext` binding this
        run to the fault-tolerance runtime: per-target bounded-retry
        policies for dropped messages, deadline-based failure
        detection, and coordinated checkpointing at sync boundaries.
    sanitize:
        If true, arm the byte-interval access sanitizer
        (:class:`repro.sim.sanitizer.AccessSanitizer`): the directive
        backends record communication accesses with happens-before from
        the executed synchronization, and two unordered conflicting
        accesses abort the run with :class:`repro.errors.RaceError` —
        the dynamic cross-check of the static CI04x race findings.
    """

    def __init__(self, nprocs: int, *,
                 max_time: float | None = None,
                 faults: Any = None,
                 watchdog: Any = None,
                 profile: bool = False,
                 recovery: Any = None,
                 sanitize: bool = False):
        if nprocs < 1:
            raise ValueError(f"nprocs must be >= 1, got {nprocs}")
        self.nprocs = nprocs
        self.max_time = max_time
        #: The bound fault injector (``None`` on the benign schedule).
        #: Communication libraries consult ``faults.message_delay`` and
        #: ``faults.deferred_delivery``; the engine itself consults
        #: ``faults.on_dispatch``.
        self.faults = faults.compile() if hasattr(faults, "compile") else faults
        self.watchdog = watchdog
        #: The bound recovery context (``None`` = no fault tolerance).
        self.recovery = recovery
        #: Ranks killed by fault injection, in crash order.
        self.failed_ranks: set[int] = set()
        #: Virtual crash time per killed rank.
        self.crash_times: dict[int, float] = {}
        self.stats = SimStats()
        if profile:
            from repro.profiling.spans import Profile
            self.profile: Any = Profile()
        else:
            self.profile = None
        if sanitize:
            from repro.sim.sanitizer import AccessSanitizer
            #: The armed access sanitizer, consulted by the directive
            #: backends (``None`` = not sanitizing).
            self.sanitizer: Any = AccessSanitizer(self)
        else:
            self.sanitizer = None
        self.procs: list[Proc] = []
        #: Runnable ranks as a ``(virtual time, rank)`` min-heap. Keys are
        #: stable while a proc stays READY (only a RUNNING rank can move
        #: its own clock, and ``wake`` refuses non-BLOCKED targets), so
        #: every proc appears at most once and entries only go stale when
        #: a run is abandoned mid-flight.
        self._ready_heap: list[tuple[float, int]] = []
        self._sched_evt = threading.Event()
        self._poison = False
        self._running = False
        self._current: Proc | None = None
        #: Engine-level abort raised on a rank's thread during a direct
        #: handoff (e.g. the max_time guard); surfaced by the scheduler.
        self._abort_error: SimAbortError | None = None
        #: Consecutive scheduling events without virtual-time progress
        #: (watchdog stall detector; reset by wake()/advance()).
        self._stall_events = 0
        #: True once the wall-clock watchdog tripped: rank threads may be
        #: genuinely hung, so shutdown must not wait long for them.
        self._wall_hang = False
        #: True once an abort (any :class:`SimAbortError` or user error)
        #: is in flight; disarms both watchdog checks so a
        #: ``SimHangError`` can never race or mask the real verdict.
        self._aborting = False
        #: Free slot for cross-cutting services (communicators, symmetric
        #: heaps) to stash per-world state, keyed by service name.
        self.services: dict[str, Any] = {}

    # ------------------------------------------------------------------
    # Public API

    def run(self, fn: Callable[[Env], Any] | Sequence[Callable[[Env], Any]],
            ) -> RunResult:
        """Execute ``fn`` once per rank and return the collected result.

        ``fn`` may be a single callable (classic SPMD: every rank runs the
        same program, branching on ``env.rank``) or a sequence of exactly
        ``nprocs`` callables (MPMD).
        """
        if self._running:
            raise SimStateError("engine is already running")
        if callable(fn):
            fns = [fn] * self.nprocs
        else:
            fns = list(fn)
            if len(fns) != self.nprocs:
                raise ValueError(
                    f"got {len(fns)} callables for {self.nprocs} ranks")
        self.procs = [Proc(self, r, fns[r]) for r in range(self.nprocs)]
        self._running = True
        self._ready_heap = []
        self._abort_error = None
        self._stall_events = 0
        self._wall_hang = False
        self._aborting = False
        self.failed_ranks = set()
        self.crash_times = {}
        if self.faults is not None:
            self.faults.bind(self)
        if self.recovery is not None:
            self.recovery.bind(self)
        t0 = _time.perf_counter()
        try:
            for p in self.procs:
                self._make_ready(p)
                p.thread.start()
            self._schedule_loop()
        finally:
            self.stats.dispatch_wall_seconds += _time.perf_counter() - t0
            self._shutdown_threads()
            self._running = False
        failed = [p for p in self.procs if p.error is not None]
        if failed:
            first = min(failed, key=lambda p: p.rank)
            if isinstance(first.error, SimAbortError):
                # Engine-level abort (deadlock shape, watchdog, rank
                # failure), not a user bug: surface it unwrapped.
                raise first.error
            raise SimProcessError(first.rank, first.error) from first.error
        finish_times = [p.now for p in self.procs]
        if self.profile is not None:
            self.profile.finish(finish_times)
        return RunResult(
            nprocs=self.nprocs,
            finish_times=finish_times,
            values=[p.result for p in self.procs],
            stats=self.stats,
            failed_ranks=tuple(sorted(self.failed_ranks)),
            profile=self.profile,
            failures=self.failure_events(),
        )

    def failure_events(self) -> tuple[FailureEvent, ...]:
        """Structured record of every injected crash, in rank order."""
        return tuple(FailureEvent(rank=r, time=self.crash_times.get(r, 0.0))
                     for r in sorted(self.failed_ranks))

    # ------------------------------------------------------------------
    # Primitives used by Env and the communication libraries.
    # All of these run on the *current rank's* host thread; single-threaded
    # execution makes the shared-state mutation safe without locks.

    @property
    def current(self) -> Proc:
        """The proc whose thread is executing right now."""
        if self._current is None:
            raise SimStateError("no simulated rank is currently running")
        return self._current

    def block(self, proc: Proc) -> Waiter:
        """Block ``proc`` until some party wakes its waiter; returns it.

        Must be called from ``proc``'s own thread. The waiter should have
        been registered with the waking party *before* calling this —
        but because only one rank runs at a time, registering it after
        creation and before this call is race-free either way.
        """
        if proc is not self._current:
            raise SimStateError("a rank may only block itself")
        waiter = proc.waiter
        if waiter is None or waiter.woken:
            raise SimStateError("block() requires a fresh waiter; "
                                "use make_waiter() first")
        proc.state = ProcState.BLOCKED
        self._switch_from(proc)
        # We only get here after wake() marked the waiter woken and the
        # scheduler picked us again.
        proc.waiter = None
        return waiter

    def make_waiter(self, proc: Proc, reason: str) -> Waiter:
        """Create and install the waiter ``proc`` will block on next."""
        if proc.waiter is not None and not proc.waiter.woken:
            raise SimStateError(f"rank {proc.rank} already has a pending waiter")
        waiter = Waiter(proc, reason)
        proc.waiter = waiter
        return waiter

    def wake(self, waiter: Waiter, time: float, payload: Any = None) -> None:
        """Mark ``waiter`` complete at virtual ``time`` with ``payload``.

        The blocked rank resumes with its clock advanced to
        ``max(its clock, time)``. Waking an already-woken waiter is an
        error (each waiter is single-use), as is waking a waiter whose
        owner has not actually blocked on it yet: a rank that is still
        RUNNING (it created the waiter via ``make_waiter`` but has not
        called ``block()``) or already READY must not be re-queued, or
        the ready heap would hold it twice and its state machine would be
        corrupted. Libraries must register a waiter and wake it only from
        *another* rank's execution — which, since exactly one rank runs
        at a time, guarantees the owner reached ``block()`` first.
        """
        if waiter.woken:
            raise SimStateError("waiter was already woken")
        proc = waiter.proc
        if proc.state is not ProcState.BLOCKED:
            raise SimStateError(
                f"cannot wake rank {proc.rank}: it is {proc.state.value}, "
                "not blocked — wake() may only target a rank that has "
                "called block() on this waiter")
        waiter.woken = True
        waiter.wake_time = time
        waiter.payload = payload
        proc.now = max(proc.now, time)
        self._stall_events = 0  # a completion is progress (watchdog)
        self._make_ready(proc)

    def check_time(self, proc: Proc) -> None:
        """Abort if ``proc`` ran past ``max_time`` (runaway-loop guard)."""
        if self._past_max_time(proc):
            raise self._max_time_error(proc)

    def yield_(self, proc: Proc) -> None:
        """Cooperatively reschedule; other ranks at earlier times run first."""
        if proc is not self._current:
            raise SimStateError("a rank may only yield itself")
        self.check_time(proc)
        self._note_stall_event()
        # Fast path: if this rank is still the earliest runnable one, no
        # other rank could be scheduled before it, so skip the context
        # switch entirely. BLOCKED ranks resume only via wake() calls
        # made by *running* ranks, so they cannot be starved by this.
        if not self._ready_before(proc):
            self.stats.fast_yields += 1
            return
        self._make_ready(proc)
        self._switch_from(proc)

    def note_progress(self) -> None:
        """Reset the virtual-stall watchdog: some clock advanced."""
        self._stall_events = 0

    def check_peer_alive(self, peer: int) -> None:
        """Raise :class:`RankFailedError` if ``peer`` was crashed.

        Communication libraries call this as a rank initiates
        communication naming a peer, converting a would-be hang on a
        dead rank into an eager, diagnosable failure. With a recovery
        context bound, the detecting rank first waits out the failure
        detector's deadline (modelled virtual time — a real detector
        cannot distinguish dead from slow before its timeout) and the
        detection is counted and recorded as a ``detect`` span.
        """
        if peer not in self.failed_ranks:
            return
        cur = self._current
        who = f"rank {cur.rank}" if cur is not None else "a rank"
        detected_by = cur.rank if cur is not None else None
        ctx = self.recovery
        if ctx is not None and cur is not None:
            deadline = ctx.detect_deadline
            if deadline > 0:
                if self.profile is not None:
                    self.profile.add(cur.rank, "detect", cur.now,
                                     cur.now + deadline, peer=peer)
                cur.now += deadline
            self.stats.failures_detected += 1
            self.stats.recovery_wall_s += deadline
        failed = tuple(sorted(self.failed_ranks))
        raise RankFailedError(
            f"{who} attempted communication with rank {peer}, which "
            f"was killed by fault injection; failed ranks: "
            f"{list(failed)}", failed=failed, failed_rank=peer,
            failure_time=self.crash_times.get(peer),
            detected_by=detected_by)

    def progress_report(self) -> str:
        """Per-rank snapshot used in watchdog and failure reports."""
        lines = []
        for p in self.procs:
            desc = f"  rank {p.rank}: {p.state.value} t={p.now:.9f}"
            if p.state is ProcState.BLOCKED and p.waiter is not None:
                desc += f", waiting on {p.waiter.reason}"
            if self.profile is not None:
                spans = self.profile.by_rank(p.rank)
                if spans:
                    desc += f", last span: {spans[-1]}"
            lines.append(desc)
        return "\n".join(lines)

    def _note_stall_event(self) -> None:
        """Count one scheduling event toward the virtual-stall watchdog."""
        wd = self.watchdog
        if wd is None or wd.stall_events is None or self._aborting:
            return
        self._stall_events += 1
        if self._stall_events > wd.stall_events:
            self._stall_events = 0
            raise SimHangError(
                f"no virtual-time progress in {wd.stall_events} "
                "scheduling events (virtual-stall watchdog): the run is "
                "spinning without any clock advancing",
                report=self.progress_report())

    # ------------------------------------------------------------------
    # Ready-queue maintenance

    def _make_ready(self, proc: Proc) -> None:
        """Transition ``proc`` to READY and enqueue it for dispatch."""
        proc.state = ProcState.READY
        heapq.heappush(self._ready_heap, (proc.now, proc.rank))
        self.stats.heap_ops += 1

    def _pop_next_ready(self) -> Proc | None:
        """Remove and return the earliest runnable proc, or ``None``."""
        heap = self._ready_heap
        while heap:
            now, rank = heapq.heappop(heap)
            self.stats.heap_ops += 1
            proc = self.procs[rank]
            if proc.state is ProcState.READY and proc.now == now:
                return proc
            # Stale entry (abandoned after an abort): drop and continue.
        return None

    def _next_runnable(self) -> Proc | None:
        """Pop the next proc to dispatch, applying dispatch-time faults.

        A stalled proc has its clock bumped and is re-queued (selection
        continues, possibly re-picking it at its new time); a crashed
        proc is removed from the run permanently.
        """
        while True:
            proc = self._pop_next_ready()
            if proc is None or self.faults is None:
                return proc
            action = self.faults.on_dispatch(self, proc)
            if action is None:
                return proc
            if action[0] == "stall":
                duration = action[1]
                if self.profile is not None:
                    self.profile.add(proc.rank, "stall", proc.now,
                                     proc.now + duration, cause="fault")
                self.stats.count_fault("stall")
                proc.now += duration
                self._make_ready(proc)
            elif action[0] == "crash":
                self._crash(proc)
            else:
                raise SimStateError(f"unknown fault action {action!r}")

    def _crash(self, proc: Proc) -> None:
        """Kill ``proc`` by injected fault: it never runs again.

        The proc was just popped from the ready heap, so it appears
        nowhere else; its host thread stays parked on its baton and is
        unwound (state preserved) at shutdown. Messages it posted before
        dying remain in flight and may still be delivered to survivors.
        """
        proc.state = ProcState.CRASHED
        self.failed_ranks.add(proc.rank)
        self.crash_times[proc.rank] = proc.now
        self.stats.count_fault("crash")
        if self.profile is not None:
            self.profile.instant(proc.rank, "crash", proc.now,
                                 cause="fault")

    def _ready_before(self, proc: Proc) -> bool:
        """True if some READY rank orders strictly before ``proc``."""
        heap = self._ready_heap
        while heap:
            now, rank = heap[0]
            p = self.procs[rank]
            if p.state is ProcState.READY and p.now == now:
                return (now, rank) < (proc.now, proc.rank)
            heapq.heappop(heap)
            self.stats.heap_ops += 1
        return False

    # ------------------------------------------------------------------
    # Control transfer (run-to-block batching)

    def _switch_from(self, proc: Proc) -> None:
        """Give up ``proc``'s slice; returns when it is scheduled again.

        Runs on ``proc``'s own thread: the next runnable rank receives
        the baton directly (one OS-thread switch), and only when nothing
        is runnable does control return to the scheduler thread.
        """
        self._handoff(proc)
        proc._wait_baton()

    def _on_proc_exit(self, proc: Proc) -> None:
        """Called on ``proc``'s own thread as its program ends."""
        if proc.state is ProcState.FAILED:
            # Let the scheduler thread abort the run. Disarm the
            # watchdog first: the abort is the verdict, and a hang
            # report must never race or mask it.
            self._aborting = True
            self._current = None
            self._sched_evt.set()
            return
        self._handoff(proc)

    def _handoff(self, proc: Proc) -> None:
        """Pass the baton to the next runnable rank, or end the chain."""
        nxt = self._next_runnable()
        if nxt is None:
            self._current = None
            self._sched_evt.set()
            return
        if self._past_max_time(nxt):
            # Same abort as the scheduler-side guard, surfaced through
            # the scheduler thread so it unwinds the run.
            self._abort_error = self._max_time_error(nxt)
            self._aborting = True
            self._current = None
            self._sched_evt.set()
            return
        nxt.state = ProcState.RUNNING
        self._current = nxt
        self.stats.switches += 1
        self.stats.direct_handoffs += 1
        nxt.baton.release()

    # ------------------------------------------------------------------
    # Scheduler internals

    def _past_max_time(self, proc: Proc) -> bool:
        return self.max_time is not None and proc.now > self.max_time

    def _max_time_error(self, proc: Proc) -> SimDeadlockError:
        # The single constructor for the max_time abort: every pathway
        # (rank-thread check_time, scheduler dispatch, direct handoff)
        # raises this exact shape.
        return SimDeadlockError(
            f"virtual time {proc.now} exceeded max_time "
            f"{self.max_time} on rank {proc.rank}")

    def _schedule_loop(self) -> None:
        while True:
            proc = self._next_runnable()
            if proc is None:
                blocked = [p for p in self.procs
                           if p.state is ProcState.BLOCKED]
                if blocked:
                    self._raise_deadlock(blocked)
                # All surviving ranks DONE (FAILED is handled by the
                # caller; CRASHED-only losses are a degraded completion).
                return
            if self._past_max_time(proc):
                raise self._max_time_error(proc)
            self._dispatch(proc)
            if self._abort_error is not None:
                err, self._abort_error = self._abort_error, None
                raise err
            failed = [p for p in self.procs if p.error is not None]
            if failed:
                # Abort: remaining ranks are unwound in _shutdown_threads.
                first = min(failed, key=lambda p: p.rank)
                if isinstance(first.error, SimAbortError):
                    # Engine-level abort (max_time guard, watchdog, rank
                    # failure), not a user bug: surface it unwrapped.
                    raise first.error
                raise SimProcessError(first.rank, first.error) \
                    from first.error

    def _dispatch(self, proc: Proc) -> None:
        """Start a baton chain at ``proc``; returns when the chain ends."""
        proc.state = ProcState.RUNNING
        self._current = proc
        self.stats.switches += 1
        self._sched_evt.clear()
        proc.baton.release()
        timeout = None if self.watchdog is None else self.watchdog.wall_timeout
        if timeout is None:
            self._sched_evt.wait()
        else:
            # Wall-clock watchdog: wake periodically and compare the
            # activity counters. A full timeout window with no scheduling
            # activity at all means some rank is hung in *host* code
            # (e.g. an infinite Python loop that never reaches a
            # scheduling point) — abort with a report instead of hanging.
            last_activity = -1
            while not self._sched_evt.wait(timeout):
                if self._aborting:
                    # An abort is already in flight on a rank thread;
                    # it will set the event. The hang watchdog is
                    # disarmed so it cannot mask the real verdict.
                    continue
                activity = (self.stats.switches + self.stats.fast_yields
                            + self.stats.heap_ops)
                if activity == last_activity:
                    self._wall_hang = True
                    self._current = None
                    raise SimHangError(
                        f"no scheduling activity for {timeout:.3g}s of "
                        "host wall-clock (wall watchdog): a rank is hung "
                        "in host code and cannot be unwound",
                        report=self.progress_report())
                last_activity = activity
        self._current = None

    def _raise_deadlock(self, blocked: list[Proc]) -> None:
        self._aborting = True
        blocked = sorted(blocked, key=lambda p: p.rank)
        detail = {
            p.rank: (p.waiter.reason if p.waiter else "unknown")
            for p in blocked
        }
        lines = [f"  rank {p.rank} (t={p.now:.9f}): waiting on "
                 f"{detail[p.rank]}" for p in blocked]
        done = sum(1 for p in self.procs if p.state is ProcState.DONE)
        if self.failed_ranks:
            # Not a plain deadlock: injected crashes took ranks out and
            # the survivors are blocked on communication those ranks
            # will never perform.
            failed = tuple(sorted(self.failed_ranks))
            if self.recovery is not None:
                self.stats.failures_detected += len(failed)
            msg = (f"rank(s) {', '.join(map(str, failed))} crashed "
                   f"(injected fault); {len(blocked)} surviving rank(s) "
                   f"blocked on communication that will never complete, "
                   f"{done} finished\n" + "\n".join(lines))
            raise RankFailedError(
                msg, failed=failed, blocked=detail,
                failure_time=self.crash_times.get(failed[0]))
        msg = (f"deadlock: {len(blocked)} rank(s) blocked, {done} finished, "
               f"none runnable\n" + "\n".join(lines))
        raise SimDeadlockError(msg, blocked=detail)

    def _shutdown_threads(self) -> None:
        self._poison = True
        for p in self.procs:
            if p.thread.is_alive():
                try:
                    p.baton.release()
                except RuntimeError:
                    # Baton already released (the thread is mid-exit and
                    # never re-acquired): nothing to unblock.
                    pass
        # After a wall-clock hang abort the stuck rank thread cannot be
        # poisoned out of host code — don't wait for it (it is a daemon
        # thread, and the engine must not be reused after a wall hang).
        join_timeout = 0.2 if self._wall_hang else 5.0
        for p in self.procs:
            if p.thread.is_alive():
                p.thread.join(timeout=join_timeout)
        self._poison = False
