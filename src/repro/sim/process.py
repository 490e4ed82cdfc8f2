"""Per-rank execution context (the ``env`` handle SPMD code receives).

``Env`` is the only object application code needs: it identifies the
rank, exposes the virtual clock, and models computation. Communication
libraries take an ``Env`` as their first argument and build on its
blocking primitives.

Scheduling cost model (see ``docs/SCHEDULER.md``): a yield — explicit
or via :meth:`Env.compute` — is free while this rank remains the
earliest runnable one (the engine's fast path batches the whole
run-to-block stretch onto one OS-thread slice); only a yield that
actually reorders ranks, or a genuine :meth:`Env.block`, costs a
context switch. Libraries should therefore prefer ``advance`` for
small local overheads and reserve ``compute``/``yield_`` for points
where other ranks may legitimately need to run first.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import SimStateError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Engine, Proc, Waiter


class Env:
    """The world as seen by one simulated rank."""

    def __init__(self, engine: "Engine", proc: "Proc"):
        self._engine = engine
        self._proc = proc

    # ------------------------------------------------------------------
    # Identity & time

    @property
    def rank(self) -> int:
        """This rank's id, ``0 <= rank < size``."""
        return self._proc.rank

    @property
    def size(self) -> int:
        """Total number of simulated ranks."""
        return self._engine.nprocs

    @property
    def now(self) -> float:
        """This rank's current virtual time, in seconds."""
        return self._proc.now

    @property
    def engine(self) -> "Engine":
        """The owning engine (libraries use this; apps rarely need it)."""
        return self._engine

    # ------------------------------------------------------------------
    # Modelling work

    def compute(self, seconds: float, label: str | None = None) -> None:
        """Model ``seconds`` of local computation.

        Advances this rank's clock and yields so that ranks now earlier
        in virtual time can run. This is how application kernels (e.g.
        WL-LSMS's ``calculateCoreStates``) charge their cost.
        """
        if seconds < 0:
            raise ValueError(f"compute() needs seconds >= 0, got {seconds}")
        self._check_current()
        if self._engine.profile is not None and seconds > 0:
            self._engine.profile.add(
                self._proc.rank, "compute", self._proc.now,
                self._proc.now + seconds,
                **({} if label is None else {"label": label}))
        self._proc.now += seconds
        if seconds > 0:
            self._engine.note_progress()
        self._engine.stats.compute_seconds += seconds
        self._engine.yield_(self._proc)

    def advance(self, seconds: float) -> None:
        """Advance the clock without yielding (small local overheads).

        Used by communication libraries for per-call software overheads
        where a scheduling point would add nothing but simulation cost.
        """
        if seconds < 0:
            raise ValueError(f"advance() needs seconds >= 0, got {seconds}")
        self._proc.now += seconds
        if seconds > 0:
            self._engine.note_progress()

    def advance_to(self, time: float) -> None:
        """Advance the clock to ``max(now, time)`` without yielding."""
        if time > self._proc.now:
            self._proc.now = time
            self._engine.note_progress()

    def yield_(self) -> None:
        """Give ranks at earlier virtual times a chance to run."""
        self._check_current()
        self._engine.yield_(self._proc)

    # ------------------------------------------------------------------
    # Blocking primitives (for communication libraries)

    def make_waiter(self, reason: str) -> "Waiter":
        """Create the waiter this rank will block on next."""
        return self._engine.make_waiter(self._proc, reason)

    def block(self) -> "Waiter":
        """Block until the installed waiter is woken; returns it.

        The rank's clock is already advanced to the wake time when this
        returns; the waiter carries the wake payload.
        """
        self._check_current()
        return self._engine.block(self._proc)

    def _check_current(self) -> None:
        if self._engine._current is not self._proc:
            raise SimStateError(
                f"Env for rank {self._proc.rank} used while not scheduled; "
                "Env objects must not be shared across ranks")

    def __repr__(self) -> str:
        return f"<Env rank={self.rank}/{self.size} t={self.now:.9f}>"
