"""The span recorder the engine and libraries emit into.

A **span** is one interval of virtual time on one rank, with a kind and
free-form identity attributes. The emitting sites (see
``docs/PROFILING.md`` for the full schema):

========== ==========================================================
kind       emitted by
========== ==========================================================
compute    :meth:`repro.sim.process.Env.compute`
post       ``comm_p2p.__enter__`` — posting one directive instance
sync       :meth:`repro.core.region.PendingComm.sync` — one
           consolidated synchronization (carries the handle identity
           it waited on as ``send_keys``/``recv_keys``)
window     a posted-but-unsynced interval on one rank (posts open it,
           the covering sync closes it); the realized-overlap metric
           intersects compute spans with these
message    a payload delivery: a matched MPI send/recv pair, a
           directive or raw ``MPI_Put`` or a ``shmem_put`` (``src``/
           ``dst``/``nbytes``/``transport``; ``seq`` where the transfer
           has one); :func:`repro.sim.comm_matrix` counts these
notify     the one-sided flag update a receiver's sync waits on
barrier    one rank's episode of a :class:`repro.sim.sync.Rendezvous`
           (``critical_rank`` names the last arriver)
stall      a fault-injected dispatch stall
crash      a fault-injected rank kill (zero length)
detect     a survivor waiting out the failure detector's deadline
           before declaring a peer dead (``peer``)
retry      one bounded-retransmission attempt for a dropped message
           (``src``/``dst``/``attempt``/``transport``)
checkpoint one coordinated snapshot at a sync boundary (zero length,
           ``cut``)
restore    a restarted rank resuming from a checkpoint (zero length,
           ``cut``)
recovery   the bridge between an aborted attempt and its restart in a
           stitched multi-attempt profile (``policy``/``episode``/
           ``failed_ranks``)
========== ==========================================================

Spans are recorded by the rank that owns the interval except
``message``/``notify``, which are attributed to the *destination* rank
(the side whose progress they gate).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator


@dataclass
class Span:
    """One interval of virtual time on one rank."""

    sid: int
    rank: int
    kind: str
    t0: float
    t1: float | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Span length in virtual seconds (0.0 while still open)."""
        return 0.0 if self.t1 is None else self.t1 - self.t0

    def __str__(self) -> str:
        end = "open" if self.t1 is None else f"{self.t1:.9f}"
        extra = " ".join(f"{k}={v}" for k, v in sorted(self.attrs.items()))
        return (f"[{self.t0:.9f}..{end}] rank {self.rank}: "
                f"{self.kind} {extra}".rstrip())


class Profile:
    """An append-only span log for one simulated run.

    The run's one event stream. Opt-in via ``Engine(profile=True)``; the
    collected profile rides on :attr:`repro.sim.engine.RunResult.profile`.
    The log is unbounded — profiling is an explicit request, and the
    analyses need the whole run.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: dict[int, Span] = {}
        self._labels: dict[int, list[str]] = {}
        #: Per-rank virtual finish times, filled by the engine when the
        #: run completes (open spans are closed at their rank's finish).
        self.finish_times: list[float] = []

    # -- recording ---------------------------------------------------------

    def begin(self, rank: int, kind: str, t0: float, **attrs: Any) -> int:
        """Open a span; returns its id for the matching :meth:`end`."""
        sid = len(self.spans)
        span = Span(sid=sid, rank=rank, kind=kind, t0=t0, attrs=attrs)
        self.spans.append(span)
        self._open[sid] = span
        return sid

    def end(self, sid: int, t1: float, **attrs: Any) -> None:
        """Close a previously opened span, merging extra attributes."""
        span = self._open.pop(sid)
        span.t1 = max(t1, span.t0)
        if attrs:
            span.attrs.update(attrs)

    def add(self, rank: int, kind: str, t0: float, t1: float,
            **attrs: Any) -> int:
        """Record a span whose interval is already known."""
        sid = len(self.spans)
        self.spans.append(Span(sid=sid, rank=rank, kind=kind, t0=t0,
                               t1=max(t1, t0), attrs=attrs))
        return sid

    def instant(self, rank: int, kind: str, t: float, **attrs: Any) -> int:
        """Record a zero-length span (e.g. a crash)."""
        return self.add(rank, kind, t, t, **attrs)

    def finish(self, finish_times: list[float]) -> None:
        """Close any still-open spans at their rank's finish time.

        Called by the engine at run end; spans left open (e.g. a window
        abandoned on an error path) are clamped so every span has a
        well-defined interval for the analyses.
        """
        self.finish_times = list(finish_times)
        for span in list(self._open.values()):
            t = (finish_times[span.rank]
                 if span.rank < len(finish_times) else span.t0)
            self.end(span.sid, max(t, span.t0))

    # -- directive labels --------------------------------------------------
    #
    # The runtime DSL has no source locations; callers that *do* know
    # the directive identity (the program simulator replaying a parsed
    # Program, a pattern runner) push a label around the directive so
    # post spans can be attributed per directive.

    def push_label(self, rank: int, label: str) -> None:
        """Enter a directive-attribution scope on one rank."""
        self._labels.setdefault(rank, []).append(label)

    def pop_label(self, rank: int) -> None:
        """Leave the innermost directive-attribution scope."""
        stack = self._labels.get(rank)
        if stack:
            stack.pop()

    def current_label(self, rank: int) -> str | None:
        """The innermost active label on ``rank``, if any."""
        stack = self._labels.get(rank)
        return stack[-1] if stack else None

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.spans)

    def __iter__(self) -> Iterator[Span]:
        return iter(self.spans)

    def of_kind(self, *kinds: str) -> list[Span]:
        """All spans of the given kind(s), in recording order."""
        want = set(kinds)
        return [s for s in self.spans if s.kind in want]

    def by_rank(self, rank: int) -> list[Span]:
        """All spans attributed to one rank, in recording order."""
        return [s for s in self.spans if s.rank == rank]

    @property
    def nranks(self) -> int:
        """Number of ranks that appear in the profile."""
        if self.finish_times:
            return len(self.finish_times)
        return max((s.rank for s in self.spans), default=-1) + 1

    @property
    def makespan(self) -> float:
        """Virtual time at which the last rank finished."""
        if self.finish_times:
            return max(self.finish_times)
        return max((s.t1 for s in self.spans if s.t1 is not None),
                   default=0.0)

    def render(self, limit: int | None = None) -> str:
        """Human-readable dump of the first ``limit`` spans."""
        spans = self.spans if limit is None else self.spans[:limit]
        lines = [str(s) for s in spans]
        if limit is not None and len(self.spans) > limit:
            lines.append(f"... ({len(self.spans) - limit} more spans)")
        return "\n".join(lines)
