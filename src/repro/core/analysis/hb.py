"""Happens-before graph over per-rank symbolic event traces.

The verifier (:mod:`repro.core.analysis.verify`) unrolls a directive
program into one event trace per rank — posts, synchronization calls,
and buffer uses. This module holds the graph machinery those traces
feed:

* **events** are totally ordered within a rank (program order) and
  cross-rank edges express what an event *waits for* before it can
  execute (a Waitall waiting for the matching post, a one-sided put
  waiting for its exposure epoch, a notify-wait waiting for the
  origin's flush);
* the **executability fixpoint** (:func:`vector_clocks`) computes which
  events can ever run, and their vector clocks: an event runs once
  everything before it on its rank ran and every cross-rank
  prerequisite ran. Events left non-executable are a proof of deadlock
  — either a prerequisite is *missing* (a wait on a message nobody
  sends) or the blocked events form a cross-rank cycle;
* :func:`find_cycle` recovers the rank-level wait cycle for the
  diagnostic message.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from collections.abc import Container
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.core.analysis.races import WalkAccesses

#: Event kinds.
POST_SEND = "post_send"
POST_RECV = "post_recv"
SYNC = "sync"
USE = "use"


@dataclass(eq=False)
class Event:
    """One abstract operation on one rank (identity-hashed)."""

    rank: int
    index: int                      # position in the rank's trace
    kind: str                       # POST_SEND | POST_RECV | SYNC | USE
    line: int = 0                   # source line for diagnostics
    #: Line of the directive this event belongs to (posts/overlap uses).
    directive: int | None = None
    #: Peer rank: destination for sends, source for receives.
    peer: int | None = None
    #: Buffer base names the event touches (posts and uses).
    names: frozenset[str] = frozenset()
    #: Raw-code writes to declared buffers: ``(base name, index
    #: expression text)`` pairs (empty index text = whole buffer).
    writes: frozenset[tuple[str, str]] = frozenset()
    #: Directive lines whose overlap body lexically encloses this event.
    enclosing: tuple[int, ...] = ()

    def describe(self) -> str:
        """Short human-readable description for diagnostics."""
        if self.kind == POST_SEND:
            return f"send to rank {self.peer} (line {self.line})"
        if self.kind == POST_RECV:
            return f"receive from rank {self.peer} (line {self.line})"
        if self.kind == SYNC:
            return f"synchronization at line {self.line}"
        return f"use of {sorted(self.names)} at line {self.line}"


@dataclass(eq=False)
class Handle:
    """One posted message half awaiting synchronization (static twin of
    the runtime's Send/RecvHandle)."""

    kind: str                       # "send" | "recv"
    rank: int
    peer: int                       # dest for sends, source for recvs
    post: Event
    directive: int                  # directive source line
    names: frozenset[str]           # buffer base names it moves
    #: The directive's own ``target`` clause keyword, None for the
    #: default: the walk serves every target, and a swept target
    #: resolves it with :meth:`lowering`.
    target: str | None
    #: The buffer expression as written (``&buf[p]``), for the
    #: byte-interval derivation of :mod:`repro.core.analysis.access`.
    expr: str = ""
    #: The sync event that completed this handle; None when a weakened
    #: plan discarded it (the runtime handle was dropped before sync).
    sync: Event | None = None
    #: The opposite half on the peer rank the per-channel sequence
    #: numbers pair this one with, if any; set once per walk.
    partner: "Handle | None" = None
    #: For sends: the paired destination-buffer expression (the rbuf the
    #: runtime zips with this sbuf), for delivery-site byte intervals.
    dest_expr: str = ""
    #: id() of the enclosing region node; None for standalone p2p.
    region_key: int | None = None

    def lowering(self, default: str) -> str:
        """The target keyword this half lowers to under ``default``."""
        return self.target or default

    def match(self, default: str) -> "Handle | None":
        """The partner when both halves lower alike under ``default``
        (one lowered differently is CI007, not a match)."""
        p = self.partner
        return (p if p is not None
                and p.lowering(default) == self.lowering(default) else None)


@dataclass
class HBGraph:
    """Per-rank traces plus cross-rank waits-for dependencies."""

    nprocs: int
    traces: list[list[Event]] = field(default_factory=list)
    #: Cross-rank prerequisites: event -> events it waits for.
    deps: dict[Event, list[Event]] = field(default_factory=dict)
    #: Unsatisfiable prerequisites: event -> human-readable reasons
    #: paired with the rule code that proves the deadlock.
    missing: dict[Event, list[tuple[str, str, int | None]]] = field(
        default_factory=dict)

    def add_dep(self, event: Event, prerequisite: Event) -> None:
        """Record that ``event`` cannot execute before ``prerequisite``."""
        self.deps.setdefault(event, []).append(prerequisite)

    def add_missing(self, event: Event, code: str, reason: str,
                    directive: int | None = None) -> None:
        """Record a prerequisite that no rank ever produces.

        ``directive`` is the source line of the directive whose
        communication is unsatisfiable (the event itself may be a
        consolidated sync covering several directives).
        """
        self.missing.setdefault(event, []).append((code, reason, directive))

    def blocked_frontier(self, done: Container[Event]) -> list[Event]:
        """Each rank's first non-executable event (ranks that finish
        their trace contribute nothing)."""
        frontier: list[Event] = []
        for trace in self.traces:
            for event in trace:
                if event not in done:
                    frontier.append(event)
                    break
        return frontier


def vector_clocks(graph: HBGraph) -> dict[Event, list[int]]:
    """The executability fixpoint, with per-event vector clocks.

    A rank's events execute in order; each event additionally needs its
    cross-rank prerequisites, and an event with a missing prerequisite
    blocks its rank permanently. The keys of the result are exactly the
    events that can ever run — blocked events (deadlocked programs) get
    no clock. ``vc[e][r]`` is the number of rank-``r`` events that
    happen before ``e`` (inclusive of ``e`` itself on its own rank): an
    event ``a`` happens before ``b`` iff ``vc[b][a.rank] > a.index``.
    """
    done: dict[Event, list[int]] = {}
    n = graph.nprocs
    progress = [0] * len(graph.traces)
    changed = True
    while changed:
        changed = False
        for tidx, trace in enumerate(graph.traces):
            i = progress[tidx]
            while i < len(trace):
                event = trace[i]
                if event in graph.missing:
                    break
                deps = graph.deps.get(event, ())
                if any(d not in done for d in deps):
                    break
                vc = list(done[trace[i - 1]]) if i else [0] * n
                for d in deps:
                    dv = done[d]
                    for k in range(n):
                        if dv[k] > vc[k]:
                            vc[k] = dv[k]
                vc[event.rank] = event.index + 1
                done[event] = vc
                i += 1
                changed = True
            progress[tidx] = i
    return done


# ---------------------------------------------------------------------------
# Content-hash keyed unroll cache
#
# The symbolic walk — the per-rank tracers and the pairing of their
# halves — is pure in (source text, node lines, nprocs, extra_vars,
# weakening); no lowering target participates. A directive states its
# communication once, and the target only decides how each handle
# lowers, so the verifier walks and pairs each program once and each
# target only reads the pairing to build its graph. The verify, race
# and batch-lint passes of every target share one walk, and batch linting
# thousands of generated programs (repro.gen) re-verifies identical
# shrunk candidates constantly; caching by content hash means each
# distinct (program, nprocs, weakening) pays the walk once instead of
# once per target and pass.


@dataclass
class CachedUnroll:
    """One memoized target-independent walk.

    ``tracers`` are the per-rank tracers, whose handles carry only
    their directive's own ``target`` clause and their paired
    ``partner``; ``comm_graphs`` and
    ``clause_failures`` are each directive's evaluated pattern and the
    CI004/CI032 of those whose partner clauses fail on some rank;
    ``accesses`` holds the race pass's target-independent byte intervals
    and raw-code writes, filled on first use and shared by every target.
    """

    tracers: list[Any]
    comm_graphs: list[Any] = field(default_factory=list)
    clause_failures: list[Any] = field(default_factory=list)
    accesses: "WalkAccesses | None" = None


class GraphCache:
    """Bounded LRU of :class:`CachedUnroll` keyed by content hash."""

    def __init__(self, maxsize: int = 1024) -> None:
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._store: OrderedDict[str, CachedUnroll] = OrderedDict()

    def __len__(self) -> int:
        return len(self._store)

    def get(self, key: str) -> CachedUnroll | None:
        """The cached unroll for ``key``, refreshing its LRU slot."""
        entry = self._store.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._store.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: str, value: CachedUnroll) -> None:
        """Store ``value``, evicting the least recently used entry."""
        self._store[key] = value
        self._store.move_to_end(key)
        while len(self._store) > self.maxsize:
            self._store.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry and reset the hit/miss counters."""
        self._store.clear()
        self.hits = 0
        self.misses = 0

    def stats(self) -> dict[str, int]:
        """Counters for tooling (``perfbench``'s ``hb.cache`` counters)."""
        return {"entries": len(self._store), "hits": self.hits,
                "misses": self.misses}


#: The process-wide walk cache every verifier call consults
#: (:meth:`GraphCache.clear` empties it, so the next call walks afresh).
GRAPH_CACHE = GraphCache()


def unroll_key(source: str, lines: tuple[int, ...], nprocs: int,
               extra_vars: dict[str, int] | None,
               weakening: str | None) -> str:
    """Content hash identifying one target-independent walk.

    Everything the walk is a pure function of participates: the
    printed source (the parse/print fixpoint makes it canonical), the
    source line of every node (which the walk's events and findings
    carry), the world size, extra variable bindings and the applied
    weakening. The walk synchronizes where the source's regions do, so
    no sync plan participates; neither does the lowering target: one
    walk serves every target.
    """
    h = hashlib.sha256()
    h.update(source.encode())
    h.update(repr((lines, nprocs, weakening,
                   tuple(sorted((extra_vars or {}).items())))).encode())
    return h.hexdigest()


def find_cycle(graph: HBGraph, done: Container[Event]) -> list[Event]:
    """A cross-rank wait cycle among the blocked frontier events.

    Each blocked event waits (directly, or transitively through its
    rank's program order) on some other rank's blocked event; following
    that relation from any frontier event must revisit a rank, closing
    the cycle. Returns the frontier events forming the cycle, in wait
    order; empty when the blockage is caused by missing prerequisites
    only.
    """
    frontier = {e.rank: e for e in graph.blocked_frontier(done)}

    def next_blocked(event: Event) -> Event | None:
        for dep in graph.deps.get(event, ()):
            if dep not in done:
                # The dependency itself is blocked on its own rank's
                # frontier (it cannot run because an earlier event on
                # its rank is stuck, or it is the stuck event).
                return frontier.get(dep.rank)
        return None

    for start in frontier.values():
        seen: list[Event] = []
        cur: Event | None = start
        while cur is not None and cur not in seen:
            seen.append(cur)
            cur = next_blocked(cur)
        if cur is not None:
            return seen[seen.index(cur):]
    return []
