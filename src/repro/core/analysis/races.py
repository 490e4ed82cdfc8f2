"""CI04x byte-interval aliasing and race analysis.

The verifier (:mod:`repro.core.analysis.verify`) proves *ordering*
properties; this pass proves the *data* property on top of them: no
two conflicting accesses touch overlapping bytes of one allocation
while unordered in the happens-before graph.

Each handle of the verifier's walk lowers to its directive's
``target`` clause, else the swept target. Every access is reduced to a **window on its owner rank's trace**:

* a posted send reads its ``sbuf`` bytes over ``[post, flushing
  sync)``;
* a matched receive is written over ``[post, guaranteeing sync)`` on
  the receiver — except under SHMEM, where the put does not wait for
  the receiver at all: the window opens at the first receiver event
  that does *not* happen before the origin's put (computed from the
  graph's vector clocks) and two puts from the *same* origin are
  ordered by the origin's flushing quiet;
* a raw-code assignment is a point access at its event index, with
  the byte interval of its subscript when evaluable
  (:mod:`repro.core.analysis.access` widens everything else).

Two accesses conflict when at least one writes, their windows overlap
on the owner's timeline, and their byte intervals intersect. The
classification is stable: write-write from different SHMEM origins is
CI043, any other write-write is CI040, a directive's own send/recv
aliasing is CI042, and a raw write under a posted read window is
CI041. Findings built on widened intervals or loop-carried
(``max_comm_iter``) directives are demoted to warnings — the unrolled
snapshot cannot prove them.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Protocol

from repro.core.analysis import hb
from repro.core.analysis.access import (
    ByteInterval,
    buffer_interval,
    write_interval,
)
from repro.core.analysis.codes import Diagnostic, make
from repro.core.analysis.independence import base_identifier
from repro.core.analysis.infer import infer_count_static
from repro.core.clauses import Target
from repro.core.ir import Program
from repro.errors import ReproError

#: Per-rank event index "never synchronized": later than any real event.
_OPEN = 1 << 30

_SHMEM = Target.SHMEM.value
_PUT_LIKE = frozenset({Target.SHMEM.value, Target.MPI_1SIDE.value})


class RankTrace(Protocol):
    """The per-rank unroll the race pass consumes (a ``_RankTracer``)."""

    rank: int
    variables: dict[str, int]
    handles: list[hb.Handle]
    trace: list[hb.Event]


@dataclass
class _Access:
    """One byte-interval access window on its owner rank's timeline."""

    kind: str                 # "read" | "write"
    comm: bool                # True: directive window; False: raw write
    start: int                # owner trace index, inclusive
    end: int                  # owner trace index, exclusive
    span: ByteInterval
    owner: int
    name: str
    line: int
    directive: int | None
    desc: str
    #: Origin rank of a transfer (sender) / writer rank for raw code.
    origin: int | None = None
    #: Origin-trace indices of the transfer's post and flushing sync,
    #: for the same-origin put ordering rule.
    origin_post: int | None = None
    origin_sync: int | None = None
    shmem: bool = False
    #: True for put-based lowerings (SHMEM, MPI 1-sided): the delivery
    #: is performed by the origin's epoch, so the origin's flush/quiet
    #: orders it before anything the origin posts later.
    put_like: bool = False


def _count_exprs(program: Program) -> dict[int, str | None]:
    """Directive line -> count expression in elements (None widens)."""
    out: dict[int, str | None] = {}
    for node, _region, clauses in program.p2p_clauses():
        if "count" in clauses.exprs:
            out[node.line] = clauses.exprs["count"]
        else:
            try:
                out[node.line] = infer_count_static(clauses,
                                                    program.decls)
            except ReproError:
                out[node.line] = None
    return out


class WalkAccesses:
    """The target-independent accesses of one walk, computed on first
    use.

    A buffer expression's byte interval depends on the directive's
    count, the declarations and the rank's bindings, and a raw-code
    write is a point access on its own rank; neither depends on the
    lowering target. One memo serves every target's race pass over the
    same walk (:class:`repro.core.analysis.hb.CachedUnroll`).
    """

    def __init__(self, program: Program) -> None:
        self._decls = program.decls
        self._counts = _count_exprs(program)
        self._buffers: dict[tuple[int, int, str], ByteInterval] = {}
        self._writes: dict[int, list[_Access]] = {}

    def buffer(self, rank: int, variables: dict[str, int],
               directive: int, expr: str) -> ByteInterval:
        """Bytes ``expr`` of the directive at line ``directive``
        transfers on ``rank``."""
        key = (rank, directive, expr)
        span = self._buffers.get(key)
        if span is None:
            span = self._buffers[key] = buffer_interval(
                expr, self._counts.get(directive), self._decls,
                variables)
        return span

    def raw_writes(self, tracer: RankTrace) -> list[_Access]:
        """The raw-code assignments on ``tracer``'s rank, in trace
        order."""
        writes = self._writes.get(tracer.rank)
        if writes is None:
            writes = self._writes[tracer.rank] = [
                _Access(kind="write", comm=False, start=event.index,
                        end=event.index + 1,
                        span=write_interval(wname, idx_expr,
                                            self._decls,
                                            tracer.variables),
                        owner=tracer.rank, name=wname, line=event.line,
                        directive=event.directive,
                        desc=f"the assignment at line {event.line}",
                        origin=tracer.rank)
                for event in tracer.trace
                for wname, idx_expr in sorted(event.writes)]
        return writes


def _collect(tracers: Sequence[RankTrace],
             clocks: dict[hb.Event, list[int]], target: Target,
             accesses: WalkAccesses
             ) -> dict[tuple[int, str], list[_Access]]:
    """All accesses under ``target``, grouped by (owner rank, name)."""
    default = target.value
    vars_of = {t.rank: t.variables for t in tracers}
    groups: dict[tuple[int, str], list[_Access]] = {}

    def add(acc: _Access) -> None:
        groups.setdefault((acc.owner, acc.name), []).append(acc)

    for tracer in tracers:
        rank = tracer.rank
        for h in tracer.handles:
            name = next(iter(h.names))
            span = accesses.buffer(rank, tracer.variables, h.directive,
                                   h.expr)
            # The handle is complete only when its guaranteeing sync
            # *returns*: a cross-rank access ordered after every event
            # before the sync but not after the sync itself (its
            # vector-clock start equals the sync index — e.g. a SHMEM
            # put landing concurrently with the receiver's Waitall)
            # still conflicts with the in-flight transfer, so the
            # window closes after the sync event, not before it.
            # Same-rank accesses are unaffected (no two events share a
            # trace index); this mirrors the dynamic sanitizer's
            # close-epoch rule exactly.
            end = h.sync.index + 1 if h.sync is not None else _OPEN
            lowering = h.lowering(default)
            shmem = lowering == _SHMEM
            put_like = lowering in _PUT_LIKE
            matched = h.match(default)
            if h.kind == "send":
                add(_Access(
                    kind="read", comm=True, start=h.post.index,
                    end=end, span=span, owner=rank, name=name,
                    line=h.post.line, directive=h.directive,
                    desc=f"the send posted by the directive at line "
                         f"{h.directive}",
                    origin=rank, origin_post=h.post.index,
                    origin_sync=(h.sync.index if h.sync is not None
                                 else None),
                    shmem=shmem, put_like=put_like))
                if shmem and matched is None and h.dest_expr:
                    # An unmatched SHMEM put still delivers: the typed
                    # put writes the destination PE's symmetric mirror
                    # without any receiver participation, so the write
                    # lands on the peer's timeline from the first peer
                    # event not happening before the put onward — and
                    # with no receiving sync, the window never closes.
                    vc = clocks.get(h.post)
                    add(_Access(
                        kind="write", comm=True,
                        start=(vc[h.peer] if vc is not None else 0),
                        end=_OPEN,
                        span=accesses.buffer(
                            rank, tracer.variables, h.directive,
                            h.dest_expr),
                        owner=h.peer,
                        name=base_identifier(h.dest_expr),
                        line=h.post.line, directive=h.directive,
                        desc=(f"the unreceived put delivered by the "
                              f"directive at line {h.directive} from "
                              f"rank {rank}"),
                        origin=rank, origin_post=h.post.index,
                        origin_sync=(h.sync.index
                                     if h.sync is not None else None),
                        shmem=True, put_like=True))
                continue
            if matched is None:
                continue  # nothing is ever delivered (CI002/CI003)
            start = h.post.index
            if shmem:
                # The put needs nothing from the receiver: it can land
                # from the first receiver event not happening before
                # the origin's put onward.
                vc = clocks.get(matched.post)
                start = vc[rank] if vc is not None else 0
                # And it lands where the *origin* aims it: the shmem
                # put writes the symmetric buffer named by the sender's
                # rbuf operand, not the buffer this receive posted
                # (they differ when mismatched directives pair up).
                if matched.dest_expr:
                    name = base_identifier(matched.dest_expr)
                    span = accesses.buffer(
                        matched.rank,
                        vars_of.get(matched.rank, tracer.variables),
                        matched.directive, matched.dest_expr)
            add(_Access(
                kind="write", comm=True, start=start, end=end,
                span=span, owner=rank, name=name, line=h.post.line,
                directive=h.directive,
                desc=(f"the put delivered by the directive at line "
                      f"{h.directive}" if shmem else
                      f"the delivery of the receive posted by the "
                      f"directive at line {h.directive}"),
                origin=matched.rank,
                origin_post=matched.post.index,
                origin_sync=(matched.sync.index
                             if matched.sync is not None else None),
                shmem=shmem, put_like=put_like))
        for acc in accesses.raw_writes(tracer):
            add(acc)
    return groups


def _same_origin_ordered(a: _Access, b: _Access) -> bool:
    """True for two same-origin put deliveries ordered by the origin's
    flushing sync (put, flush/quiet, put never reorders).

    The delivery of a put-based lowering (SHMEM *or* MPI 1-sided) is
    performed by the origin's access epoch: the origin's quiet/flush
    completes it remotely before anything the origin posts afterwards,
    regardless of which put-based target each transfer uses. Two-sided
    deliveries are receiver-driven (the Waitall on the receiver closes
    them), so they never qualify."""
    if not (a.put_like and b.put_like and a.comm and b.comm):
        return False
    if a.origin is None or a.origin != b.origin:
        return False
    first, second = ((a, b) if (a.origin_post or 0) <= (b.origin_post
                                                        or 0)
                     else (b, a))
    return (first.origin_sync is not None
            and second.origin_post is not None
            and first.origin_sync <= second.origin_post)


def _classify(a: _Access, b: _Access) -> tuple[str, str]:
    """(code, message) for one conflicting pair."""
    name = a.name
    if a.kind == "write" and b.kind == "write":
        if (a.comm and b.comm and a.shmem and b.shmem
                and a.origin != b.origin):
            ov = a.span.overlap(b.span)
            assert ov is not None
            return "CI043", (
                f"symmetric-heap collision on {name!r}: unordered "
                f"puts from different origins ({a.desc}; {b.desc}) "
                f"overlap at {ov.describe()} of the same symmetric "
                f"allocation")
        ov = a.span.overlap(b.span)
        assert ov is not None
        return "CI040", (
            f"write-write race on {name!r}: {a.desc} writes "
            f"{a.span.describe()} while {b.desc} writes "
            f"{b.span.describe()} in the same open window; the "
            f"overlapping {ov.describe()} are schedule-dependent")
    read, write = (a, b) if a.kind == "read" else (b, a)
    ov = read.span.overlap(write.span)
    assert ov is not None
    if read.comm and write.comm:
        return "CI042", (
            f"send/recv aliasing on {name!r}: {read.desc} reads "
            f"{read.span.describe()} while {write.desc} writes "
            f"{write.span.describe()} on the same rank "
            f"(overlap {ov.describe()})")
    return "CI041", (
        f"read-write race on posted buffer {name!r}: {write.desc} "
        f"writes {write.span.describe()} while {read.desc} still "
        f"reads {read.span.describe()} before its guaranteeing "
        f"synchronization (overlap {ov.describe()})")


def race_diagnostics(tracers: Sequence[RankTrace],
                     clocks: dict[hb.Event, list[int]], target: Target,
                     loop_varying: frozenset[int],
                     accesses: WalkAccesses) -> list[Diagnostic]:
    """All CI04x findings for one swept target, rank-aggregated.

    ``clocks`` are the target graph's vector clocks
    (:func:`repro.core.analysis.hb.vector_clocks`); ``accesses`` is
    the walk's shared memo of target-independent accesses."""
    groups = _collect(tracers, clocks, target, accesses)

    found: dict[tuple[str, str, int, int, str], tuple[str, str,
                                                      int | None,
                                                      list[int]]] = {}
    order: list[tuple[str, str, int, int, str]] = []
    for (owner, _name), accesses in sorted(groups.items()):
        accesses.sort(key=lambda x: (x.start, x.line, x.kind))
        for i, a in enumerate(accesses):
            for b in accesses[i + 1:]:
                if a.kind == "read" and b.kind == "read":
                    continue
                if not (a.start < b.end and b.start < a.end):
                    continue
                if a.span.overlap(b.span) is None:
                    continue
                if _same_origin_ordered(a, b):
                    continue
                code, message = _classify(a, b)
                demote = (a.span.widened or b.span.widened
                          or a.directive in loop_varying
                          or b.directive in loop_varying)
                severity = "warning" if demote else "error"
                if demote:
                    message += (" (demoted: the byte intervals are "
                                "widened or the directive iterates "
                                "with loop-carried clauses)")
                line = max(a.line, b.line)
                directive = (b.directive if b.line >= a.line
                             else a.directive)
                key = (code, a.name, min(a.line, b.line), line,
                       message)
                if key not in found:
                    found[key] = (message, severity, directive, [])
                    order.append(key)
                found[key][3].append(owner)
    out: list[Diagnostic] = []
    for key in order:
        code, _name, _lo_line, line, _msg = key
        message, severity, directive, ranks = found[key]
        uniq = sorted(set(ranks))
        plural = "s" if len(uniq) > 1 else ""
        rank_list = ", ".join(str(r) for r in uniq)
        out.append(make(
            code, line,
            f"{message} (rank{plural} {rank_list})",
            directive=directive, target=target.value,
            severity=severity))
    return out
