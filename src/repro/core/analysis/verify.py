"""Whole-program static verification over the directive IR.

The paper's Section I claim is that directives make communication
*analyzable*. This module is the strongest form of that claim the
repository implements: a per-rank symbolic executor that unrolls each
directive for a concrete ``nprocs``, synchronizes where the runtime
region machinery (:class:`repro.core.region.RegionState`) would, and
proves or refutes three properties over the resulting happens-before
graph (:mod:`repro.core.analysis.hb`):

1. **deadlock freedom** — no cross-rank wait-for cycle, no wait on a
   message that is never sent, no one-sided put without a reachable
   exposure epoch (``CI001``/``CI002``/``CI003``);
2. **no stale reads** — every use of a receive buffer is dominated by
   the synchronization that guarantees it (``CI011``/``CI012``; the
   overlap-body case ``CI010`` is covered by
   :func:`repro.core.analysis.overlap.overlap_legal`);
3. **consolidation safety** — directives consolidated into one
   synchronization group have independent buffers; aliasing downgrades
   the plan with an extra split instead of miscompiling (``CI020``).

The executor is deliberately the static twin of
:mod:`repro.core.region`: posts accumulate into a pending set, region
ends flush it as their ``place_sync`` placement says, an instance whose
buffers alias pending communication forces the pending synchronization
first. It is the one place the static side evaluates each rank's
partner clauses (:func:`repro.core.analysis.dataflow.partners`) and
pairs each send with its receive; lint reads the communication graphs
it builds from the former (:attr:`VerifyReport.comm_graphs`), and
every target, the race pass and the differential oracle's payload mask
read the latter. The same three *weakenings* the
dynamic sync-plan fuzzer applies to ``PendingComm.sync`` at run
time (:data:`WEAKENINGS`) can be applied here symbolically, which is
what lets ``tests/faults/test_fuzz.py`` cross-check that every plan the
fuzzer catches dynamically is also refuted statically.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace

from repro.core import exprs
from repro.core.analysis import hb
from repro.core.analysis.codes import Diagnostic, make
from repro.core.analysis.dataflow import CommGraph, graph_of, partners
from repro.core.analysis.independence import base_identifier
from repro.core.analysis.races import WalkAccesses, race_diagnostics
from repro.core.clauses import SyncPlacement, Target
from repro.core.ir import (
    ClauseExprs,
    Node,
    P2PNode,
    ParamRegionNode,
    Program,
    RawCode,
)
from repro.errors import ClauseError, ReproError

#: Sync-plan weakenings shared with the dynamic fuzzer. Each mirrors a
#: bug a hand-written (or miscompiled) synchronization could have:
#:
#: * ``drop-last-recv`` — every synchronization call silently forgets
#:   its last pending receive handle;
#: * ``drop-all-recvs`` — synchronization completes sends only;
#: * ``skip-first-sync`` — each rank's first non-empty synchronization
#:   call is elided entirely (its handles are discarded).
WEAKEN_DROP_LAST_RECV = "drop-last-recv"
WEAKEN_DROP_ALL_RECVS = "drop-all-recvs"
WEAKEN_SKIP_FIRST_SYNC = "skip-first-sync"
WEAKENINGS: tuple[str, ...] = (
    WEAKEN_DROP_LAST_RECV,
    WEAKEN_DROP_ALL_RECVS,
    WEAKEN_SKIP_FIRST_SYNC,
)

_IDENT = re.compile(r"[A-Za-z_]\w*")

#: Raw-code assignment into a subscripted buffer (``buf[i] = ...``,
#: compound assignments included; ``==``/``<=``/``>=``/``!=`` are not
#: assignments).
_ASSIGN = re.compile(
    r"\b([A-Za-z_]\w*)\s*\[([^\][]*)\]\s*(?:[+\-*/%&|^]|<<|>>)?=(?!=)")

#: One rank's evaluation of one directive's partner clauses:
#: ``(sends_here, recvs_here, src, dst)`` or the finding it failed with.
_PartnerRow = tuple[bool, bool, int, int] | Diagnostic


@dataclass
class VerifyReport:
    """Outcome of one static verification pass (one default target)."""

    target: Target
    nprocs: int
    diagnostics: list[Diagnostic] = field(default_factory=list)
    #: The happens-before graph, for tooling/tests; None when the
    #: program had nothing to unroll.
    graph: hb.HBGraph | None = None
    #: Each directive's pattern, in :meth:`Program.p2p_clauses` order;
    #: None when a clause is missing (CI030) or fails on a rank (CI004).
    comm_graphs: list[CommGraph | None] = field(default_factory=list)

    @property
    def errors(self) -> list[Diagnostic]:
        """Error-severity findings (the program is refuted)."""
        return [d for d in self.diagnostics if d.severity == "error"]

    @property
    def warnings(self) -> list[Diagnostic]:
        """Warning-severity findings."""
        return [d for d in self.diagnostics if d.severity == "warning"]


# ---------------------------------------------------------------------------
# Per-rank symbolic execution


@dataclass
class _Downgrade:
    """One forced synchronization split the executor had to insert."""

    line: int                 # directive that forced the split
    names: frozenset[str]     # aliased buffer names
    cross_region: bool        # aliasing spans a region boundary


class _RankTracer:
    """Symbolically executes the program on one rank.

    Mirrors :class:`repro.core.region.RegionState`: posts accumulate in
    a pending set; plan points (and forced dependent flushes) emit SYNC
    events completing the pending handles, subject to the configured
    weakening. The walk is target-independent: each handle records only
    its directive's effective ``target`` clause (None = the default),
    which each swept target resolves with
    :meth:`repro.core.analysis.hb.Handle.lowering`. ``scope`` maps
    ``id(node)`` to the directive's position in
    :meth:`repro.core.ir.Program.p2p_clauses`, the ``id`` of its scope
    region (None when standalone) and its effective clauses; the ids
    keep a cached walk from holding the program's IR. The tracer appends
    its :data:`_PartnerRow` for each directive to ``partner_rows`` at
    that position; the ranks run in order, so each list is in rank
    order.
    """

    def __init__(self, rank: int, nprocs: int, variables: dict[str, int],
                 scope: dict[int, tuple[int, int | None, ClauseExprs]],
                 rbuf_names: frozenset[str],
                 weakening: str | None,
                 buffer_names: frozenset[str],
                 partner_rows: list[list[_PartnerRow]]) -> None:
        self.rank = rank
        self.nprocs = nprocs
        self.variables = variables
        self.scope = scope
        self.rbuf_names = rbuf_names
        self.buffer_names = buffer_names
        self.weakening = weakening
        self.trace: list[hb.Event] = []
        self.handles: list[hb.Handle] = []
        self.pending: list[hb.Handle] = []
        self.downgrades: list[_Downgrade] = []
        self.partner_rows = partner_rows
        #: The placement policy deferring the current carry, mirroring
        #: :class:`repro.core.region.RegionState.carry_mode`.
        self.carry_mode: SyncPlacement | None = None
        self._skipped_first_sync = False
        self._enclosing: list[int] = []

    # -- events -----------------------------------------------------------

    def _event(self, kind: str, line: int, *, directive: int | None = None,
               peer: int | None = None,
               names: frozenset[str] = frozenset(),
               writes: frozenset[tuple[str, str]] = frozenset()
               ) -> hb.Event:
        event = hb.Event(rank=self.rank, index=len(self.trace), kind=kind,
                         line=line, directive=directive, peer=peer,
                         names=names, writes=writes,
                         enclosing=tuple(self._enclosing))
        self.trace.append(event)
        return event

    def _emit_sync(self, line: int) -> None:
        """Flush the pending set through one synchronization call."""
        live = self.pending
        self.pending = []
        if not live:
            return
        if (self.weakening == WEAKEN_SKIP_FIRST_SYNC
                and not self._skipped_first_sync):
            # The call is elided; its handles are never synchronized.
            self._skipped_first_sync = True
            return
        if self.weakening == WEAKEN_DROP_LAST_RECV:
            recvs = [h for h in live if h.kind == "recv"]
            if recvs:
                live = [h for h in live if h is not recvs[-1]]
        elif self.weakening == WEAKEN_DROP_ALL_RECVS:
            live = [h for h in live if h.kind != "recv"]
        if not live:
            return
        event = self._event(hb.SYNC, line)
        for handle in live:
            handle.sync = event

    # -- program walk -----------------------------------------------------

    def run(self, nodes: list[Node]) -> None:
        """Execute the whole program on this rank."""
        self._walk(nodes)
        # The runtime flushes any carried synchronization when the rank
        # finishes (the trailing comm_flush of
        # :func:`repro.core.analysis.progsim.simulate_program`); a
        # terminal BEGIN_NEXT/END_ADJ carry completes there, not at its
        # region's end.
        if self.pending:
            last = self.trace[-1].line if self.trace else 0
            self._emit_sync(last + 1)

    def _walk(self, nodes: list[Node]) -> None:
        for node in nodes:
            if isinstance(node, RawCode):
                self._scan_uses(node)
            elif isinstance(node, ParamRegionNode):
                # Mirror RegionState.on_region_enter/on_region_exit:
                # a carried sync drains at the entry of the region that
                # ends its deferral, and a non-default placement defers
                # this region's own pending instead of flushing it.
                placement = node.place_sync
                if self.carry_mode is SyncPlacement.BEGIN_NEXT_PARAM_REGION:
                    self._emit_sync(node.line)
                    self.carry_mode = None
                elif (self.carry_mode
                      is SyncPlacement.END_ADJ_PARAM_REGIONS
                      and placement
                      is not SyncPlacement.END_ADJ_PARAM_REGIONS):
                    self._emit_sync(node.line)
                    self.carry_mode = None
                self._walk(node.body)
                if placement is SyncPlacement.END_PARAM_REGION:
                    self._emit_sync(node.line)
                    self.carry_mode = None
                else:
                    self.carry_mode = placement
            elif isinstance(node, P2PNode):
                self._directive(node)

    def _scan_uses(self, node: RawCode) -> None:
        text = "\n".join(node.lines)
        idents = _IDENT.findall(text)
        assigns = [(m.group(1), m.group(2).strip())
                   for m in _ASSIGN.finditer(text)
                   if m.group(1) in self.buffer_names]
        lhs_counts: dict[str, int] = {}
        for name, _ in assigns:
            lhs_counts[name] = lhs_counts.get(name, 0) + 1
        # A name whose every appearance is an assignment LHS is written,
        # not read — it must not count as a stale-read use.
        reads = frozenset(
            name for name in set(idents) & self.rbuf_names
            if idents.count(name) > lhs_counts.get(name, 0))
        writes = frozenset(assigns)
        if reads or writes:
            self._event(hb.USE, node.line, names=reads, writes=writes)

    def _directive(self, node: P2PNode) -> None:
        position, region_key, clauses = self.scope[id(node)]
        resolved = self._partners(node, position, clauses)
        target = (clauses.target.value if clauses.target is not None
                  else None)
        standalone = region_key is None
        pending_box = [] if standalone else self.pending

        posted: list[hb.Handle] = []
        if resolved is not None:
            sends_here, recvs_here, src, dst = resolved
            # Dependent-buffer flush (Section III-A): an instance whose
            # buffers alias pending communication forces the pending
            # synchronization first — the plan is downgraded, never
            # miscompiled.
            live_names = _live_names(clauses, sends_here, recvs_here)
            if any(live_names & h.names for h in self.pending):
                # The runtime performs this flush for *every* directive
                # whose buffers alias pending communication — a
                # standalone comm_p2p drains carried sync too, it just
                # keeps its own handles in its own set afterwards.
                cross = any(live_names & h.names
                            and h.region_key != region_key
                            for h in self.pending)
                self.downgrades.append(_Downgrade(
                    node.line, live_names, cross))
                self._emit_sync(node.line)
                self.carry_mode = None
                if not standalone:
                    pending_box = self.pending
            # Receives before sends, as the runtime posts them (so
            # one-sided exposure precedes the matching put).
            if recvs_here and 0 <= src < self.nprocs:
                for rb in clauses.rbuf:
                    posted.append(self._post("recv", node, src,
                                             frozenset({
                                                 base_identifier(rb)}),
                                             target, region_key, rb))
            if sends_here and 0 <= dst < self.nprocs:
                for i, sb in enumerate(clauses.sbuf):
                    # The runtime zips sbuf with rbuf: send i delivers
                    # into the i-th receive buffer on the destination.
                    dest = (clauses.rbuf[i]
                            if i < len(clauses.rbuf) else "")
                    posted.append(self._post("send", node, dst,
                                             frozenset({
                                                 base_identifier(sb)}),
                                             target, region_key, sb,
                                             dest_expr=dest))
            pending_box.extend(posted)

        self._enclosing.append(node.line)
        self._walk(node.body)
        self._enclosing.pop()

        if standalone:
            # A standalone comm_p2p synchronizes its own pending at its
            # exit, independent of any carried communication.
            saved = self.pending
            self.pending = pending_box
            self._emit_sync(node.line)
            self.pending = saved

    def _partners(self, node: P2PNode, position: int,
                  clauses: ClauseExprs) -> tuple[bool, bool, int, int] | None:
        """:func:`~repro.core.analysis.dataflow.partners` on this rank,
        recorded in ``partner_rows``; None (nothing is posted) when
        a required clause is missing (CI030) or evaluation fails."""
        try:
            clauses.require_complete()
        except ClauseError:
            return None
        row: _PartnerRow
        try:
            row = partners(clauses, self.variables)
        except ClauseError as exc:
            row = make("CI004", node.line, str(exc), directive=node.line)
        except ReproError as exc:
            row = make("CI032", node.line,
                       f"pattern not statically evaluable: {exc}",
                       directive=node.line)
        self.partner_rows[position].append(row)
        return None if isinstance(row, Diagnostic) else row

    def _post(self, kind: str, node: P2PNode, peer: int,
              names: frozenset[str], target: str | None,
              region_key: int | None,
              expr: str = "", dest_expr: str = "") -> hb.Handle:
        event = self._event(hb.POST_SEND if kind == "send"
                            else hb.POST_RECV,
                            node.line, directive=node.line, peer=peer,
                            names=names)
        handle = hb.Handle(kind=kind, rank=self.rank, peer=peer,
                           post=event, directive=node.line, names=names,
                           target=target, expr=expr,
                           dest_expr=dest_expr,
                           region_key=region_key)
        self.handles.append(handle)
        return handle


def _live_names(clauses: ClauseExprs, sends_here: bool,
                recvs_here: bool) -> frozenset[str]:
    """Buffer base names this rank actually touches at the directive."""
    names: set[str] = set()
    if sends_here:
        names.update(base_identifier(e) for e in clauses.sbuf)
    if recvs_here:
        names.update(base_identifier(e) for e in clauses.rbuf)
    return frozenset(names)


# ---------------------------------------------------------------------------
# Pairing and per-target cross-rank assembly


def _pair(tracers: list[_RankTracer]) -> None:
    """Pair send and receive halves positionally per ordered rank pair,
    mirroring the runtime's per-channel sequence numbers; no target is
    read, so one pairing serves every target."""
    sends: dict[tuple[int, int], list[hb.Handle]] = {}
    recvs: dict[tuple[int, int], list[hb.Handle]] = {}
    for tracer in tracers:
        for handle in tracer.handles:
            if handle.kind == "send":
                sends.setdefault((handle.rank, handle.peer),
                                 []).append(handle)
            else:
                recvs.setdefault((handle.peer, handle.rank),
                                 []).append(handle)
    for pair, slist in sends.items():
        for s, r in zip(slist, recvs.get(pair, [])):
            s.partner, r.partner = r, s


def _build_graph(tracers: list[_RankTracer], nprocs: int,
                 target: Target) -> hb.HBGraph:
    """Target-aware cross-rank dependencies over the rank traces."""
    default = target.value
    graph = hb.HBGraph(nprocs=nprocs,
                       traces=[t.trace for t in tracers])
    for tracer in tracers:
        for h in tracer.handles:
            lowering = h.lowering(default)
            matched = h.match(default)
            # Below, an unmatched half's partner is lowered differently:
            # no backend delivers across lowerings (CI007).
            if h.kind == "send":
                if lowering == Target.MPI_1SIDE.value:
                    # The put itself needs the target's exposure epoch.
                    if matched is not None:
                        graph.add_dep(h.post, matched.post)
                    elif h.partner is not None:
                        graph.add_missing(h.post, "CI007", (
                            f"one-sided put from rank {h.rank} to rank "
                            f"{h.peer} (directive at line "
                            f"{h.directive}, target {lowering}) is "
                            f"paired with a receive lowered to "
                            f"{h.partner.lowering(default)} (directive "
                            f"at line {h.partner.directive}); no backend "
                            "delivers across lowerings, so no exposure "
                            "epoch ever reaches the put"),
                            directive=h.directive)
                    else:
                        graph.add_missing(h.post, "CI003", (
                            f"one-sided put from rank {h.rank} to rank "
                            f"{h.peer} (directive at line {h.directive}) "
                            "has no reachable exposure epoch: the "
                            "target's receivewhen never exposes the "
                            "buffer"), directive=h.directive)
                continue
            # Receive halves: the guaranteeing sync waits for either the
            # matching post (two-sided) or the origin's flushing sync
            # (one-sided notify).
            if h.sync is None:
                continue
            if matched is None:
                if h.partner is not None:
                    graph.add_missing(h.sync, "CI007", (
                        f"synchronization at line {h.sync.line} on "
                        f"rank {h.rank} waits for a message from rank "
                        f"{h.peer} lowered to "
                        f"{h.partner.lowering(default)} (directive at "
                        f"line {h.partner.directive}), but this receive "
                        f"is lowered to {lowering} (directive at line "
                        f"{h.directive}); no backend delivers across "
                        "lowerings"), directive=h.directive)
                else:
                    graph.add_missing(h.sync, "CI002", (
                        f"synchronization at line {h.sync.line} on "
                        f"rank {h.rank} waits for a message from "
                        f"sender {h.peer} to receiver {h.rank} "
                        f"(directive at line {h.directive}) that is "
                        "never sent"), directive=h.directive)
            elif lowering == Target.MPI_2SIDE.value:
                graph.add_dep(h.sync, matched.post)
            elif matched.sync is None:
                graph.add_missing(h.sync, "CI002", (
                    f"synchronization at line {h.sync.line} on rank "
                    f"{h.rank} waits for the notify of the message from "
                    f"sender {h.peer} to receiver {h.rank} (directive "
                    f"at line {h.directive}), but the sender's flushing "
                    "synchronization never runs"),
                    directive=h.directive)
            else:
                # A one-sided sync flushes outgoing puts and notifies
                # *before* waiting on incoming notifies, so the receiver
                # only needs the sender to *reach* its sync call — i.e.
                # everything before it on the sender's rank, not the
                # sync's own completion (that would manufacture cycles).
                sender_trace = graph.traces[matched.rank]
                graph.add_dep(h.sync,
                              sender_trace[matched.sync.index - 1])
    return graph


# ---------------------------------------------------------------------------
# Property checks


def _deadlock_diagnostics(graph: hb.HBGraph,
                          done: dict[hb.Event, list[int]], target: Target,
                          loop_varying: frozenset[int]
                          ) -> list[Diagnostic]:
    """CI001/CI002/CI003/CI007 from the executable events ``done``
    (the keys of :func:`repro.core.analysis.hb.vector_clocks`)."""
    if len(done) == sum(len(t) for t in graph.traces):
        return []  # every rank runs to completion
    out: list[Diagnostic] = []
    seen: set[tuple[str, str]] = set()
    blocked = graph.blocked_frontier(done)
    for event in blocked:
        for code, reason, dline in graph.missing.get(event, ()):
            if (code, reason) in seen:
                continue
            seen.add((code, reason))
            # A missing partner is only a *proof* when the directive
            # runs once with these clause values. Under max_comm_iter
            # with loop-carried partner expressions (the paper's
            # Listing 7: receiver(rcv_rank) advances per iteration),
            # one unrolled snapshot cannot establish starvation —
            # demote to a warning.
            if dline is not None and dline in loop_varying:
                out.append(make(
                    code, event.line, reason
                    + " in this unrolled snapshot; the directive "
                    "iterates (max_comm_iter) with loop-carried "
                    "partner expressions, so a later iteration may "
                    "satisfy it", directive=dline,
                    target=target.value, severity="warning"))
                continue
            out.append(make(code, event.line, reason,
                            directive=dline,
                            target=target.value))
    cycle = hb.find_cycle(graph, done)
    if cycle:
        hops = []
        for i, event in enumerate(cycle):
            waits_on = cycle[(i + 1) % len(cycle)]
            hops.append(f"rank {event.rank} blocks at "
                        f"{event.describe()} waiting on rank "
                        f"{waits_on.rank}")
        out.append(make(
            "CI001", cycle[0].line,
            "deadlock cycle: " + "; ".join(hops),
            directive=cycle[0].directive, target=target.value))
    return out


def _stale_read_diagnostics(tracers: list[_RankTracer]
                            ) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    never: dict[tuple[int, frozenset[str]], list[int]] = {}
    early: dict[tuple[int, frozenset[str], int, str], list[int]] = {}
    for tracer in tracers:
        for h in tracer.handles:
            if h.kind != "recv":
                continue
            if h.sync is None:
                never.setdefault((h.directive, h.names),
                                 []).append(h.rank)
            for use in tracer.trace:
                if use.kind != hb.USE or use.index <= h.post.index:
                    continue
                if not (use.names & h.names):
                    continue
                if h.directive in use.enclosing:
                    continue  # overlap-body case: CI010 (overlap_legal)
                if h.sync is None or use.index < h.sync.index:
                    code = "CI011" if h.sync is None else "CI012"
                    early.setdefault(
                        (h.directive, h.names, use.line, code),
                        []).append(h.rank)
    for (directive, names, use_line, code), ranks in sorted(
            early.items(), key=lambda kv: (kv[0][2], kv[0][0])):
        what = ("is never guaranteed by any synchronization"
                if code == "CI011"
                else "is read before the synchronization that "
                     "guarantees it")
        out.append(make(
            code, use_line,
            f"stale read: {_namelist(names)} received by the directive "
            f"at line {directive} {what} "
            f"(rank{_plural(ranks)} {_ranklist(ranks)})",
            directive=directive))
    for (directive, names), ranks in sorted(never.items()):
        out.append(make(
            "CI011", directive,
            f"receive buffer{_plural(list(names))} {_namelist(names)} "
            f"of the directive at line {directive} "
            f"{'are' if len(names) > 1 else 'is'} never guaranteed by "
            f"any synchronization; the final data is stale on "
            f"rank{_plural(ranks)} {_ranklist(ranks)}",
            directive=directive))
    return out


def _consolidation_diagnostics(tracers: list[_RankTracer]
                               ) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    seen: set[int] = set()
    for tracer in tracers:
        for d in tracer.downgrades:
            if not d.cross_region or d.line in seen:
                continue
            seen.add(d.line)
            out.append(make(
                "CI020", d.line,
                f"directive at line {d.line} shares "
                f"{_namelist(d.names)} with communication consolidated "
                "from an earlier region; the sync plan is downgraded "
                "with an extra synchronization before this directive",
                directive=d.line))
    return out


def _namelist(names: frozenset[str]) -> str:
    return ", ".join(repr(n) for n in sorted(names))


def _ranklist(ranks: list[int]) -> str:
    return ", ".join(str(r) for r in sorted(set(ranks)))


def _plural(items: list[int] | list[str]) -> str:
    return "s" if len(set(items)) > 1 else ""


# ---------------------------------------------------------------------------
# Entry point


def _shared_walk(program: Program, nprocs: int,
                 extra_vars: dict[str, int] | None,
                 weakening: str | None) -> hb.CachedUnroll:
    """Symbolically execute the program on every rank and pair the
    posted halves, once for every lowering target; the walk of
    (program, nprocs, extra_vars, weakening) is memoized in
    :data:`repro.core.analysis.hb.GRAPH_CACHE`.
    """
    key = hb.unroll_key(program.to_source(), _node_lines(program.nodes),
                        nprocs, extra_vars, weakening)
    walk = hb.GRAPH_CACHE.get(key)
    if walk is not None:
        return walk
    scope = {id(node): (position, None if region is None else id(region),
                        clauses)
             for position, (node, region, clauses)
             in enumerate(program.p2p_clauses())}
    rbuf_names = frozenset(
        base_identifier(e) for _, _, clauses in scope.values()
        for e in clauses.rbuf)
    buffer_names = frozenset(program.decls) | rbuf_names | frozenset(
        base_identifier(e) for _, _, clauses in scope.values()
        for e in clauses.sbuf)
    tracers: list[_RankTracer] = []
    partner_rows: list[list[_PartnerRow]] = [[] for _ in scope]
    for rank in range(nprocs):
        variables = {"nprocs": nprocs, "size": nprocs,
                     **(extra_vars or {}), "rank": rank}
        tracer = _RankTracer(rank, nprocs, variables, scope, rbuf_names,
                             weakening, buffer_names, partner_rows)
        tracer.run(program.nodes)
        tracers.append(tracer)
    _pair(tracers)
    walk = hb.CachedUnroll(tracers=tracers)
    for rows in partner_rows:
        failed = [r for r in rows if isinstance(r, Diagnostic)]
        evaluated = [r for r in rows if not isinstance(r, Diagnostic)]
        # The first failing rank's CI004/CI032 stands for the directive.
        walk.clause_failures.extend(failed[:1])
        walk.comm_graphs.append(graph_of(nprocs, evaluated)
                                if evaluated and not failed else None)
    hb.GRAPH_CACHE.put(key, walk)
    return walk


def _node_lines(nodes: list[Node]) -> tuple[int, ...]:
    """Every node's source line, which the walk's findings carry and
    the printed source does not fix (it drops blank lines)."""
    lines: list[int] = []
    for node in nodes:
        lines.append(node.line)
        if isinstance(node, (P2PNode, ParamRegionNode)):
            lines.extend(_node_lines(node.body))
    return tuple(lines)


def undefined_payload_buffers(
        program: Program, nprocs: int,
        target: Target | str = Target.MPI_2SIDE,
        extra_vars: dict[str, int] | None = None
        ) -> frozenset[tuple[int, str]]:
    """``(rank, buffer)`` pairs whose final contents the directive
    contract leaves undefined under one default target.

    A send with no matching receive is never guaranteed by any
    synchronization: a SHMEM put lands its bytes anyway, a two-sided
    Isend never does, and the deferred-delivery fault mode legitimately
    parks them forever. Bit-for-bit payload comparisons (across
    lowerings, or across adversarial schedules) must exclude these
    buffers — their contents are lowering- and schedule-defined, not
    program-defined. Reads the pairing of the verifier's shared,
    unweakened walk.
    """
    walk = _shared_walk(program, nprocs, extra_vars, None)
    default = Target.parse(target).value
    out: set[tuple[int, str]] = set()
    for tracer in walk.tracers:
        for h in tracer.handles:
            if h.kind != "send" or not h.dest_expr:
                continue
            matched = h.match(default)
            if matched is None:
                out.add((h.peer, base_identifier(h.dest_expr)))
            elif matched.expr != h.dest_expr:
                # The pairing disagrees on the delivery site: a put
                # writes where the *sender* aims, a two-sided receive
                # where the *receiver* posted. Both destinations are
                # lowering-defined, not program-defined.
                out.add((h.peer, base_identifier(h.dest_expr)))
                out.add((h.peer, base_identifier(matched.expr)))
    return frozenset(out)


def verify_program(program: Program, nprocs: int = 8,
                   target: Target | str = Target.MPI_2SIDE,
                   extra_vars: dict[str, int] | None = None,
                   weakening: str | None = None) -> VerifyReport:
    """Statically verify a parsed program for one default target.

    Unrolls every directive over ``nprocs`` ranks (a directive's own
    ``target`` clause overrides the default), synchronizing as the
    runtime region machinery does, and checks deadlock freedom,
    stale-read freedom, consolidation safety and byte-interval race
    freedom. ``weakening`` applies one of :data:`WEAKENINGS` to every
    synchronization, mirroring the dynamic fuzzer's adversarial plans.

    The rank walk is keyed without the target and read by every target
    (see :func:`verify_all_targets`); it is memoized in
    :data:`repro.core.analysis.hb.GRAPH_CACHE`, so verifying the same
    source for another target re-walks nothing.
    """
    target = Target.parse(target)
    return verify_all_targets(
        program, nprocs=nprocs, extra_vars=extra_vars,
        targets=[target], weakening=weakening)[target]


def verify_all_targets(program: Program, nprocs: int = 8,
                       extra_vars: dict[str, int] | None = None,
                       targets: "list[Target] | None" = None,
                       weakening: str | None = None
                       ) -> dict[Target, VerifyReport]:
    """Batch entry point: one :class:`VerifyReport` per lowering target.

    The ranks are walked once for the whole sweep: the walk (posts,
    syncs, uses, downgrades, each directive's communication graph and
    the pairing of every send with its receive) is a pure function of
    (printed source, node lines, nprocs, extra_vars, weakening) and
    records each handle's own ``target`` clause only. Each swept target
    then reads the pairing under its lowering (a partner lowered
    differently is CI007) and builds its happens-before graph. The
    findings that read no lowering (CI004/CI032 for failing partner
    clauses, stale reads and consolidation downgrades) are computed
    once over the walk and copied into each target's report; no
    deadlock, mismatched lowering or race is reported at or after the
    first failing directive, where the run aborts, and the race pass
    runs unless a deadlock before it is an error. The walk and the race
    pass's target-independent accesses live in
    :data:`repro.core.analysis.hb.GRAPH_CACHE`, so re-sweeps of the
    same source (the differential oracle, the fix engine's proof gate,
    per-target :func:`verify_program` calls) re-walk nothing.
    """
    if weakening is not None and weakening not in WEAKENINGS:
        raise ValueError(f"unknown weakening {weakening!r}; "
                         f"expected one of {WEAKENINGS}")
    swept = list(targets) if targets else list(Target)
    walk = _shared_walk(program, nprocs, extra_vars, weakening)
    loop_varying = _loop_varying_lines(program)
    first_failure = min((d.line for d in walk.clause_failures),
                        default=None)
    walked = any(t.handles for t in walk.tracers)
    shared = (_stale_read_diagnostics(walk.tracers)
              + _consolidation_diagnostics(walk.tracers)
              if walked else [])
    reports: dict[Target, VerifyReport] = {}
    for target in swept:
        report = VerifyReport(target=target, nprocs=nprocs,
                              comm_graphs=walk.comm_graphs)
        reports[target] = report
        report.diagnostics.extend(_for_target(walk.clause_failures,
                                              target))
        if not walked:
            continue
        graph = _build_graph(walk.tracers, nprocs, target)
        report.graph = graph
        clocks = hb.vector_clocks(graph)
        deadlocks = _before(first_failure, _deadlock_diagnostics(
            graph, clocks, target, loop_varying))
        report.diagnostics.extend(deadlocks)
        report.diagnostics.extend(_for_target(shared, target))
        if not any(d.severity == "error" for d in deadlocks):
            # The race pass orders events by their vector clocks; a
            # refuted-deadlocked unroll has no meaningful clocks to
            # reason over.
            if walk.accesses is None:
                walk.accesses = WalkAccesses(program)
            races = race_diagnostics(walk.tracers, clocks, target,
                                     loop_varying, walk.accesses)
            report.diagnostics.extend(_before(first_failure, races))
        report.diagnostics.sort(key=lambda d: d.sort_key())
    return reports


def _before(first_failure: int | None,
            diagnostics: list[Diagnostic]) -> list[Diagnostic]:
    """The deadlock (CI001-CI003, CI007) or race (CI04x) findings whose
    directive, else line, precedes the first failing directive.

    A directive whose clauses fail on a rank posts nothing there, and
    the run aborts there: the halves the positional pairing misses from
    that directive on are its CI004/CI032 finding, and what the
    unrolled snapshot shows after it never runs.
    """
    if first_failure is None:
        return diagnostics
    return [d for d in diagnostics
            if (d.directive or d.line) < first_failure]


def _for_target(diagnostics: list[Diagnostic],
                target: Target) -> list[Diagnostic]:
    """Copies of target-independent findings tagged with ``target``."""
    return [replace(d, target=target.value) for d in diagnostics]


#: Names the unroller itself binds; anything else is a program value.
_STATIC_NAMES = frozenset({"rank", "nprocs", "size"})


def _loop_varying_lines(program: Program) -> frozenset[int]:
    """Directives whose partner choice is loop-carried.

    A directive under ``max_comm_iter`` whose sender/receiver/when
    expressions reference program variables communicates with different
    partners on different iterations; one static unroll is a single
    snapshot of that loop, so missing-partner findings against it are
    demoted from proofs to warnings.
    """
    lines: set[int] = set()
    for node, region, clauses in program.p2p_clauses():
        # max_comm_iter never merges down: it counts the executions in
        # the directive's scope region.
        if region is None or "max_comm_iter" not in region.clauses.exprs:
            continue
        names: set[str] = set()
        for k in ("sender", "receiver", "sendwhen", "receivewhen"):
            if k in clauses.exprs:
                try:
                    names |= exprs.free_names(clauses.exprs[k])
                except ReproError:
                    pass
        if names - _STATIC_NAMES:
            lines.add(node.line)
    return frozenset(lines)
