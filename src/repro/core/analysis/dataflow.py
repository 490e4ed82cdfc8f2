"""SPMD dataflow: recover the concrete communication pattern.

Raising the abstraction level makes the communication *analyzable*
(Section I): because a directive carries the sender/receiver/when
expressions explicitly, evaluating them for every rank yields the full
send/receive edge set — something a compiler cannot generally extract
from hand-written MPI. :func:`partners` is the one static evaluation of
those clauses on one rank; the verifier's rank walk calls it and lint
reads the results (the program simulator evaluates them at run time,
as the runtime does). :func:`graph_of` collects them over a world,
:func:`validate_matching` checks the pattern (every send needs a
willing receiver whose ``sender`` clause points back), and
:func:`classify_pattern` names recurring shapes (the ring/shift/pairwise
patterns of the paper's references [1][2][3]).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core import exprs
from repro.core.ir import ClauseExprs
from repro.errors import ClauseError


@dataclass
class CommGraph:
    """The evaluated pattern of one directive over ``nprocs`` ranks."""

    nprocs: int
    #: Directed (sender, receiver) edges, one per sending rank.
    edges: list[tuple[int, int]] = field(default_factory=list)
    #: Ranks whose receivewhen is true, with their expected source.
    expects: dict[int, int] = field(default_factory=dict)

    @property
    def senders(self) -> set[int]:
        """Ranks with at least one outgoing edge."""
        return {s for s, _ in self.edges}


@dataclass(frozen=True)
class MatchingIssue:
    """One inconsistency between the send and receive sides.

    ``src``/``dst`` identify the offending sender→receiver pair so
    every rendering names both ends of the transfer, not just the rank
    the issue was detected on.
    """

    kind: str       # "unreceived-send" | "unsatisfied-receive" | ...
    rank: int
    detail: str
    src: int | None = None
    dst: int | None = None

    def __str__(self) -> str:
        pair = (f" ({self.src}->{self.dst})"
                if self.src is not None and self.dst is not None else "")
        return f"[{self.kind}] rank {self.rank}{pair}: {self.detail}"


def partners(clauses: ClauseExprs, variables: dict[str, Any]
             ) -> tuple[bool, bool, int, int]:
    """Evaluate a directive's partner clauses on one rank.

    Returns ``(sends_here, recvs_here, src, dst)``: whether the rank
    sends and receives at the directive, the rank it receives from and
    the rank it sends to, with -1 for a half that is switched off. An
    absent ``sendwhen``/``receivewhen`` is true. The clauses are
    evaluated in the order ``sendwhen``, ``receivewhen``, ``receiver``,
    ``sender``, so the first failing one is the one reported. An
    expression that fails arithmetically, or whose value is no integer
    rank (a float such as ``3.0`` or infinity, or a bool), raises
    :class:`ClauseError` naming the clause and the rank; one that is
    malformed or reads a name ``variables`` does not bind raises
    :class:`~repro.errors.PragmaSyntaxError`.
    """
    e = clauses.exprs
    name = "sendwhen"
    try:
        sends_here = name not in e or bool(exprs.evaluate(e[name], variables))
        name = "receivewhen"
        recvs_here = name not in e or bool(exprs.evaluate(e[name], variables))
        name = "receiver"
        dst = _rank_of(e[name], variables) if sends_here else -1
        name = "sender"
        src = _rank_of(e[name], variables) if recvs_here else -1
    except (ClauseError, ArithmeticError, ValueError) as exc:
        raise ClauseError(f"{name} clause on rank "
                          f"{variables.get('rank')}: {exc}") from exc
    return sends_here, recvs_here, src, dst


def _rank_of(expr: str, variables: dict[str, Any]) -> int:
    """``expr`` as a rank: an int, not a bool (the simulator's rule)."""
    value = exprs.evaluate(expr, variables)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"expression {expr!r} does not evaluate to an "
                         f"integer rank (got {value!r})")
    return value


def graph_of(nprocs: int,
             rows: list[tuple[bool, bool, int, int]]) -> CommGraph:
    """The pattern of one directive from its :func:`partners` result on
    each rank, in rank order."""
    if len(rows) != nprocs:
        raise ValueError(f"expected {nprocs} rank rows, got {len(rows)}")
    g = CommGraph(nprocs)
    for rank, (sends_here, recvs_here, src, dst) in enumerate(rows):
        if sends_here:
            g.edges.append((rank, dst))
        if recvs_here:
            g.expects[rank] = src
    return g


def comm_graph(clauses: ClauseExprs, nprocs: int,
               extra_vars: dict[str, Any] | None = None) -> CommGraph:
    """Evaluate a directive's clauses for every rank.

    ``extra_vars`` supplies values for free names beyond
    ``rank``/``nprocs`` (e.g. loop bounds) — same bindings on all ranks.
    """
    clauses.require_complete()
    return graph_of(nprocs, [partners(clauses, {
        "rank": rank, "nprocs": nprocs, "size": nprocs,
        **(extra_vars or {})}) for rank in range(nprocs)])


def validate_matching(graph: CommGraph) -> list[MatchingIssue]:
    """Check the send side against the receive side.

    Issues found:

    * a sender whose destination is out of range or not receiving;
    * a receiving rank whose expected source never sends to it;
    * a destination expecting a *different* source than the actual
      sender (mismatched sender clause).
    """
    issues: list[MatchingIssue] = []
    incoming: dict[int, list[int]] = {}
    for s, d in graph.edges:
        if not 0 <= d < graph.nprocs:
            issues.append(MatchingIssue(
                "invalid-destination", s,
                f"receiver expression evaluates to {d}, outside "
                f"0..{graph.nprocs - 1}", src=s, dst=d))
            continue
        incoming.setdefault(d, []).append(s)
        if d not in graph.expects:
            issues.append(MatchingIssue(
                "unreceived-send", s,
                f"sends to rank {d}, whose receivewhen is false",
                src=s, dst=d))
        elif graph.expects[d] != s:
            issues.append(MatchingIssue(
                "mismatched-sender", d,
                f"expects source {graph.expects[d]} but rank {s} "
                f"sends to it", src=s, dst=d))
    for r, src in graph.expects.items():
        if not 0 <= src < graph.nprocs:
            issues.append(MatchingIssue(
                "invalid-source", r,
                f"sender expression evaluates to {src}, outside "
                f"0..{graph.nprocs - 1}", src=src, dst=r))
        elif src not in [s for s in incoming.get(r, [])]:
            issues.append(MatchingIssue(
                "unsatisfied-receive", r,
                f"expects a message from rank {src}, which never sends "
                "to it", src=src, dst=r))
    return issues


def classify_pattern(graph: CommGraph) -> str:
    """Name the recurring point-to-point shape, if recognizable.

    Returns one of ``"ring"``, ``"shift"``, ``"pairwise"``,
    ``"fan-in"``, ``"fan-out"``, ``"none"`` or ``"irregular"``.
    """
    n = graph.nprocs
    edges = sorted(set(graph.edges))
    if not edges:
        return "none"
    # Ring: every rank sends to (rank+k)%n for one fixed k, all ranks.
    if len(edges) == n and len(graph.senders) == n:
        ks = {(d - s) % n for s, d in edges}
        if len(ks) == 1 and 0 not in ks:
            return "ring"
    # Pairwise: edges form disjoint 2-cycles or disjoint pairs.
    # (Checked before shift: even->odd neighbours are both, and the
    # pairwise reading is the stronger structural fact.)
    pair_map = dict(edges)
    if len(pair_map) == len(edges):
        if all(pair_map.get(d) == s for s, d in edges):
            return "pairwise"
        dsts = [d for _, d in edges]
        if len(set(dsts)) == len(dsts) and \
                set(dsts).isdisjoint(graph.senders):
            return "pairwise"
    # Shift: a partial ring (uniform offset, some ranks silent at the
    # boundary, no wraparound).
    ks = {d - s for s, d in edges}
    if len(ks) == 1 and 0 not in ks and len(edges) < n:
        return "shift"
    # Fan-in / fan-out: one hub.
    dsts = {d for _, d in edges}
    srcs = {s for s, _ in edges}
    if len(dsts) == 1 and len(edges) > 1:
        return "fan-in"
    if len(srcs) == 1 and len(edges) > 1:
        return "fan-out"
    return "irregular"
