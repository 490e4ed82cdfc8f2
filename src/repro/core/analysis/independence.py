"""Buffer-independence of adjacent directives.

Section III-A: "For every set of adjacent comm_p2p directives with
independent buffers, synchronization is consolidated and reduced in
most cases to one call at the end of all the adjacent communication."

Independence here is by buffer *name*: adjacent instances are
independent when their sbuf/rbuf name sets are disjoint (a conservative
symbolic check; aliasing through pointers defeats it, which is exactly
why the paper prohibits pointers inside composite types). The directive
runtime checks independence by *memory* instead, with
``numpy.shares_memory`` in :meth:`repro.core.region.PendingComm.overlaps`
before a new instance joins a consolidated sync group.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.core.ir import ClauseExprs, P2PNode


def buffer_names(clauses: ClauseExprs) -> set[str]:
    """The base buffer identifiers a directive references.

    ``&buf[i]``/``buf[i]`` expressions reduce to ``buf``; plain names
    stay as-is. This is the symbol-level view a compiler gets from the
    pragma's argument list.
    """
    names: set[str] = set()
    for expr in (*clauses.sbuf, *clauses.rbuf):
        names.add(base_identifier(expr))
    return names


def base_identifier(buffer_expr: str) -> str:
    """Strip address-of, indexing and member access to the base name."""
    e = buffer_expr.strip().lstrip("&").strip()
    for sep in ("[", "(", ".", "->"):
        idx = e.find(sep)
        if idx != -1:
            e = e[:idx]
    return e.strip()


def independent_groups(instances: list[P2PNode],
                       effective: Mapping[int, ClauseExprs]
                       ) -> list[list[P2PNode]]:
    """Partition adjacent instances into maximal consolidatable groups.

    Scanning in order, an instance joins the current group while its
    buffer names are disjoint from every name already in the group;
    a dependent instance closes the group (its sync must precede the
    dependent communication) and starts a new one. ``effective`` maps
    ``id(node)`` to the instance's effective clauses
    (:meth:`repro.core.ir.Program.p2p_clauses`), so buffers a region
    supplies count.
    """
    groups: list[list[P2PNode]] = []
    current: list[P2PNode] = []
    seen: set[str] = set()
    for node in instances:
        names = buffer_names(effective[id(node)])
        if current and not names.isdisjoint(seen):
            groups.append(current)
            current = []
            seen = set()
        current.append(node)
        seen |= names
    if current:
        groups.append(current)
    return groups
