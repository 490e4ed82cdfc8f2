"""Overlap legality: may a directive's body run during the transfer?

The body of a ``comm_p2p`` is "a region of computation that can overlap
communication at run time" (Section III). That is only sound when the
body does not touch the buffers in flight: reading an ``rbuf`` before
synchronization observes indeterminate data; writing an ``sbuf`` races
the outgoing transfer. This static check scans the body's raw source
for occurrences of the directive's buffer base names — conservative in
the direction a compiler must be (identifier occurrence => assume
access).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.core.analysis.independence import buffer_names
from repro.core.ir import (
    ClauseExprs,
    Node,
    P2PNode,
    ParamRegionNode,
    RawCode,
)


@dataclass(frozen=True)
class OverlapVerdict:
    legal: bool
    reason: str

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.legal


def _body_text(nodes: list[Node]) -> str:
    parts: list[str] = []
    for n in nodes:
        if isinstance(n, RawCode):
            parts.extend(n.lines)
        elif isinstance(n, (P2PNode, ParamRegionNode)):
            parts.extend(_body_text(n.body).splitlines())
    return "\n".join(parts)


def overlap_legal(node: P2PNode, clauses: ClauseExprs) -> OverlapVerdict:
    """Check whether the body may overlap this directive's transfers.

    ``clauses`` are the directive's effective clauses
    (:meth:`repro.core.ir.Program.p2p_clauses`), so buffers its region
    supplies count.
    """
    text = _body_text(node.body)
    if not text.strip():
        return OverlapVerdict(True, "empty body")
    for name in sorted(buffer_names(clauses)):
        if re.search(rf"\b{re.escape(name)}\b", text):
            return OverlapVerdict(
                False,
                f"body references in-flight buffer {name!r}; it must "
                "not be accessed before the synchronization point")
    return OverlapVerdict(True, "body is independent of the directive's "
                                "buffers")
