"""Directive IR: what the static front end builds and analyses consume.

The runtime DSL evaluates clauses eagerly; the static path keeps them
as *expression text* (exactly what a pragma in C source carries) so the
analyses can reason over all ranks and the code generators can splice
the expressions into generated library calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.clauses import SyncPlacement, Target, override
from repro.dtypes.composite import CompositeType
from repro.dtypes.primitives import PrimitiveType
from repro.errors import ClauseError


@dataclass(frozen=True)
class BufferDecl:
    """A buffer's declaration, recovered from the source."""

    name: str
    #: Element type: a primitive or a composite (struct) type.
    ctype: "PrimitiveType | CompositeType"
    #: Declared array length; None for pointers (length unknown).
    length: int | None = None
    #: True if declared as a pointer (``double *p``).
    is_pointer: bool = False

    @property
    def is_array(self) -> bool:
        """True when the declaration carries a fixed length."""
        return self.length is not None


#: Canonical clause printing order for :meth:`ClauseExprs.to_source`.
#: Deterministic output is what makes parse -> print -> parse a
#: fixpoint (the substrate ``repro-lint --fix`` rewrites stand on).
_CLAUSE_ORDER = ("sender", "receiver", "sendwhen", "receivewhen",
                 "sbuf", "rbuf", "count", "max_comm_iter", "target",
                 "place_sync")


@dataclass
class ClauseExprs:
    """A directive's clauses as raw expression text / name lists."""

    #: Expression-valued clauses: sender, receiver, sendwhen,
    #: receivewhen, count, max_comm_iter (text as written).
    exprs: dict[str, str] = field(default_factory=dict)
    #: sbuf/rbuf: ordered buffer expression lists.
    sbuf: list[str] = field(default_factory=list)
    rbuf: list[str] = field(default_factory=list)
    #: Keyword clauses, already parsed.
    target: Target | None = None
    place_sync: SyncPlacement | None = None

    def has(self, name: str) -> bool:
        """True when the named clause was written in the pragma."""
        if name == "sbuf":
            return bool(self.sbuf)
        if name == "rbuf":
            return bool(self.rbuf)
        if name == "target":
            return self.target is not None
        if name == "place_sync":
            return self.place_sync is not None
        return name in self.exprs

    def merged_into(self, inner: "ClauseExprs") -> "ClauseExprs":
        """Region clauses apply to instances; instance overrides."""
        out = ClauseExprs()
        out.exprs = override(self.exprs, inner.exprs)
        out.sbuf = list(inner.sbuf or self.sbuf)
        out.rbuf = list(inner.rbuf or self.rbuf)
        out.target = inner.target or self.target
        out.place_sync = None  # region-level only
        return out

    def require_complete(self) -> None:
        """Raise unless the four required clauses are present."""
        missing = [n for n in ("sender", "receiver", "sbuf", "rbuf")
                   if not self.has(n)]
        if missing:
            raise ClauseError(
                f"comm_p2p is missing required clause(s) {missing}")

    def to_source(self) -> str:
        """Pragma clause text in canonical order.

        Printing is deterministic (clause order is fixed, buffer lists
        keep their order, keyword clauses print their source spelling)
        so parse -> print -> parse is a fixpoint.
        """
        parts: list[str] = []
        for name in _CLAUSE_ORDER:
            if name in ("sbuf", "rbuf"):
                bufs: list[str] = getattr(self, name)
                if bufs:
                    parts.append(f"{name}({', '.join(bufs)})")
            elif name == "target":
                if self.target is not None:
                    parts.append(f"target({self.target.value})")
            elif name == "place_sync":
                if self.place_sync is not None:
                    parts.append(f"place_sync({self.place_sync.value})")
            elif name in self.exprs:
                parts.append(f"{name}({self.exprs[name]})")
        return " ".join(parts)


def _body_source(nodes: list["Node"], indent: int) -> str:
    return "\n".join(n.to_source(indent) for n in nodes)


@dataclass
class RawCode:
    """Unanalyzed source lines passed through verbatim."""

    lines: list[str]
    line: int = 0

    def to_source(self, indent: int = 0) -> str:
        """Verbatim lines (original indentation is preserved)."""
        return "\n".join(self.lines)


@dataclass
class P2PNode:
    """One ``#pragma comm_p2p`` with its (possibly empty) body block."""

    clauses: ClauseExprs
    body: list["Node"] = field(default_factory=list)
    line: int = 0

    def to_source(self, indent: int = 0) -> str:
        """The pragma line plus its braced body (omitted when empty)."""
        pad = " " * indent
        head = f"{pad}#pragma comm_p2p"
        clause_text = self.clauses.to_source()
        if clause_text:
            head = f"{head} {clause_text}"
        if not self.body:
            return head
        inner = _body_source(self.body, indent + 4)
        return f"{head}\n{pad}{{\n{inner}\n{pad}}}"


@dataclass
class ParamRegionNode:
    """One ``#pragma comm_parameters`` region."""

    clauses: ClauseExprs
    body: list["Node"] = field(default_factory=list)
    line: int = 0

    def to_source(self, indent: int = 0) -> str:
        """The pragma line plus an always-braced body.

        A brace-less region would capture the *next* statement on
        re-parse, so the printer always emits the block form.
        """
        pad = " " * indent
        head = f"{pad}#pragma comm_parameters"
        clause_text = self.clauses.to_source()
        if clause_text:
            head = f"{head} {clause_text}"
        inner = _body_source(self.body, indent + 4)
        if inner:
            return f"{head}\n{pad}{{\n{inner}\n{pad}}}"
        return f"{head}\n{pad}{{\n{pad}}}"

    @property
    def place_sync(self) -> SyncPlacement:
        """The region's sync placement (defaulted)."""
        return self.clauses.place_sync or SyncPlacement.END_PARAM_REGION

    def p2p_instances(self) -> list[P2PNode]:
        """All comm_p2p nodes in this region, in textual order."""
        out: list[P2PNode] = []

        def walk(nodes: list[Node]) -> None:
            for n in nodes:
                if isinstance(n, P2PNode):
                    out.append(n)
                    walk(n.body)
                elif isinstance(n, ParamRegionNode):
                    walk(n.body)

        walk(self.body)
        return out


Node = RawCode | P2PNode | ParamRegionNode


@dataclass
class Program:
    """A parsed translation unit: declarations + the node sequence."""

    decls: dict[str, BufferDecl] = field(default_factory=dict)
    structs: dict[str, CompositeType] = field(default_factory=dict)
    nodes: list[Node] = field(default_factory=list)

    def to_source(self) -> str:
        """Print the program back to annotated source.

        Declarations live inside :class:`RawCode` nodes, so re-parsing
        the printed text recovers the same declarations; the printed
        form is a parse -> print fixpoint (printing the re-parse yields
        the identical string).
        """
        return "\n".join(n.to_source() for n in self.nodes) + "\n"

    def regions(self) -> list[ParamRegionNode]:
        """Top-level comm_parameters regions, in textual order."""
        return [n for n in self.nodes if isinstance(n, ParamRegionNode)]

    def all_p2p(self) -> list[P2PNode]:
        """Every comm_p2p node in the program, in textual order."""
        out: list[P2PNode] = []

        def walk(nodes: list[Node]) -> None:
            for n in nodes:
                if isinstance(n, P2PNode):
                    out.append(n)
                    walk(n.body)
                elif isinstance(n, ParamRegionNode):
                    walk(n.body)

        walk(self.nodes)
        return out

    def p2p_clauses(self) -> list[tuple[P2PNode, ParamRegionNode | None,
                                        ClauseExprs]]:
        """Every comm_p2p node with its scope and effective clauses, in
        textual order.

        The one static implementation of the Section III-A scoping
        rule, as the runtime applies it: the scope is the innermost
        enclosing ``comm_parameters`` region (None for a standalone
        instance), and the effective clauses are that region's with the
        instance's own overriding them. Outer regions contribute
        nothing, and ``place_sync``/``max_comm_iter`` never merge down.
        """
        out: list[tuple[P2PNode, ParamRegionNode | None, ClauseExprs]] = []

        def walk(nodes: list[Node], scope: ParamRegionNode | None) -> None:
            for n in nodes:
                if isinstance(n, P2PNode):
                    out.append((n, scope,
                                scope.clauses.merged_into(n.clauses)
                                if scope is not None else n.clauses))
                    walk(n.body, scope)
                elif isinstance(n, ParamRegionNode):
                    walk(n.body, n)

        walk(self.nodes, None)
        return out

    def adjacent_region_chains(self) -> list[list[ParamRegionNode]]:
        """Maximal runs of comm_parameters regions adjacent in the node
        sequence (only trivial raw code between them breaks nothing;
        any non-empty raw code separates chains)."""
        chains: list[list[ParamRegionNode]] = []
        current: list[ParamRegionNode] = []
        for n in self.nodes:
            if isinstance(n, ParamRegionNode):
                current.append(n)
            else:
                nonblank = isinstance(n, RawCode) and any(
                    ln.strip() for ln in n.lines)
                if nonblank or not isinstance(n, RawCode):
                    if current:
                        chains.append(current)
                    current = []
        if current:
            chains.append(current)
        return chains
