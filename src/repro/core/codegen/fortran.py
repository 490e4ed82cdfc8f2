"""Fortran code generation (communication skeleton).

The paper's directives work in C, C++ and Fortran sources. Our static
front end parses the C-like form only, so the Fortran generator emits a
*subroutine skeleton* from the same IR: the translated communication
statements in Fortran with raw C statements carried along as comments.
This demonstrates the multi-language back end without a Fortran parser.
"""

from __future__ import annotations

from repro.core.analysis.infer import infer_count_static, infer_element_type
from repro.core.analysis.syncopt import plan_synchronization
from repro.core.clauses import Target
from repro.core.ir import (
    Node,
    P2PNode,
    ParamRegionNode,
    Program,
    RawCode,
)
from repro.dtypes.composite import CompositeType

_F_TYPES = {
    "MPI_CHAR": "MPI_CHARACTER",
    "MPI_INT": "MPI_INTEGER",
    "MPI_LONG": "MPI_INTEGER8",
    "MPI_FLOAT": "MPI_REAL",
    "MPI_DOUBLE": "MPI_DOUBLE_PRECISION",
}


def generate_fortran(program: Program,
                     default_target: Target = Target.MPI_2SIDE,
                     name: str = "cd_translated") -> str:
    """Emit a Fortran subroutine with the translated communication."""
    lines: list[str] = [
        f"subroutine {name}(rank, nprocs)",
        "  use mpi",
        "  implicit none",
        "  integer :: rank, nprocs, ierr, cd_nreq",
        "  integer :: cd_reqs(16384)",
        "  integer :: cd_statuses(MPI_STATUS_SIZE, 16384)",
        "  cd_nreq = 0",
    ]
    plan = plan_synchronization(program)
    effective = {id(node): clauses
                 for node, _scope, clauses in program.p2p_clauses()}
    end_syncs = {id(p.node) for p in plan.points if p.position == "end"}
    begin_syncs = {id(p.node) for p in plan.points
                   if p.position == "begin"}
    tag = [0]

    def emit_nodes(nodes: list[Node], depth: int) -> None:
        pad = "  " * (depth + 1)
        for node in nodes:
            if isinstance(node, RawCode):
                for ln in node.lines:
                    if ln.strip():
                        lines.append(f"{pad}! C: {ln.strip()}")
            elif isinstance(node, ParamRegionNode):
                lines.append(f"{pad}! comm_parameters region")
                if id(node) in begin_syncs:
                    emit_sync(node, pad)
                emit_nodes(node.body, depth + 1)
                if id(node) in end_syncs:
                    emit_sync(node, pad)
            elif isinstance(node, P2PNode):
                emit_p2p(node, depth)

    def emit_sync(region: ParamRegionNode, pad: str) -> None:
        target = region.clauses.target or default_target
        if target is Target.SHMEM:
            lines.append(f"{pad}call shmem_quiet()")
            lines.append(f"{pad}call shmem_barrier_all()")
        else:
            lines.append(f"{pad}call MPI_WAITALL(cd_nreq, cd_reqs, "
                         "cd_statuses, ierr)")
            lines.append(f"{pad}cd_nreq = 0")

    def emit_p2p(node: P2PNode, depth: int) -> None:
        pad = "  " * (depth + 1)
        cl = effective[id(node)]
        cl.require_complete()
        count = infer_count_static(cl, program.decls)
        ctype = infer_element_type(cl, program.decls)
        if isinstance(ctype, CompositeType):
            ftype = "MPI_BYTE"
        else:
            ftype = _F_TYPES.get(ctype.mpi_name, "MPI_BYTE")
        t = tag[0]
        tag[0] += 1
        send = cl.exprs.get("sendwhen")
        recv = cl.exprs.get("receivewhen")
        if send:
            lines.append(f"{pad}if ({_f_expr(send)}) then")
        for b in cl.sbuf:
            lines.append(
                f"{pad}  call MPI_ISEND({_f_name(b)}, {count}, {ftype}, "
                f"{_f_expr(cl.exprs['receiver'])}, {t}, MPI_COMM_WORLD, "
                "cd_reqs(cd_nreq+1), ierr)")
            lines.append(f"{pad}  cd_nreq = cd_nreq + 1")
        if send:
            lines.append(f"{pad}end if")
        if recv:
            lines.append(f"{pad}if ({_f_expr(recv)}) then")
        for b in cl.rbuf:
            lines.append(
                f"{pad}  call MPI_IRECV({_f_name(b)}, {count}, {ftype}, "
                f"{_f_expr(cl.exprs['sender'])}, {t}, MPI_COMM_WORLD, "
                "cd_reqs(cd_nreq+1), ierr)")
            lines.append(f"{pad}  cd_nreq = cd_nreq + 1")
        if recv:
            lines.append(f"{pad}end if")
        emit_nodes(node.body, depth + 1)

    emit_nodes(program.nodes, 0)
    lines.append(f"end subroutine {name}")
    return "\n".join(lines) + "\n"


def _f_expr(expr: str) -> str:
    """C boolean/arithmetic expression -> Fortran spelling."""
    out = expr
    for c, f in (("&&", " .and. "), ("||", " .or. "), ("==", " == "),
                 ("!=", " /= "), ("%", " mod_op "), ("!", " .not. ")):
        out = out.replace(c, f)
    # 'a mod_op b' -> 'mod(a, b)' is non-trivial textually; keep the
    # readable infix note for generated review code.
    return out.replace(" mod_op ", " MOD ")


def _f_name(buffer_expr: str) -> str:
    return buffer_expr.strip().lstrip("&")
