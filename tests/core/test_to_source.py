"""The pragma printer: parse -> print -> parse is a fixpoint.

``Program.to_source`` (and ``print_program``) is the substrate the
proof-carrying fix engine rewrites through: every advisor rewrite is
applied to the IR, printed, and re-parsed before the verifier and
simulation gates run. These tests pin the printer's contract — printing
a parsed program and re-parsing it reproduces the same program, and a
second print is byte-identical to the first (canonical form).
"""

import glob
import os

import pytest

from repro.core.clauses import SyncPlacement, Target
from repro.core.ir import (
    ClauseExprs,
    P2PNode,
    ParamRegionNode,
    Program,
    RawCode,
)
from repro.core.pragma import parse_program, print_program

_EXAMPLES = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))), "examples", "pragmas")

EXAMPLE_FILES = sorted(
    glob.glob(os.path.join(_EXAMPLES, "*.c"))
    + glob.glob(os.path.join(_EXAMPLES, "slow", "*.c")))


def _shape(program: Program) -> list:
    """Structural fingerprint: node kinds, clauses, nesting, decls."""
    def node_shape(node):
        if isinstance(node, RawCode):
            return ("raw", tuple(ln.strip() for ln in node.lines
                                 if ln.strip()))
        if isinstance(node, P2PNode):
            return ("p2p", _clauses(node.clauses),
                    tuple(node_shape(b) for b in node.body))
        assert isinstance(node, ParamRegionNode)
        return ("region", _clauses(node.clauses),
                tuple(node_shape(b) for b in node.body))

    def _clauses(c: ClauseExprs):
        return (tuple(sorted(c.exprs.items())), tuple(c.sbuf),
                tuple(c.rbuf), c.target, c.place_sync)

    decls = {name: (d.ctype.c_name, d.length)
             for name, d in program.decls.items()}
    return [decls, [node_shape(n) for n in program.nodes]]


@pytest.mark.parametrize(
    "path", EXAMPLE_FILES,
    ids=[os.path.relpath(p, _EXAMPLES) for p in EXAMPLE_FILES])
def test_examples_round_trip(path):
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    prog1 = parse_program(source)
    printed1 = print_program(prog1)
    prog2 = parse_program(printed1)
    printed2 = print_program(prog2)
    assert _shape(prog1) == _shape(prog2)
    assert printed1 == printed2  # printing is idempotent


def test_catalog_round_trip():
    """Every pattern catalog text survives the round trip."""
    from repro.patterns.catalog import PATTERNS

    for name, spec in sorted(PATTERNS.items()):
        prog1 = parse_program(spec.source)
        printed = print_program(prog1)
        prog2 = parse_program(printed)
        assert _shape(prog1) == _shape(prog2), f"catalog:{name}"
        assert print_program(prog2) == printed, f"catalog:{name}"


def test_clause_order_is_canonical():
    src = """\
double a[4];
double b[4];
#pragma comm_p2p rbuf(b) receiver(rank+1) count(4) sbuf(a) sender(rank-1)
"""
    printed = print_program(parse_program(src))
    assert ("#pragma comm_p2p sender(rank-1) receiver(rank+1) "
            "sbuf(a) rbuf(b) count(4)") in printed


def test_region_always_braced():
    """A brace-less region body must print braced — otherwise the
    reparse would capture the *next* statement into the region."""
    src = """\
double a[4];
double b[4];
#pragma comm_parameters sender(rank-1) receiver(rank+1) sbuf(a) rbuf(b)
{
    #pragma comm_p2p
}
after();
"""
    prog = parse_program(src)
    printed = print_program(prog)
    reparsed = parse_program(printed)
    assert len(reparsed.regions()) == 1
    # after() stays OUTSIDE the region
    region = reparsed.regions()[0]
    body_text = region.to_source()
    assert "after()" not in body_text


def test_target_and_place_sync_print_enum_values():
    clauses = ClauseExprs(
        exprs={"sender": "rank-1", "receiver": "rank+1"},
        sbuf=["a"], rbuf=["b"],
        target=Target.SHMEM,
        place_sync=SyncPlacement.END_PARAM_REGION)
    node = ParamRegionNode(clauses=clauses, body=[], line=1)
    text = node.to_source()
    assert "target(TARGET_COMM_SHMEM)" in text
    assert "place_sync(END_PARAM_REGION)" in text


def test_empty_p2p_prints_bare_pragma():
    src = """\
double a[4];
double b[4];
#pragma comm_p2p sender(rank-1) receiver(rank+1) sbuf(a) rbuf(b)
"""
    printed = print_program(parse_program(src))
    assert printed.count("{") == 0
