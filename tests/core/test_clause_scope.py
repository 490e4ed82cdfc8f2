"""One clause-scoping rule for every reader of a ``comm_p2p``'s clauses.

Section III-A: a ``comm_parameters`` region's clauses apply to the
``comm_p2p`` instances in its scope, and instance clauses override
them. The runtime (``CommP2P.__enter__``) takes the innermost enclosing
region only; :meth:`repro.core.ir.Program.p2p_clauses` is the one
static implementation of that rule. Each nesting probe is checked three
ways:

* the effective clauses ``p2p_clauses()`` reports;
* ``lint_program`` (CI030 or clean) against ``simulate_program``
  (``ClauseError`` or clean) on every lowering target;
* the Python DSL run through the Engine, nesting ``comm_parameters``
  and ``comm_p2p`` with each directive's *own* clauses, so the
  runtime's merge (not progsim's) decides.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from repro import mpi, shmem
from repro.core import exprs
from repro.core.analysis.lint import lint_program
from repro.core.analysis.progsim import simulate_program
from repro.core.analysis.syncopt import plan_synchronization
from repro.core.analysis.verify import _loop_varying_lines
from repro.core.clauses import Target
from repro.core.directives import comm_flush, comm_p2p, comm_parameters
from repro.core.ir import ClauseExprs, P2PNode, ParamRegionNode, Program
from repro.core.pragma import parse_program
from repro.errors import ReproError, SimProcessError
from repro.netmodel import gemini_model
from repro.sim import Engine

NPROCS = 4
#: Bound for the free name the max_comm_iter probes' partners read.
EXTRA_VARS = {"k": 1}

LEFT = "(rank-1+nprocs)%nprocs"
RIGHT = "(rank+1)%nprocs"
DECLS = """\
double a[4];
double b[4];
double c[4];
double d[4];
int rank, nprocs;
"""

NESTED_PROBE = (Path(__file__).resolve().parents[2] / "examples"
                / "pragmas" / "bad" / "nested_scope_missing_clause.c")


@dataclass(frozen=True)
class Probe:
    name: str
    source: str
    #: ``ClauseExprs.to_source()`` of each directive's effective
    #: clauses, in textual order.
    effective: tuple[str, ...]
    #: "clean" or the name of the error the runtime raises.
    verdict: str
    #: True when every directive is loop-varying (max_comm_iter in its
    #: scope region and partners that read a program variable).
    iterates: bool = False


PROBES = [
    # The outer region's buffers do not reach a directive whose
    # innermost region sets none.
    Probe("nested-missing-buffers", NESTED_PROBE.read_text(),
          (f"sender({RIGHT}) receiver({LEFT})",), "ClauseError"),
    # The inner region's sender wins; the outer sender(rank) would
    # leave every receive unmatched.
    Probe("inner-region-sender", DECLS + f"""\
#pragma comm_parameters sender(rank) receiver({RIGHT}) sbuf(c) rbuf(d)
{{
#pragma comm_parameters sender({LEFT}) receiver({RIGHT}) sbuf(a) rbuf(b)
{{
#pragma comm_p2p
}}
}}
""", (f"sender({LEFT}) receiver({RIGHT}) sbuf(a) rbuf(b)",), "clean"),
    # The verdict rests on the instance override: the region's
    # receiver(rank) alone deadlocks every rank.
    Probe("instance-receiver", DECLS + f"""\
#pragma comm_parameters sender({LEFT}) receiver(rank) sbuf(a) rbuf(b)
{{
#pragma comm_p2p receiver({RIGHT})
}}
""", (f"sender({LEFT}) receiver({RIGHT}) sbuf(a) rbuf(b)",), "clean"),
    Probe("inherited-buffers", DECLS + f"""\
#pragma comm_parameters sender({LEFT}) receiver({RIGHT}) sbuf(a) rbuf(b)
{{
#pragma comm_p2p
#pragma comm_p2p
}}
""", (f"sender({LEFT}) receiver({RIGHT}) sbuf(a) rbuf(b)",) * 2,
          "clean"),
    # max_comm_iter counts the executions in the innermost region: the
    # outer region's limit of 1 sees none of the inner two.
    Probe("max-comm-iter-outer", DECLS + f"""\
#pragma comm_parameters max_comm_iter(1)
{{
#pragma comm_parameters sender((rank-k+nprocs)%nprocs) receiver((rank+k)%nprocs)
{{
#pragma comm_p2p sbuf(a) rbuf(b)
#pragma comm_p2p sbuf(c) rbuf(d)
}}
}}
""", ("sender((rank-k+nprocs)%nprocs) receiver((rank+k)%nprocs) "
      "sbuf(a) rbuf(b)",
      "sender((rank-k+nprocs)%nprocs) receiver((rank+k)%nprocs) "
      "sbuf(c) rbuf(d)"), "clean"),
    Probe("max-comm-iter-inner", DECLS + f"""\
#pragma comm_parameters
{{
#pragma comm_parameters sender((rank-k+nprocs)%nprocs) receiver((rank+k)%nprocs) max_comm_iter(2)
{{
#pragma comm_p2p sbuf(a) rbuf(b)
#pragma comm_p2p sbuf(c) rbuf(d)
}}
}}
""", ("sender((rank-k+nprocs)%nprocs) receiver((rank+k)%nprocs) "
      "sbuf(a) rbuf(b)",
      "sender((rank-k+nprocs)%nprocs) receiver((rank+k)%nprocs) "
      "sbuf(c) rbuf(d)"), "clean", iterates=True),
]

IDS = [p.name for p in PROBES]


def _outcome(run) -> str:
    """"clean", or the name of the error a rank (or the caller) hit."""
    try:
        run()
    except SimProcessError as exc:
        return type(exc.__cause__).__name__
    except ReproError as exc:
        return type(exc).__name__
    return "clean"


def _own_clauses(clauses: ClauseExprs, buffers: dict[str, np.ndarray],
                 variables: dict[str, int]) -> dict:
    """A directive's own clauses, evaluated for the runtime DSL."""
    out: dict = {name: exprs.evaluate(text, variables)
                 for name, text in clauses.exprs.items()}
    for name in ("sendwhen", "receivewhen"):
        if name in out:
            out[name] = bool(out[name])
    if clauses.sbuf:
        out["sbuf"] = [buffers[b] for b in clauses.sbuf]
    if clauses.rbuf:
        out["rbuf"] = [buffers[b] for b in clauses.rbuf]
    return out


def run_dsl(program: Program, target: Target, profile: bool = False):
    """Run ``program`` as nested Python-DSL directives on the Engine."""
    model = gemini_model()

    def main(env):
        mpi.init(env, model)
        heap = shmem.init(env) if target is Target.SHMEM else None
        buffers = {
            name: (heap.malloc(decl.length, np.float64) if heap
                   else np.zeros(decl.length))
            for name, decl in program.decls.items()
            if decl.length is not None}
        variables = {"rank": env.rank, "nprocs": env.size,
                     "size": env.size, **EXTRA_VARS}

        def walk(nodes):
            for node in nodes:
                if isinstance(node, ParamRegionNode):
                    own = _own_clauses(node.clauses, buffers, variables)
                    with comm_parameters(env, **own):
                        walk(node.body)
                elif isinstance(node, P2PNode):
                    own = _own_clauses(node.clauses, buffers, variables)
                    with comm_p2p(env, target=target, **own):
                        walk(node.body)

        walk(program.nodes)
        comm_flush(env)

    return Engine(NPROCS, max_time=10.0, profile=profile).run(main)


@pytest.mark.parametrize("probe", PROBES, ids=IDS)
def test_effective_clauses(probe):
    program = parse_program(probe.source)
    got = tuple(clauses.to_source()
                for _node, _scope, clauses in program.p2p_clauses())
    assert got == probe.effective
    iterating = ({n.line for n in program.all_p2p()} if probe.iterates
                 else set())
    assert _loop_varying_lines(program) == iterating


@pytest.mark.parametrize("probe", PROBES, ids=IDS)
def test_scope_region_is_innermost(probe):
    program = parse_program(probe.source)
    innermost = {}

    def walk(nodes, region):
        for node in nodes:
            if isinstance(node, ParamRegionNode):
                walk(node.body, node)
            elif isinstance(node, P2PNode):
                innermost[id(node)] = region
                walk(node.body, region)

    walk(program.nodes, None)
    for node, scope, _clauses in program.p2p_clauses():
        assert scope is innermost[id(node)]


@pytest.mark.parametrize("target", list(Target), ids=lambda t: t.name)
@pytest.mark.parametrize("probe", PROBES, ids=IDS)
def test_static_progsim_and_dsl_agree(probe, target):
    program = parse_program(probe.source)
    report = lint_program(program, NPROCS, extra_vars=EXTRA_VARS)
    static = {d.code for d in report.errors}
    assert static == ({"CI030"} if probe.verdict == "ClauseError"
                      else set()), report.render()
    simulated = _outcome(lambda: simulate_program(
        parse_program(probe.source), NPROCS, target=target,
        extra_vars=EXTRA_VARS))
    assert simulated == probe.verdict
    assert _outcome(lambda: run_dsl(program, target)) == probe.verdict


#: Two instances on one buffer pair, the buffers written on the region
#: or on each instance: the runtime splits the sync either way.
SHARED_BUFFERS = {
    "region": DECLS + f"""\
#pragma comm_parameters sender({LEFT}) receiver({RIGHT}) sbuf(a) rbuf(b)
{{
#pragma comm_p2p
#pragma comm_p2p
}}
""",
    "instances": DECLS + f"""\
#pragma comm_parameters sender({LEFT}) receiver({RIGHT})
{{
#pragma comm_p2p sbuf(a) rbuf(b)
#pragma comm_p2p sbuf(a) rbuf(b)
}}
""",
}


@pytest.mark.parametrize("where", sorted(SHARED_BUFFERS))
def test_region_buffers_count_for_consolidation(where):
    program = parse_program(SHARED_BUFFERS[where])
    plan = plan_synchronization(program)
    result = run_dsl(program, Target.MPI_2SIDE, profile=True)
    syncs = [s for s in result.profile.of_kind("sync") if s.rank == 0]
    assert plan.total_sync_calls == len(syncs) == 2
    report = lint_program(program, NPROCS)
    assert [d.code for d in report.diagnostics] == ["CI021"]
