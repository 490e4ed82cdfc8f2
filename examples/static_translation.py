#!/usr/bin/env python
"""Static translation demo: the compiler path of the paper.

Feeds pragma-annotated C-like source (the paper's Listing 5 with its
declarations) through the static pipeline:

1. parse the pragmas into directive IR;
2. run the analyses — per-rank communication pattern, matching
   validation, synchronization plan, overlap legality;
3. generate translated C for the MPI and SHMEM targets, plus the
   Fortran skeleton.

Run:  python examples/static_translation.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.bench.listings import LISTING5_ANNOTATED
from repro.core.analysis import (
    classify_pattern,
    comm_graph,
    overlap_legal,
    plan_synchronization,
    validate_matching,
)
from repro.core.clauses import Target
from repro.core.codegen import generate_c, generate_fortran
from repro.core.pragma import parse_program

RING_SOURCE = """\
double buf1[128];
double buf2[128];
int rank, nprocs;
#pragma comm_p2p sender((rank-1+nprocs)%nprocs) receiver((rank+1)%nprocs) sbuf(buf1) rbuf(buf2)
{
    update_interior(grid);
}
"""


def main() -> None:
    print("== 1. the paper's Listing 5 ==")
    program = parse_program(LISTING5_ANNOTATED)
    region = program.regions()[0]
    print(f"parsed: {len(program.regions())} region, "
          f"{len(program.all_p2p())} comm_p2p instances, "
          f"{len(program.structs)} struct type(s), "
          f"{len(program.decls)} buffer declaration(s)")

    plan = plan_synchronization(program)
    print(f"sync plan: {plan.total_sync_calls} call(s) covering "
          f"{sum(pt.covered_instances for pt in plan.points)} "
          f"instance(s) -> {plan.reduction_factor(program):.1f}x fewer "
          "than per-instance synchronization")

    print("\n-- generated C (MPI target) --")
    print(generate_c(program))

    print("-- generated C (SHMEM target) --")
    print(generate_c(program, default_target=Target.SHMEM))

    print("-- generated Fortran skeleton --")
    print(generate_fortran(program))

    print("== 2. dataflow analysis of a ring directive ==")
    ring = parse_program(RING_SOURCE)
    node, _scope, clauses = ring.p2p_clauses()[0]
    graph = comm_graph(clauses, nprocs=8)
    print(f"edges: {graph.edges}")
    print(f"classified pattern: {classify_pattern(graph)!r}")
    issues = validate_matching(graph)
    print(f"matching issues: {issues or 'none'}")
    verdict = overlap_legal(node, clauses)
    print(f"overlap legality of the body: {verdict.legal} "
          f"({verdict.reason})")


if __name__ == "__main__":
    main()
