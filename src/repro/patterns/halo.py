"""Nearest-neighbour halo exchanges (1-D decomposition).

The workhorse of stencil codes: each rank exchanges boundary slabs
with both neighbours. Expressed as two directives inside one
``comm_parameters`` region, whose synchronization consolidates into a
single call — the structured-region payoff of Section III-A.
"""

from __future__ import annotations

import numpy as np

from repro import mpi

NAME = "halo1d"

#: The right-going and left-going shifts in one region, as annotated
#: source (see :mod:`repro.patterns.catalog`).
SOURCE = """\
double right_edge[8];
double left_halo[8];
double left_edge[8];
double right_halo[8];
int rank, nprocs;
right_edge[0] = rank + 1;
left_edge[0] = rank + 101;
#pragma comm_parameters place_sync(END_PARAM_REGION)
{
#pragma comm_p2p sender(rank-1) receiver(rank+1) sendwhen(rank<nprocs-1) receivewhen(rank>0) sbuf(right_edge) rbuf(left_halo)
#pragma comm_p2p sender(rank+1) receiver(rank-1) sendwhen(rank>0) receivewhen(rank<nprocs-1) sbuf(left_edge) rbuf(right_halo)
}
stencil(left_halo, right_halo);
"""


def run_mpi(comm: mpi.Comm, interior: np.ndarray,
            left_halo: np.ndarray, right_halo: np.ndarray) -> None:
    """Hand-written halo exchange with per-request waits."""
    rank, size = comm.rank, comm.size
    right_edge = np.ascontiguousarray(interior[-left_halo.size:])
    left_edge = np.ascontiguousarray(interior[:right_halo.size])
    reqs = []
    if rank > 0:
        reqs.append(comm.Irecv(left_halo, source=rank - 1, tag=103))
        reqs.append(comm.Isend(left_edge, dest=rank - 1, tag=104))
    if rank < size - 1:
        reqs.append(comm.Irecv(right_halo, source=rank + 1, tag=104))
        reqs.append(comm.Isend(right_edge, dest=rank + 1, tag=103))
    for r in reqs:
        comm.Wait(r)
