"""Pipeline: element-wise forwarding through a rank chain.

The paper's Listing 3 shape: a ``comm_parameters`` region with
``max_comm_iter`` wrapping a loop of per-element ``comm_p2p``
directives, all synchronized once at region end.
"""

from __future__ import annotations

import numpy as np

from repro import mpi

NAME = "pipeline"

#: Listing 3 as annotated source (see :mod:`repro.patterns.catalog`).
#: The directive IR has no loops, so the text unrolls the element loop
#: for ``n = 4``, one single-element buffer pair per iteration: static
#: buffer independence is decided by name, so ``&out[p]`` slices of one
#: array would read as dependent and split the region's one sync.
SOURCE = """\
double out0[1]; double in0[1];
double out1[1]; double in1[1];
double out2[1]; double in2[1];
double out3[1]; double in3[1];
int rank, nprocs;
out0[0] = rank + 1;
out1[0] = rank + 101;
out2[0] = rank + 201;
out3[0] = rank + 301;
#pragma comm_parameters sender(rank-1) receiver(rank+1) sendwhen(rank<nprocs-1) receivewhen(rank>0) count(1) max_comm_iter(n) place_sync(END_PARAM_REGION)
{
#pragma comm_p2p sbuf(out0) rbuf(in0)
#pragma comm_p2p sbuf(out1) rbuf(in1)
#pragma comm_p2p sbuf(out2) rbuf(in2)
#pragma comm_p2p sbuf(out3) rbuf(in3)
}
consume(in0, in1, in2, in3);
"""


def run_mpi(comm: mpi.Comm, out: np.ndarray, inb: np.ndarray) -> None:
    """Hand-written equivalent with per-request waits."""
    rank, size = comm.rank, comm.size
    n = out.size
    reqs = []
    if rank > 0:
        for p in range(n):
            reqs.append(comm.Irecv(inb[p:p + 1], source=rank - 1, tag=p))
    if rank < size - 1:
        for p in range(n):
            reqs.append(comm.Isend(out[p:p + 1], dest=rank + 1, tag=p))
    for r in reqs:
        comm.Wait(r)
