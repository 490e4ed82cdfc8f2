"""Hub patterns: fan-out (root scatters rows) and fan-in (root collects).

These are the WL-LSMS privileged-process patterns (Fig. 2): the
privileged rank distributes per-member payloads and later collects
results, expressed as one directive per peer inside a region so the
root's synchronization consolidates.
"""

from __future__ import annotations

import numpy as np

from repro import mpi
from repro.core import comm_p2p, comm_parameters
from repro.sim.process import Env

NAME_OUT = "fanout"
NAME_IN = "fanin"

#: Root 0 scatters one row to each of peers 1..4 (a 5-rank world) as
#: annotated source: the region names the root, each instance one peer,
#: guarded by ``k<nprocs`` so a smaller world skips absent peers (see
#: :mod:`repro.patterns.catalog`). Every peer has its own buffer pair:
#: static buffer independence is decided by name.
FANOUT_SOURCE = """\
double row1[4]; double got1[4];
double row2[4]; double got2[4];
double row3[4]; double got3[4];
double row4[4]; double got4[4];
int rank, nprocs;
row1[0] = 1;
row2[0] = 2;
row3[0] = 3;
row4[0] = 4;
#pragma comm_parameters sender(0) place_sync(END_PARAM_REGION)
{
#pragma comm_p2p receiver(1) sendwhen(rank==0 && 1<nprocs) receivewhen(rank==1) sbuf(row1) rbuf(got1)
#pragma comm_p2p receiver(2) sendwhen(rank==0 && 2<nprocs) receivewhen(rank==2) sbuf(row2) rbuf(got2)
#pragma comm_p2p receiver(3) sendwhen(rank==0 && 3<nprocs) receivewhen(rank==3) sbuf(row3) rbuf(got3)
#pragma comm_p2p receiver(4) sendwhen(rank==0 && 4<nprocs) receivewhen(rank==4) sbuf(row4) rbuf(got4)
}
consume(got1, got2, got3, got4);
"""

#: Peers 1..4 each send one part to root 0, the mirror of
#: :data:`FANOUT_SOURCE`.
FANIN_SOURCE = """\
double part1[4]; double col1[4];
double part2[4]; double col2[4];
double part3[4]; double col3[4];
double part4[4]; double col4[4];
int rank, nprocs;
part1[0] = rank + 1;
part2[0] = rank + 1;
part3[0] = rank + 1;
part4[0] = rank + 1;
#pragma comm_parameters receiver(0) place_sync(END_PARAM_REGION)
{
#pragma comm_p2p sender(1) sendwhen(rank==1) receivewhen(rank==0 && 1<nprocs) sbuf(part1) rbuf(col1)
#pragma comm_p2p sender(2) sendwhen(rank==2) receivewhen(rank==0 && 2<nprocs) sbuf(part2) rbuf(col2)
#pragma comm_p2p sender(3) sendwhen(rank==3) receivewhen(rank==0 && 3<nprocs) sbuf(part3) rbuf(col3)
#pragma comm_p2p sender(4) sendwhen(rank==4) receivewhen(rank==0 && 4<nprocs) sbuf(part4) rbuf(col4)
}
consume(col1, col2, col3, col4);
"""


def run_fanout_directive(env: Env, root: int, data: np.ndarray | None,
                         mine: np.ndarray) -> None:
    """Root sends row ``p`` of ``data`` to rank ``p``; others receive."""
    with comm_parameters(env, sender=root,
                         place_sync="END_PARAM_REGION"):
        for peer in range(env.size):
            if peer == root:
                continue
            row = data[peer] if env.rank == root else mine
            with comm_p2p(env, receiver=peer,
                          sendwhen=env.rank == root,
                          receivewhen=env.rank == peer,
                          sbuf=np.ascontiguousarray(row), rbuf=mine):
                pass
    if env.rank == root:
        mine[...] = data[root]


def run_fanout_mpi(comm: mpi.Comm, root: int, data: np.ndarray | None,
                   mine: np.ndarray) -> None:
    """Hand-written fan-out with per-request waits."""
    if comm.rank == root:
        reqs = [comm.Isend(np.ascontiguousarray(data[p]), dest=p, tag=105)
                for p in range(comm.size) if p != root]
        for r in reqs:
            comm.Wait(r)
        mine[...] = data[root]
    else:
        comm.Recv(mine, source=root, tag=105)


def run_fanin_directive(env: Env, root: int, mine: np.ndarray,
                        collected: np.ndarray | None) -> None:
    """Every rank sends its buffer to the root's row ``rank``."""
    with comm_parameters(env, receiver=root,
                         place_sync="END_PARAM_REGION"):
        for peer in range(env.size):
            if peer == root:
                continue
            row = collected[peer] if env.rank == root else mine
            with comm_p2p(env, sender=peer,
                          sendwhen=env.rank == peer,
                          receivewhen=env.rank == root,
                          sbuf=mine, rbuf=np.ascontiguousarray(row)):
                pass
    if env.rank == root:
        collected[root][...] = mine


def run_fanin_mpi(comm: mpi.Comm, root: int, mine: np.ndarray,
                  collected: np.ndarray | None) -> None:
    """Hand-written fan-in with per-request waits."""
    if comm.rank == root:
        reqs = [comm.Irecv(collected[p], source=p, tag=106)
                for p in range(comm.size) if p != root]
        for r in reqs:
            comm.Wait(r)
        collected[root][...] = mine
    else:
        comm.Send(mine, dest=root, tag=106)
