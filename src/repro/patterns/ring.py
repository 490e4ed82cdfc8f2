"""Ring exchange: every rank sends to ``(rank+1) % nprocs``.

The paper's Listing 1 pattern. Each rank contributes its buffer and
receives its predecessor's.
"""

from __future__ import annotations

import numpy as np

from repro import mpi
from repro.core import comm_p2p
from repro.sim.process import Env

NAME = "ring"

#: Listing 1 as annotated source (see :mod:`repro.patterns.catalog`).
SOURCE = """\
double out[8];
double inb[8];
int rank, nprocs;
out[0] = rank + 1;
#pragma comm_p2p sender((rank-1+nprocs)%nprocs) receiver((rank+1)%nprocs) sbuf(out) rbuf(inb)
{
}
consume(inb);
"""


def run_directive(env: Env, out: np.ndarray, inb: np.ndarray) -> None:
    """Listing 1: ring with only the required clauses."""
    prev = (env.rank - 1 + env.size) % env.size
    nxt = (env.rank + 1) % env.size
    with comm_p2p(env, sender=prev, receiver=nxt, sbuf=out, rbuf=inb):
        pass


def run_mpi(comm: mpi.Comm, out: np.ndarray, inb: np.ndarray) -> None:
    """Hand-written equivalent: Irecv + Isend + per-request waits."""
    prev = (comm.rank - 1 + comm.size) % comm.size
    nxt = (comm.rank + 1) % comm.size
    rreq = comm.Irecv(inb, source=prev, tag=101)
    sreq = comm.Isend(out, dest=nxt, tag=101)
    comm.Wait(sreq)
    comm.Wait(rreq)
