"""Even-to-odd pairing: even ranks send to the next odd rank.

The paper's Listing 2 pattern, exercising ``sendwhen``/``receivewhen``.
"""

from __future__ import annotations

import numpy as np

from repro import mpi
from repro.core import comm_p2p
from repro.sim.process import Env

NAME = "evenodd"

#: Listing 2 as annotated source: the region supplies every clause to
#: its one instance (see :mod:`repro.patterns.catalog`).
SOURCE = """\
double out[6];
double inb[6];
int rank, nprocs;
out[0] = rank + 1;
#pragma comm_parameters sender(rank-1) receiver(rank+1) sendwhen(rank%2==0 && rank+1<nprocs) receivewhen(rank%2==1) sbuf(out) rbuf(inb)
{
#pragma comm_p2p
{
}
}
consume(inb);
"""


def run_directive(env: Env, out: np.ndarray, inb: np.ndarray) -> None:
    """Listing 2: evens send to the next odd rank."""
    # The boundary guard keeps the last even rank of an odd-sized world
    # from addressing a non-existent receiver (the paper's example
    # implicitly assumes an even process count).
    with comm_p2p(env, sbuf=out, rbuf=inb,
                  sender=env.rank - 1,
                  receiver=min(env.rank + 1, env.size - 1),
                  sendwhen=env.rank % 2 == 0 and env.rank + 1 < env.size,
                  receivewhen=env.rank % 2 == 1):
        pass


def run_mpi(comm: mpi.Comm, out: np.ndarray, inb: np.ndarray) -> None:
    """Hand-written equivalent of the even->odd pairing."""
    if comm.rank % 2 == 0:
        if comm.rank + 1 < comm.size:
            comm.Send(out, dest=comm.rank + 1, tag=102)
    else:
        comm.Recv(inb, source=comm.rank - 1, tag=102)
