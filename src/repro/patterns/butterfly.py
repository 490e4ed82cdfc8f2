"""Butterfly (recursive doubling): log-round pairwise exchange.

Each of ``log2(P)`` rounds pairs rank ``r`` with ``r XOR 2^k`` and
exchanges the blocks accumulated so far — the structure under
allgather/allreduce and FFT transposes. Demonstrates directives
composing into a collective *algorithm* (the bridge to the paper's
future-work collective intent): each round is one ``comm_parameters``
region whose two-sided exchange synchronizes once.

Requires a power-of-two process count.
"""

from __future__ import annotations

import numpy as np

from repro import mpi

NAME = "butterfly"

#: Two rounds (a 4-rank world) as annotated source: each round's region
#: names the partner ``rank^k`` for its instance (Section III-A clause
#: inheritance), guarded so a smaller world skips absent partners.
#: Round 1 forwards the block received in round 0, as the algorithm
#: does, so round 0's synchronization is observable in round 1's data
#: (see :mod:`repro.patterns.catalog`).
SOURCE = """\
double blk0[1]; double got0[1];
double blk1[1]; double got1[1]; double fwd[1];
int rank, nprocs;
blk0[0] = rank + 1;
blk1[0] = rank + 1;
#pragma comm_parameters sender(rank^1) receiver(rank^1) sendwhen((rank^1)<nprocs) receivewhen((rank^1)<nprocs)
{
#pragma comm_p2p sbuf(blk0) rbuf(got0)
}
#pragma comm_parameters sender(rank^2) receiver(rank^2) sendwhen((rank^2)<nprocs) receivewhen((rank^2)<nprocs)
{
#pragma comm_p2p sbuf(blk1, got0) rbuf(got1, fwd)
}
merge(got1, fwd);
"""


def _check_power_of_two(size: int) -> int:
    rounds = size.bit_length() - 1
    if 1 << rounds != size:
        raise ValueError(
            f"butterfly needs a power-of-two process count, got {size}")
    return rounds


def run_mpi(comm: mpi.Comm, contribution: float) -> np.ndarray:
    """Hand-written equivalent using ``Sendrecv`` per round."""
    size, rank = comm.size, comm.rank
    rounds = _check_power_of_two(size)
    data = np.zeros(size)
    data[rank] = contribution
    owned_lo, owned_n = rank, 1
    for k in range(rounds):
        partner = rank ^ (1 << k)
        send_block = np.ascontiguousarray(data[owned_lo:owned_lo
                                               + owned_n])
        their_lo = owned_lo ^ (1 << k)
        recv_block = np.zeros(owned_n)
        comm.Sendrecv(send_block, dest=partner, recvbuf=recv_block,
                      source=partner, sendtag=220 + k, recvtag=220 + k)
        data[their_lo:their_lo + owned_n] = recv_block
        owned_lo = min(owned_lo, their_lo)
        owned_n *= 2
    return data
