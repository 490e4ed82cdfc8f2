"""2-D nearest-neighbour halo exchange on a process grid.

The four-direction generalization of :mod:`repro.patterns.halo`: ranks
form a ``py x px`` Cartesian grid and exchange edge strips with up to
four neighbours — the dominant pattern of the structured-grid codes
the paper's pattern studies characterize. The four directives (one
shift per direction) sit in a single ``comm_parameters`` region: one
consolidated synchronization per rank per exchange.
"""

from __future__ import annotations

import numpy as np

from repro import mpi

NAME = "halo2d"

#: A 3x4 block's exchange on a ``py x px`` grid as annotated source: one
#: shift per direction, each received into the opposite halo, all four
#: in one region (see :mod:`repro.patterns.catalog`). ``px`` is bound by
#: the registry entry; the guards keep every partner inside a world of
#: any size, so a shrunk world still runs.
SOURCE = """\
double edge_n[4]; double halo_n[4];
double edge_s[4]; double halo_s[4];
double edge_w[3]; double halo_w[3];
double edge_e[3]; double halo_e[3];
int rank, nprocs, px;
edge_n[0] = rank + 1;
edge_s[0] = rank + 101;
edge_w[0] = rank + 201;
edge_e[0] = rank + 301;
#pragma comm_parameters
{
#pragma comm_p2p sender(rank+px) receiver(rank-px) sendwhen(rank>=px) receivewhen(rank+px<nprocs) sbuf(edge_n) rbuf(halo_s)
#pragma comm_p2p sender(rank-px) receiver(rank+px) sendwhen(rank+px<nprocs) receivewhen(rank>=px) sbuf(edge_s) rbuf(halo_n)
#pragma comm_p2p sender(rank+1) receiver(rank-1) sendwhen(rank%px>0) receivewhen(rank%px<px-1 && rank+1<nprocs) sbuf(edge_w) rbuf(halo_e)
#pragma comm_p2p sender(rank-1) receiver(rank+1) sendwhen(rank%px<px-1 && rank+1<nprocs) receivewhen(rank%px>0) sbuf(edge_e) rbuf(halo_w)
}
stencil(halo_n, halo_s, halo_w, halo_e);
"""


def grid_shape(nprocs: int) -> tuple[int, int]:
    """The most-square ``(py, px)`` factorization of ``nprocs``."""
    py = int(np.sqrt(nprocs))
    while nprocs % py != 0:
        py -= 1
    return py, nprocs // py


def neighbours(rank: int, py: int, px: int) -> dict[str, int | None]:
    """North/south/west/east neighbour ranks (None at the boundary)."""
    y, x = divmod(rank, px)
    return {
        "north": rank - px if y > 0 else None,
        "south": rank + px if y < py - 1 else None,
        "west": rank - 1 if x > 0 else None,
        "east": rank + 1 if x < px - 1 else None,
    }


class HaloBuffers:
    """Per-rank edge and halo strips for an ``ny x nx`` local block."""

    def __init__(self, ny: int, nx: int):
        self.ny, self.nx = ny, nx
        self.halo = {
            "north": np.zeros(nx), "south": np.zeros(nx),
            "west": np.zeros(ny), "east": np.zeros(ny),
        }

    def edges(self, block: np.ndarray) -> dict[str, np.ndarray]:
        """Contiguous copies/views of the block's four edge strips."""
        return {
            "north": np.ascontiguousarray(block[0, :]),
            "south": np.ascontiguousarray(block[-1, :]),
            "west": np.ascontiguousarray(block[:, 0]),
            "east": np.ascontiguousarray(block[:, -1]),
        }


_OPPOSITE = {"north": "south", "south": "north",
             "west": "east", "east": "west"}


def run_mpi(comm: mpi.Comm, block: np.ndarray, bufs: HaloBuffers,
            py: int, px: int) -> None:
    """Hand-written equivalent with explicit request management."""
    nbr = neighbours(comm.rank, py, px)
    edges = bufs.edges(block)
    tags = {"north": 210, "south": 211, "west": 212, "east": 213}
    reqs = []
    for direction in ("north", "south", "west", "east"):
        peer = nbr[direction]
        if peer is None:
            continue
        reqs.append(comm.Irecv(bufs.halo[direction], source=peer,
                               tag=tags[_OPPOSITE[direction]]))
        reqs.append(comm.Isend(edges[direction], dest=peer,
                               tag=tags[direction]))
    for r in reqs:
        comm.Wait(r)
