#!/usr/bin/env python
"""2-D Jacobi smoother on a Cartesian process grid.

Combines the library's pieces the way a structured-grid application
would: `mpi.Cart_create` builds the process grid, one `comm_parameters`
region of four `comm_p2p` directives exchanges all four boundary strips
with ONE consolidated synchronization per sweep, and the interior
update is verified against a single-rank reference. The exchange is
paired as the `halo2d` pattern text pairs it: each direction is a
shift, received into the opposite halo, so the same directives run
unchanged on MPI two-sided, MPI one-sided and SHMEM.

Also prints the run's communication matrix (who sent how much to
whom), recovered from the run's profile spans — the dynamic analysis
the directives make easy.

Run:  python examples/stencil2d.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np

from repro import mpi, shmem
from repro.core import comm_p2p, comm_parameters
from repro.core.clauses import Target
from repro.netmodel import gemini_model
from repro.patterns.halo2d import grid_shape, neighbours
from repro.sim import Engine, comm_matrix

NY_GLOBAL, NX_GLOBAL = 24, 36
SWEEPS = 10

#: Each direction's shift: a rank sends that edge toward the neighbour
#: on that side and receives, into the opposite halo, what the
#: neighbour on the other side sends the same way.
SHIFTS = (("north", "south"), ("south", "north"),
          ("west", "east"), ("east", "west"))


def initial(ny: int, nx: int) -> np.ndarray:
    u = np.zeros((ny, nx))
    u[ny // 3: 2 * ny // 3, nx // 3: 2 * nx // 3] = 100.0
    return u


def reference(sweeps: int) -> np.ndarray:
    u = initial(NY_GLOBAL, NX_GLOBAL)
    for _ in range(sweeps):
        v = u.copy()
        v[1:-1, 1:-1] = 0.25 * (u[:-2, 1:-1] + u[2:, 1:-1]
                                + u[1:-1, :-2] + u[1:-1, 2:])
        u = v
    return u


def exchange(env, nbr, u: np.ndarray, halo: dict,
             target: Target) -> None:
    """Exchange all four halos with one consolidated sync."""
    edges = {"north": u[0].copy(), "south": u[-1].copy(),
             "west": u[:, 0].copy(), "east": u[:, -1].copy()}
    with comm_parameters(env):
        for way, back in SHIFTS:
            dest, source = nbr[way], nbr[back]
            with comm_p2p(env,
                          sender=env.rank if source is None else source,
                          receiver=env.rank if dest is None else dest,
                          sendwhen=dest is not None,
                          receivewhen=source is not None,
                          sbuf=edges[way], rbuf=halo[back],
                          target=target):
                pass


def run_parallel(nprocs: int, target: Target = Target.MPI_2SIDE):
    py, px = grid_shape(nprocs)
    assert NY_GLOBAL % py == 0 and NX_GLOBAL % px == 0
    ny, nx = NY_GLOBAL // py, NX_GLOBAL // px
    model = gemini_model()
    eng = Engine(nprocs, profile=True)

    def program(env):
        comm = mpi.init(env, model)
        cart = mpi.Cart_create(comm, [py, px])
        cy, cx = cart.coords
        full = initial(NY_GLOBAL, NX_GLOBAL)
        u = full[cy * ny:(cy + 1) * ny, cx * nx:(cx + 1) * nx].copy()
        # SHMEM puts land in symmetric objects. A put does not wait for
        # the receiver to have read the last sweep's halo, and a
        # neighbour runs at most one sweep ahead (it needs this rank's
        # edges to finish its own), so two halo sets alternate.
        alloc = (shmem.init(env).malloc if target is Target.SHMEM
                 else np.zeros)
        halos = [{"north": alloc(nx), "south": alloc(nx),
                  "west": alloc(ny), "east": alloc(ny)} for _ in range(2)]
        nbr = neighbours(env.rank, py, px)
        for sweep in range(SWEEPS):
            halo = halos[sweep % 2]
            exchange(env, nbr, u, halo, target)
            # Assemble the extended block: physical boundary cells keep
            # their values (Dirichlet), interior edges use the halos.
            ext = np.zeros((ny + 2, nx + 2))
            ext[1:-1, 1:-1] = u
            ext[0, 1:-1] = halo["north"][:] if cy > 0 else u[0]
            ext[-1, 1:-1] = halo["south"][:] if cy < py - 1 else u[-1]
            ext[1:-1, 0] = halo["west"][:] if cx > 0 else u[:, 0]
            ext[1:-1, -1] = halo["east"][:] if cx < px - 1 else u[:, -1]
            v = 0.25 * (ext[:-2, 1:-1] + ext[2:, 1:-1]
                        + ext[1:-1, :-2] + ext[1:-1, 2:])
            # Global Dirichlet boundary stays fixed.
            if cy == 0:
                v[0] = u[0]
            if cy == py - 1:
                v[-1] = u[-1]
            if cx == 0:
                v[:, 0] = u[:, 0]
            if cx == px - 1:
                v[:, -1] = u[:, -1]
            u = v
        return (cart.coords, u)

    res = eng.run(program)
    assembled = np.zeros((NY_GLOBAL, NX_GLOBAL))
    for (cy, cx), block in res.values:
        assembled[cy * ny:(cy + 1) * ny, cx * nx:(cx + 1) * nx] = block
    return assembled, res, eng


def main() -> None:
    ref = reference(SWEEPS)
    for target in Target:
        print(target.value)
        for nprocs in (4, 6, 12):
            sol, res, eng = run_parallel(nprocs, target)
            err = float(np.abs(sol - ref).max())
            py, px = grid_shape(nprocs)
            (kind, syncs), = eng.stats.sync_calls.items()
            print(f"  {py}x{px} grid: max error {err:.2e}, "
                  f"makespan {res.makespan * 1e6:.1f} us, "
                  f"{syncs} consolidated syncs ({kind}; "
                  f"{SWEEPS} sweeps x {nprocs} ranks)")
            assert err < 1e-12
            assert syncs == SWEEPS * nprocs
    print("\ncommunication matrix of the last run:")
    print(comm_matrix(res.profile).render())


if __name__ == "__main__":
    main()
