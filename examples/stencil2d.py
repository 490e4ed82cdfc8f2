#!/usr/bin/env python
"""2-D Jacobi smoother on a Cartesian process grid.

Combines the library's pieces the way a structured-grid application
would: `mpi.Cart_create` builds the process grid, the `halo2d`
directive pattern exchanges all four boundary strips with ONE
consolidated synchronization per sweep, and the interior update is
verified against a single-rank reference.

Also prints the run's communication matrix (who sent how much to
whom), recovered from the run's profile spans — the dynamic analysis
the directives make easy.

Run:  python examples/stencil2d.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np

from repro import mpi
from repro.netmodel import gemini_model
from repro.patterns.halo2d import HaloBuffers, grid_shape, run_directive
from repro.sim import Engine, comm_matrix

NY_GLOBAL, NX_GLOBAL = 24, 36
SWEEPS = 10


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


def run_parallel(nprocs: int):
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
        bufs = HaloBuffers(ny, nx)
        for _ in range(SWEEPS):
            run_directive(env, u, bufs, py, px)
            # Assemble the extended block: physical boundary cells keep
            # their values (Dirichlet), interior edges use the halos.
            ext = np.zeros((ny + 2, nx + 2))
            ext[1:-1, 1:-1] = u
            ext[0, 1:-1] = bufs.halo["north"] if cy > 0 else u[0]
            ext[-1, 1:-1] = bufs.halo["south"] if cy < py - 1 else u[-1]
            ext[1:-1, 0] = bufs.halo["west"] if cx > 0 else u[:, 0]
            ext[1:-1, -1] = bufs.halo["east"] if cx < px - 1 else u[:, -1]
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
    for nprocs in (4, 6, 12):
        sol, res, eng = run_parallel(nprocs)
        err = float(np.abs(sol - ref).max())
        py, px = grid_shape(nprocs)
        waitalls = eng.stats.sync_calls["waitall"]
        print(f"{py}x{px} grid: max error {err:.2e}, "
              f"makespan {res.makespan * 1e6:.1f} us, "
              f"{waitalls} consolidated syncs "
              f"({SWEEPS} sweeps x {nprocs} ranks)")
        assert err < 1e-12
        assert waitalls == SWEEPS * nprocs
    print("\ncommunication matrix of the last run:")
    print(comm_matrix(res.profile).render())


if __name__ == "__main__":
    main()
