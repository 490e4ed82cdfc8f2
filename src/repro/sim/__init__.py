"""Deterministic virtual-time SPMD simulator.

This package is the hardware substitute for the paper's Cray XK7: it runs
an SPMD program (one Python callable executed once per simulated rank)
under a cooperative scheduler that maintains a *virtual clock* per rank.
Communication libraries (:mod:`repro.mpi`, :mod:`repro.shmem`) are built
on its blocking/waking primitives and advance the clocks according to a
pluggable network cost model (:mod:`repro.netmodel`).

Key properties:

* **Deterministic** — exactly one simulated rank executes at a time and
  the scheduler always resumes the runnable rank with the smallest
  ``(virtual time, rank)``, so results never depend on host scheduling.
* **Real data** — messages carry actual ``numpy`` buffers, so simulated
  programs compute real answers that tests can assert on.
* **Measurable** — virtual time advances only through explicit compute
  modelling and communication cost models, so "time" is a property of
  the algorithm, not of the host machine.
* **Observable** — ``Engine(profile=True)`` records the run's one event
  stream, a span :class:`repro.profiling.Profile`;
  :func:`comm_matrix` derives who sent how much to whom from its
  ``message`` spans.
"""

from repro.sim.commstats import CommMatrix, comm_matrix
from repro.sim.engine import Engine, RunResult
from repro.sim.process import Env
from repro.sim.stats import SimStats
from repro.sim.sync import Rendezvous

__all__ = [
    "CommMatrix",
    "comm_matrix",
    "Engine",
    "RunResult",
    "Env",
    "SimStats",
    "Rendezvous",
]
