"""Shared helpers for running SPMD test programs."""

from __future__ import annotations

from repro import mpi, shmem
from repro.netmodel import zero_model
from repro.sim import Engine


def mpi_run(nprocs, fn, *, model=None, max_time=None):
    """Run ``fn(comm)`` on every rank; returns (RunResult, Engine)."""
    model = model or zero_model()
    eng = Engine(nprocs, max_time=max_time)
    res = eng.run(lambda env: fn(mpi.init(env, model)))
    return res, eng


def shmem_run(nprocs, fn, *, model=None, max_time=None):
    """Run ``fn(sh)`` on every PE; returns (RunResult, Engine)."""
    model = model or zero_model()
    eng = Engine(nprocs, max_time=max_time)
    res = eng.run(lambda env: fn(shmem.init(env, model)))
    return res, eng
