#!/usr/bin/env python
"""Fault injection walkthrough: jitter, stalls, crashes, watchdog.

Four demonstrations on the ring exchange from the paper's Listing 1:

1. adversarial timing (jitter + reordering pressure + drop/retransmit)
   shifts every virtual time but not one byte of delivered data;
2. a rank stall drags its dependents along the ring — the stall's cost
   propagates exactly as far as the communication structure carries it;
3. a rank crash terminates the run promptly with a RankFailedError
   naming the dead rank and what every survivor was doing;
4. the sync-plan fuzzer replays the ring's registry text under one
   jittered schedule — the call a reported failure's replay line names.

Run:  python examples/fault_injection.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np

from repro import mpi
from repro.core import comm_p2p
from repro.errors import RankFailedError
from repro.faults import (
    FaultPlan,
    RankCrash,
    RankStall,
    Watchdog,
    fuzz_program,
)
from repro.netmodel import gemini_model
from repro.patterns import get_pattern
from repro.sim import Engine

NPROCS = 5
MODEL = gemini_model()


def ring_program(env):
    prev = (env.rank - 1 + env.size) % env.size
    nxt = (env.rank + 1) % env.size
    out = np.arange(4.0) + 100.0 * env.rank
    inb = np.zeros(4)
    mpi.init(env, MODEL)
    with comm_p2p(env, sender=prev, receiver=nxt, sbuf=out, rbuf=inb):
        pass
    return inb.tolist()


def demo_jitter() -> None:
    print("-- 1. adversarial timing changes times, never data")
    clean = Engine(NPROCS)
    base = clean.run(ring_program)
    plan = FaultPlan(seed=7, delay_jitter=1e-5, reorder_prob=0.25,
                     drop_prob=0.05)
    eng = Engine(NPROCS, faults=plan)
    res = eng.run(ring_program)
    assert res.values == base.values
    print(f"   data identical on all {NPROCS} ranks")
    print(f"   clean finish:     {max(base.finish_times):.3e}s")
    print(f"   perturbed finish: {max(res.finish_times):.3e}s")
    print(f"   injected faults:  {dict(eng.stats.faults)}")
    print(f"   replay seed:      {eng.stats.fault_seed}\n")


def demo_stall() -> None:
    print("-- 2. a stalled rank drags its ring successors along")
    plan = FaultPlan(seed=0, stalls=(RankStall(rank=2, at=0.0,
                                               duration=0.5),))
    eng = Engine(NPROCS, faults=plan)
    res = eng.run(ring_program)
    for rank, t in enumerate(res.finish_times):
        mark = "  <- stalled" if rank == 2 else ""
        print(f"   rank {rank} finished at {t:.4f}s{mark}")
    print()


def demo_crash() -> None:
    print("-- 3. a crashed rank fails fast with a named diagnosis")
    plan = FaultPlan(seed=0, crashes=(RankCrash(rank=2, at=0.0),))
    eng = Engine(NPROCS, faults=plan, watchdog=Watchdog(wall_timeout=30.0))
    try:
        eng.run(ring_program)
    except RankFailedError as err:
        print(f"   failed ranks: {list(err.failed)}")
        print("   " + str(err).splitlines()[0])
    print()


def demo_fuzz_replay() -> None:
    print("-- 4. the fuzzer replays the ring text (SHMEM, seed 3)")
    ring = get_pattern("ring")
    failures = fuzz_program(ring.program(), ring.nprocs,
                            target="TARGET_COMM_SHMEM", seeds=[3],
                            name="ring")
    print("   passed" if not failures else f"   {failures[0]}")
    print()


if __name__ == "__main__":
    demo_jitter()
    demo_stall()
    demo_crash()
    demo_fuzz_replay()
