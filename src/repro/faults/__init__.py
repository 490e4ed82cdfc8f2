"""Fault injection, adversarial timing and sync-plan fuzzing.

The robustness layer of the simulator: declarative, seed-deterministic
:class:`FaultPlan` schedules (message jitter / reordering / drops, rank
stalls, rank crashes) compiled into a :class:`FaultInjector` the engine
consults; an opt-in progress :class:`Watchdog` turning hangs into rich
reports; the sync-plan correctness fuzzer of
:mod:`repro.faults.fuzz` (jittered replays of a directive program,
compared bit-for-bit with its unperturbed run — the differential
oracle's schedule arm); and the recovery-runtime chaos soak of
:mod:`repro.faults.chaos` (crash + drop + stall plans recovered by
:mod:`repro.recovery` with bit-exactness asserted).

Typical use::

    from repro.faults import FaultPlan, RankCrash, Watchdog
    from repro.sim import Engine

    plan = FaultPlan(seed=7, delay_jitter=1e-5, reorder_prob=0.25,
                     crashes=(RankCrash(rank=2, at=0.0),))
    eng = Engine(8, faults=plan, watchdog=Watchdog(wall_timeout=30.0))
    eng.run(main)   # raises RankFailedError naming rank 2
"""

from repro.faults.chaos import (
    SOAK_CASES,
    SOAK_NAMES,
    ChaosFailure,
    chaos_one,
    chaos_plan,
    chaos_soak,
)
from repro.faults.fuzz import (
    FUZZ_TARGETS,
    FuzzFailure,
    fuzz_program,
    fuzz_wllsms,
    weaken_pending_sync,
)
from repro.faults.inject import FaultInjector
from repro.faults.plan import FaultPlan, RankCrash, RankStall
from repro.faults.watchdog import Watchdog

__all__ = [
    "FUZZ_TARGETS",
    "SOAK_CASES",
    "SOAK_NAMES",
    "ChaosFailure",
    "FaultInjector",
    "FaultPlan",
    "FuzzFailure",
    "RankCrash",
    "RankStall",
    "Watchdog",
    "chaos_one",
    "chaos_plan",
    "chaos_soak",
    "fuzz_program",
    "fuzz_wllsms",
    "weaken_pending_sync",
]
