"""Exact goldens for the modeled (virtual-time) results.

Virtual time is deterministic, so a modeled number is a fixture, not a
benchmark: every value below must reproduce bit for bit. Host time is
measured only by ``perfbench``.

* **Engine** — makespan and scheduler counters of a ring exchange at
  the paper's Fig. 3 sweep endpoints and three points between.
* **Barriers** — the makespan of a SHMEM ``barrier_all`` step and of
  an MPI ``Win_fence`` epoch, the modeled times the barrier cost
  (``barrier_stage`` x ceil(log2 P)) reaches.
* **Advisor** — the proof-carrying fix ledger of the pessimized
  examples in ``examples/pragmas/slow/`` (predicted vs simulated
  savings per lowering target), plus the pattern catalog as a negative
  control: the curated patterns need no rewrite.
* **Recovery** — bounded-retry overhead against message-drop rate, and
  one mid-run rank loss recovered under each ULFM-style policy.

After an intended model change, re-pin a report golden by writing
``json.dump(report, fh, indent=1, sort_keys=True)`` to its file in
``tests/bench/golden/``, and say why in the change description.
"""

from __future__ import annotations

import glob
import json
import os

import numpy as np
import pytest

from repro import mpi, shmem
from repro.core import comm_p2p
from repro.core.analysis.fix import FixResult, fix_source
from repro.faults import FaultPlan, RankCrash, Watchdog
from repro.netmodel import gemini_model
from repro.patterns.catalog import PATTERNS
from repro.recovery import (
    POLICIES,
    RecoveryConfig,
    RetryPolicy,
    register_state,
    restore,
    run_with_recovery,
)
from repro.sim import Engine

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
_GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "golden")

_MODEL = gemini_model()


def _golden(name: str) -> dict:
    with open(os.path.join(_GOLDEN, name), encoding="utf-8") as fh:
        return json.load(fh)


# -- engine: ring exchange (Irecv/Isend + Waitall, repeated) ----------------

RING_ITERATIONS = 20
RING_PAYLOAD = 256

#: nprocs -> (makespan, switches, direct_handoffs, fast_yields, heap_ops)
ENGINE_POINTS = {
    33: (0.00012348768024553577, 693, 692, 20, 1386),
    65: (0.00012348768024553577, 1365, 1364, 20, 2730),
    128: (0.00012348768024553577, 2688, 2687, 20, 5376),
    257: (0.00012348768024553577, 5397, 5396, 20, 10794),
    337: (0.00012348768024553577, 7077, 7076, 20, 14154),
}


def _ring_main(env):
    comm = mpi.init(env, _MODEL)
    out = np.full(RING_PAYLOAD, float(env.rank))
    inb = np.zeros(RING_PAYLOAD)
    for _ in range(RING_ITERATIONS):
        rreq = comm.Irecv(inb, source=(env.rank - 1) % env.size)
        sreq = comm.Isend(out, dest=(env.rank + 1) % env.size)
        comm.Waitall([rreq, sreq])
        env.compute(1e-6)
    return env.now


@pytest.mark.parametrize("nprocs", sorted(ENGINE_POINTS))
def test_engine_ring_point(nprocs):
    eng = Engine(nprocs)
    res = eng.run(_ring_main)
    stats = eng.stats
    assert (res.makespan, stats.switches, stats.direct_handoffs,
            stats.fast_yields, stats.heap_ops) == ENGINE_POINTS[nprocs]


# -- barriers: a SHMEM barrier_all step and an MPI Win_fence epoch ---------

#: nprocs -> ``float.hex`` makespans of (put + barrier_all, fenced put
#: epoch), each a ring put of 8 doubles.
BARRIER_POINTS = {
    8: ("0x1.b26a2adc9ba39p-20", "0x1.85a93143174c8p-18"),
    33: ("0x1.7a44c50eb9ed8p-19", "0x1.3ba05c59dcbb0p-17"),
}


def _barrier_all_main(env):
    sh = shmem.init(env, _MODEL)
    dst = sh.malloc(8)
    sh.put_double(dst, np.full(8, float(env.rank)),
                  (env.rank + 1) % env.size)
    sh.barrier_all()


def _fence_main(env):
    comm = mpi.init(env, _MODEL)
    win = mpi.Win.create(comm, np.zeros(8))
    win.Fence()
    win.Put(np.full(8, float(env.rank)), (env.rank + 1) % env.size)
    win.Fence()


@pytest.mark.parametrize("nprocs", sorted(BARRIER_POINTS))
def test_barrier_point(nprocs):
    makespans = tuple(Engine(nprocs).run(main).makespan.hex()
                      for main in (_barrier_all_main, _fence_main))
    assert makespans == BARRIER_POINTS[nprocs]


# -- advisor: proof-carrying fixes and the catalog negative control ---------

ADVISOR_NPROCS = 8


def _step_entries(result: FixResult) -> list[dict]:
    entries = []
    for step in result.steps:
        entry = step.as_dict()
        if step.accepted and step.times_before_s:
            entry["simulated_saving_s"] = {
                t: round(step.times_before_s[t] - step.times_after_s[t],
                         12)
                for t in sorted(step.times_before_s)
                if t in step.times_after_s}
            entry["speedup"] = {
                t: round(step.times_before_s[t] / step.times_after_s[t],
                         3)
                for t in sorted(step.times_before_s)
                if t in step.times_after_s
                and step.times_after_s[t] > 0}
        entries.append(entry)
    return entries


def _best_speedup(result: FixResult) -> float:
    """End-to-end modeled speedup: first accepted 'before' over last
    accepted 'after', maximized across targets."""
    accepted = result.accepted
    if not accepted:
        return 1.0
    first, last = accepted[0], accepted[-1]
    best = 1.0
    for t, t0 in first.times_before_s.items():
        t1 = last.times_after_s.get(t)
        if t1:
            best = max(best, t0 / t1)
    return round(best, 3)


def _advisor_examples() -> list[dict]:
    out = []
    slow = os.path.join(_ROOT, "examples", "pragmas", "slow")
    for path in sorted(glob.glob(os.path.join(slow, "*.c"))):
        with open(path, encoding="utf-8") as fh:
            result = fix_source(fh.read(), nprocs=ADVISOR_NPROCS)
        out.append({
            "path": os.path.relpath(path, _ROOT),
            "changed": result.changed,
            "rounds": result.rounds,
            "accepted": len(result.accepted),
            "rejected": len(result.rejected),
            "predicted_saving_s": round(
                sum(s.predicted_saving_s for s in result.accepted), 12),
            "modeled_speedup": _best_speedup(result),
            "steps": _step_entries(result),
        })
    return out


def _advisor_catalog() -> list[dict]:
    out = []
    for name, spec in sorted(PATTERNS.items()):
        result = fix_source(spec.source, nprocs=spec.nprocs,
                            extra_vars=spec.bindings)
        out.append({
            "name": name,
            "changed": result.changed,
            "accepted": len(result.accepted),
            "rejected": len(result.rejected),
        })
    return out


@pytest.fixture(scope="module")
def advisor_report():
    return {"nprocs": ADVISOR_NPROCS,
            "examples": _advisor_examples(),
            "catalog": _advisor_catalog()}


def test_advisor_report(advisor_report):
    # A JSON round trip turns tuples into lists, as the golden has them.
    got = json.loads(json.dumps(advisor_report))
    assert got == _golden("advisor.json")


def test_pessimized_example_speedup_at_least_1_2x(advisor_report):
    """At least one pessimized example repairs to a >= 1.2x modeled
    speedup (both should clear it)."""
    entries = advisor_report["examples"]
    assert entries, "no pessimized examples found"
    best = max(e["modeled_speedup"] for e in entries)
    assert best >= 1.2, f"best modeled speedup only {best}x"


def test_catalog_is_negative_control(advisor_report):
    assert advisor_report["catalog"]
    for entry in advisor_report["catalog"]:
        assert not entry["changed"], f"catalog:{entry['name']} changed"


# -- recovery: retry overhead vs drop rate, crash episodes ------------------

RECOVERY_NPROCS = 5
DROP_RATES = (0.0, 0.05, 0.1, 0.2, 0.4)
SWEEP_SEED = 12
RECOVERY_ITERS = 6

_WD = Watchdog(wall_timeout=120.0, stall_events=5_000_000)


_recovery_ring = PATTERNS["ring"].main("TARGET_COMM_MPI_2SIDE")


def _checkpointed_ring(env):
    mpi.init(env, _MODEL)
    prev = (env.rank - 1 + env.size) % env.size
    nxt = (env.rank + 1) % env.size
    acc = np.zeros(8)
    start = 0
    cp = restore(env)
    if cp is not None:
        acc[:] = cp.state["acc"] + cp.state["inb"]
        start = cp.cut + 1
    register_state(env, acc=acc)
    for it in range(start, RECOVERY_ITERS):
        out = acc + (env.rank + 1) * (it + 1)
        inb = np.zeros(8)
        register_state(env, inb=inb)
        with comm_p2p(env, sender=prev, receiver=nxt, sbuf=out, rbuf=inb):
            pass
        acc += inb
    return acc.tolist()


def _drop_sweep() -> list[dict]:
    clean = Engine(RECOVERY_NPROCS).run(_recovery_ring).makespan
    config = RecoveryConfig(retry=RetryPolicy(max_retries=6))
    points = []
    for drop in DROP_RATES:
        plan = FaultPlan(seed=SWEEP_SEED, drop_prob=drop,
                         max_retransmits=6)
        res = run_with_recovery(_recovery_ring, RECOVERY_NPROCS,
                                faults=plan, config=config, watchdog=_WD)
        points.append({
            "drop_prob": drop,
            "makespan": res.makespan,
            "retries": res.stats.retries,
            "overhead": round(res.makespan / clean, 6),
            "restarts": res.stats.restarts,
        })
    return points


def _crash_scenarios() -> list[dict]:
    ref = Engine(RECOVERY_NPROCS).run(_checkpointed_ring)
    crash_at = ref.finish_times[2] * 0.5
    scenarios = []
    for policy in POLICIES:
        plan = FaultPlan(seed=SWEEP_SEED,
                         crashes=(RankCrash(rank=2, at=crash_at),))
        res = run_with_recovery(_checkpointed_ring, RECOVERY_NPROCS,
                                faults=plan,
                                config=RecoveryConfig(policy=policy),
                                watchdog=_WD)
        rstats = res.recovery
        scenarios.append({
            "name": f"ring-iter/{policy}",
            "policy": policy,
            "clean_makespan": ref.makespan,
            "makespan": res.makespan,
            "restarts": rstats.restarts,
            "checkpoints": rstats.checkpoints_taken,
            "failures_detected": rstats.failures_detected,
            "restore_cut": rstats.episodes[0].restore_cut,
            "recovery_wall_s": rstats.recovery_wall_s,
            "final_world": rstats.final_world,
        })
    return scenarios


def test_recovery_report():
    report = {"nprocs": RECOVERY_NPROCS,
              "sweep_seed": SWEEP_SEED,
              "points": _drop_sweep(),
              "scenarios": _crash_scenarios()}
    assert report == _golden("recovery.json")
