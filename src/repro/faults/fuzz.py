"""Sync-plan correctness fuzzer.

The directive layer *promises* that whatever target a ``comm_p2p`` is
lowered to, the data in ``rbuf`` is valid once the region's
synchronization has run. The fuzzer attacks that promise: it replays a
parsed directive program (:func:`fuzz_program`) — a generated program,
a registry pattern text or an example file — under many
seed-deterministic adversarial schedules (delivery jitter, reordering
pressure, drop/retransmit) on one lowering target and asserts the final
per-rank buffer contents are bit-identical to an unperturbed baseline
run. The differential oracle (:func:`repro.gen.oracle.check_program`)
runs it on every target a program is clean on; WL-LSMS, the one case
written in the library DSL, has its own :func:`fuzz_wllsms`.

Two mechanisms make under-synchronization *observable* rather than
merely possible:

* **deferred delivery** (whenever a `FaultPlan` is bound): in the
  perturbed runs, payload bytes land in the user buffer only at the
  synchronization call that guarantees them, while the baseline runs
  unfaulted with immediate delivery — the data the translation
  *claims*. A sync plan that forgets a handle leaves stale bytes
  behind deterministically — no lucky schedules needed — and the
  comparison against the immediate-delivery reference flags them.

* **adversarial timing**: jitter and reordering shuffle completion
  order so consolidation bugs that depend on "the wait finished
  everything anyway" coincidences stop being hidden.

Every failure carries the call that replays its schedule
bit-identically (:attr:`FuzzFailure.replay`).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.core import region as _region
from repro.faults.plan import FaultPlan
from repro.faults.watchdog import Watchdog
from repro.netmodel import gemini_model
from repro.sim import Engine

#: Every lowering target of the directive layer.
FUZZ_TARGETS = ("TARGET_COMM_MPI_2SIDE", "TARGET_COMM_MPI_1SIDE",
                "TARGET_COMM_SHMEM")

#: Watchdog applied to every WL-LSMS fuzz run and chaos soak: a
#: schedule that deadlocks or livelocks is converted into a diagnosable
#: failure instead of eating the CI job timeout.
FUZZ_WATCHDOG = Watchdog(wall_timeout=60.0, stall_events=1_000_000)


def _tally_checks(tally: dict | None, stats) -> None:
    """Accumulate one run's sanitizer counters into ``tally``."""
    if tally is not None:
        tally["sanitizer_checks"] = (tally.get("sanitizer_checks", 0)
                                     + stats.sanitizer_checks)
        tally["runs"] = tally.get("runs", 0) + 1


def _run_wllsms(target: str, plan: FaultPlan | None,
                watchdog: Watchdog | None,
                sanitize: bool = False, tally: dict | None = None):
    """WL-LSMS quick mode — the paper's application, end to end."""
    from repro.apps.wllsms import AppConfig, run_app
    cfg = AppConfig(variant="directive", target=target, n_lsms=2,
                    group_size=4, t=32, tc=4, wl_steps=2,
                    model=gemini_model())
    engines: list[Engine] = []

    def engine_cls(*args, **kwargs):
        eng = Engine(*args, faults=plan, watchdog=watchdog,
                     sanitize=sanitize, **kwargs)
        engines.append(eng)
        return eng

    try:
        res = run_app(cfg, engine_cls=engine_cls)
    finally:
        for eng in engines:
            _tally_checks(tally, eng.stats)
    return [res.group_energies, res.wang_landau.ln_g.tolist()]


@dataclass(frozen=True)
class FuzzFailure:
    """One divergent schedule, with the call that replays it."""

    pattern: str
    target: str
    seed: int
    detail: str
    #: The fuzz call that reruns exactly this schedule.
    replay: str

    def __str__(self) -> str:
        return (f"FAIL {self.pattern} on {self.target} at seed "
                f"{self.seed}: {self.detail}\n  replay: {self.replay}")


def _diff(expected, got) -> str | None:
    """None when bit-identical, else a one-line description.

    Both sides hold per-rank results: buffer payload dicts, the
    application's result lists, or None for a run that captured
    nothing. They hold only Python floats, so ``==`` is an exact
    bitwise check. The description names the first rank that differs
    and, for payload dicts, the first buffer.
    """
    if expected == got:
        return None
    for rank, (e, g) in enumerate(zip(expected or (), got or ())):
        if e == g:
            continue
        if isinstance(e, dict) and isinstance(g, dict):
            for buf in sorted(set(e) | set(g)):
                if e.get(buf) != g.get(buf):
                    return (f"rank {rank} buffer {buf!r}: expected "
                            f"{e.get(buf)!r}, got {g.get(buf)!r}")
        return f"rank {rank}: expected {e!r}, got {g!r}"
    return f"expected {expected!r}, got {got!r}"


def _sweep(name: str, target: str, seeds, baseline,
           run: Callable[[FaultPlan], object],
           call: str) -> list[FuzzFailure]:
    """Compare ``run(FaultPlan.jitter(seed))`` with ``baseline`` for
    every seed. A run that raises fails its seed like a divergence;
    ``call`` is the fuzz call without its ``seeds`` argument, completed
    per seed into the failure's replay."""
    failures: list[FuzzFailure] = []
    for seed in seeds:
        try:
            detail = _diff(baseline, run(FaultPlan.jitter(seed)))
        except Exception as exc:
            detail = f"raised {type(exc).__name__}: {exc}"
        if detail is not None:
            failures.append(FuzzFailure(
                name, target, seed, detail, f"{call}, seeds=[{seed}])"))
    return failures


def fuzz_program(program, nprocs: int = 8, *, target: str,
                 seeds=range(10),
                 extra_vars: dict[str, int] | None = None,
                 baseline=None, name: str = "program",
                 sanitize: bool = False,
                 tally: dict | None = None,
                 ignore=frozenset()) -> list[FuzzFailure]:
    """Payload-differential fuzz of one parsed directive *program*.

    The program simulator replays the IR
    (:func:`repro.core.analysis.progsim.simulate_program`) with
    ``capture=True``, and the captured per-rank buffer contents of each
    jittered schedule are compared bit-for-bit against the unfaulted
    baseline. ``baseline`` short-cuts recomputation when the caller
    already holds the reference payloads (the differential oracle runs
    the unfaulted capture anyway for its cross-target check).
    ``extra_vars`` binds the program's free clause names, as in
    :func:`~repro.core.analysis.progsim.simulate_program`. ``name``
    labels the program in failures and stands for it in each replay
    call.

    With ``sanitize=True`` every run arms the access sanitizer: a
    :class:`repro.errors.RaceError` fails its schedule like any
    divergence, so a statically race-free program must also sanitize
    clean. ``tally`` accumulates ``sanitizer_checks`` and ``runs``.

    ``ignore`` is a set of ``(rank, buffer name)`` pairs excluded from
    the comparison — buffers whose final contents the directive
    contract leaves undefined (unreceived deliveries; see
    :func:`repro.core.analysis.verify.undefined_payload_buffers`).
    """
    from repro.core.analysis.progsim import simulate_program

    def run(plan: FaultPlan | None):
        outcome = simulate_program(
            program, nprocs, target=target, extra_vars=extra_vars,
            capture=True, sanitize=sanitize, faults=plan)
        _tally_checks(tally, outcome.stats)
        return mask_payloads(outcome.payloads, ignore)

    baseline = (run(None) if baseline is None
                else mask_payloads(baseline, ignore))
    call = f"fuzz_program({name}, {nprocs}, target={target!r}"
    if extra_vars:
        call += f", extra_vars={extra_vars!r}"
    if sanitize:
        call += ", sanitize=True"
    if ignore:
        call += f", ignore={sorted(ignore)!r}"
    return _sweep(name, target, seeds, baseline, run, call)


def fuzz_wllsms(target: str, seeds, *, sanitize: bool = False,
                tally: dict | None = None) -> list[FuzzFailure]:
    """Fuzz WL-LSMS quick mode, the paper's application, on ``target``.

    Its group energies and Wang-Landau density of states under each
    jittered schedule must be bit-identical to an unfaulted run;
    ``sanitize`` and ``tally`` are as in :func:`fuzz_program`. Every
    run is under :data:`FUZZ_WATCHDOG`.
    """
    def run(plan: FaultPlan | None):
        return _run_wllsms(target, plan, FUZZ_WATCHDOG, sanitize, tally)

    call = f"fuzz_wllsms({target!r}"
    if sanitize:
        call += ", sanitize=True"
    return _sweep("wllsms", target, seeds, run(None), run, call)


def mask_payloads(payloads, ignore):
    """Drop ``(rank, buffer)`` entries from a per-rank payload tuple.

    The masked buffers are contract-undefined (no synchronization ever
    guarantees their delivery), so bit-for-bit comparisons must not
    key on them.
    """
    if payloads is None or not ignore:
        return payloads
    return tuple(
        {buf: vals for buf, vals in bufs.items()
         if (rank, buf) not in ignore}
        for rank, bufs in enumerate(payloads))


# -- sync-plan weakenings (shared with the static verifier) ----------------
#
# The static verifier (repro.core.analysis.verify) applies the same
# three mutations symbolically; tests/faults/test_fuzz.py cross-checks
# that every weakened plan the dynamic side catches is also refuted
# statically. Names must match verify.WEAKENINGS.

@contextlib.contextmanager
def weaken_pending_sync(name: str) -> Iterator[None]:
    """Monkeypatch ``PendingComm.sync`` with one named weakening.

    * ``drop-last-recv`` — every sync silently pops its last pending
      receive handle before synchronizing;
    * ``drop-all-recvs`` — every sync completes sends only;
    * ``skip-first-sync`` — each rank's first *non-empty* sync call of
      each run is elided entirely (handles discarded, nothing waited
      on).

    The weakenings mirror realistic consolidation bugs: an off-by-one
    over the handle list, a send-only flush, and a dropped sync point.
    """
    original = _region.PendingComm.sync

    def weakened(self: "_region.PendingComm", env) -> None:
        if name == "drop-last-recv":
            if self.recvs:
                self.recvs.pop()
        elif name == "drop-all-recvs":
            self.recvs.clear()
        elif name == "skip-first-sync":
            # One skip set per engine run, so every run inside the
            # block is weakened.
            skipped = env.engine.services.setdefault(
                "weakened_first_sync", set())
            if self and env.rank not in skipped:
                skipped.add(env.rank)
                self.sends.clear()
                self.recvs.clear()
                self.buffers.clear()
                return
        else:
            raise ValueError(f"unknown weakening {name!r}")
        original(self, env)

    _region.PendingComm.sync = weakened
    try:
        yield
    finally:
        _region.PendingComm.sync = original
