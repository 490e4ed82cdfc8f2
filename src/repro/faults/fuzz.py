"""Sync-plan correctness fuzzer.

The directive layer *promises* that whatever target a ``comm_p2p`` is
lowered to, the data in ``rbuf`` is valid once the region's
synchronization has run. The fuzzer attacks that promise: it runs each
communication pattern under many seed-deterministic adversarial
schedules (delivery jitter, reordering pressure, drop/retransmit) on
every lowering target and asserts the final user-visible data is
bit-identical to an unperturbed baseline run.

Two mechanisms make under-synchronization *observable* rather than
merely possible:

* **deferred delivery** (`FaultPlan.deferred_delivery`): in the
  perturbed runs, payload bytes land in the user buffer only at the
  synchronization call that guarantees them, while the baseline runs
  unfaulted with immediate delivery — the data the translation
  *claims*. A sync plan that forgets a handle leaves stale bytes
  behind deterministically — no lucky schedules needed — and the
  comparison against the immediate-delivery reference flags them.

* **adversarial timing**: jitter and reordering shuffle completion
  order so consolidation bugs that depend on "the wait finished
  everything anyway" coincidences stop being hidden.

Every failure is reported with its ``(pattern, target, seed)`` triple;
re-running that exact triple replays the failing schedule
bit-identically.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Iterator

from repro.core import region as _region
from repro.faults.plan import FaultPlan
from repro.faults.watchdog import Watchdog
from repro.netmodel import gemini_model
from repro.patterns.catalog import get_pattern
from repro.sim import Engine

#: Every lowering target of the directive layer.
FUZZ_TARGETS = ("TARGET_COMM_MPI_2SIDE", "TARGET_COMM_MPI_1SIDE",
                "TARGET_COMM_SHMEM")

#: Watchdog applied to every fuzz run: a schedule that deadlocks or
#: livelocks a pattern is converted into a diagnosable failure instead
#: of eating the CI job timeout.
FUZZ_WATCHDOG = Watchdog(wall_timeout=60.0, stall_events=1_000_000)


def _tally_checks(tally: dict | None, stats) -> None:
    """Accumulate one run's sanitizer counters into ``tally``."""
    if tally is not None:
        tally["sanitizer_checks"] = (tally.get("sanitizer_checks", 0)
                                     + stats.sanitizer_checks)
        tally["runs"] = tally.get("runs", 0) + 1


@lru_cache(maxsize=None)
def _pattern_main(name: str, target: str) -> Callable:
    """One registry pattern's per-rank main on ``target``; the text is
    parsed once per process, not once per run."""
    return get_pattern(name).main(target)


def _run_spec(name: str, target: str, plan: FaultPlan | None,
              watchdog: Watchdog | None, sanitize: bool = False,
              tally: dict | None = None):
    """One registry pattern's text, replayed per rank through progsim
    at the text's world size; returns the per-rank buffer payloads."""
    eng = Engine(get_pattern(name).nprocs, faults=plan, watchdog=watchdog,
                 sanitize=sanitize)
    try:
        return eng.run(_pattern_main(name, target)).values
    finally:
        _tally_checks(tally, eng.stats)


def _run_wllsms(target: str, plan: FaultPlan,
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
class FuzzCase:
    """One pattern the fuzzer knows how to run on any target."""

    name: str
    run: Callable  # (target, plan, watchdog, sanitize, tally) -> result

    def baseline(self, target: str,
                 watchdog: Watchdog | None = FUZZ_WATCHDOG,
                 sanitize: bool = False, tally: dict | None = None):
        """The reference result for one target: an *unfaulted* run with
        immediate delivery. Deliberately not a neutral FaultPlan —
        deferred delivery must be compared against the semantics the
        translation claims, or an under-synchronizing plan would leave
        the same stale bytes in both runs and cancel out."""
        return self.run(target, None, watchdog, sanitize, tally)


#: The registry patterns the fuzzer sweeps, then the application.
PATTERN_NAMES = ("ring", "evenodd", "halo2d", "butterfly")

CASES = (
    *(FuzzCase(name, partial(_run_spec, name)) for name in PATTERN_NAMES),
    FuzzCase("wllsms", _run_wllsms),
)

CASE_NAMES = tuple(c.name for c in CASES)


@dataclass(frozen=True)
class FuzzFailure:
    """One divergence, addressable for replay by (pattern, target, seed)."""

    pattern: str
    target: str
    seed: int
    detail: str

    def __str__(self) -> str:
        return (f"FAIL {self.pattern} on {self.target} at seed "
                f"{self.seed}: {self.detail}\n  replay: fuzz_one("
                f"{self.pattern!r}, {self.target!r}, seed={self.seed})")


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


def fuzz_one(pattern: str, target: str, seed: int,
             plan: FaultPlan | None = None,
             watchdog: Watchdog | None = FUZZ_WATCHDOG,
             baseline=None, sanitize: bool = False,
             tally: dict | None = None) -> FuzzFailure | None:
    """Run one (pattern, target, seed) triple; None means it passed.

    ``plan`` defaults to the stock jitter plan for ``seed`` — pass an
    explicit plan to replay a custom schedule. ``baseline`` short-cuts
    recomputing the reference when sweeping many seeds. With
    ``sanitize=True`` every run is executed under the access sanitizer:
    a :class:`repro.errors.RaceError` is a failure like any divergence,
    so a statically race-free pattern must also sanitize clean.
    """
    case = next(c for c in CASES if c.name == pattern)
    if plan is None:
        plan = FaultPlan.jitter(seed)
    if baseline is None:
        baseline = case.baseline(target, watchdog, sanitize, tally)
    try:
        got = case.run(target, plan, watchdog, sanitize, tally)
    except Exception as exc:
        return FuzzFailure(pattern, target, seed,
                           f"raised {type(exc).__name__}: {exc}")
    detail = _diff(baseline, got)
    if detail is None:
        return None
    return FuzzFailure(pattern, target, seed, detail)


def fuzz_program(program, nprocs: int = 8, *, target: str,
                 seeds=range(10),
                 extra_vars: dict[str, int] | None = None,
                 baseline=None, name: str = "generated",
                 tally: dict | None = None,
                 ignore=frozenset()) -> list[FuzzFailure]:
    """Payload-differential fuzz of one parsed directive *program*.

    The generated-program twin of :func:`fuzz`: instead of a hand-coded
    pattern, the program simulator replays the IR
    (:func:`repro.core.analysis.progsim.simulate_program`) with
    ``capture=True``, and the captured per-rank buffer contents of each
    jittered schedule are compared bit-for-bit against the unfaulted
    baseline. ``baseline`` short-cuts recomputation when the caller
    already holds the reference payloads (the differential oracle runs
    the unfaulted capture anyway for its cross-target check).

    ``ignore`` is a set of ``(rank, buffer name)`` pairs excluded from
    the comparison — buffers whose final contents the directive
    contract leaves undefined (unreceived deliveries; see
    :func:`repro.core.analysis.verify.undefined_payload_buffers`).
    """
    from repro.core.analysis.progsim import simulate_program

    if baseline is None:
        baseline = simulate_program(
            program, nprocs, target=target, extra_vars=extra_vars,
            capture=True).payloads
    baseline = mask_payloads(baseline, ignore)
    failures: list[FuzzFailure] = []
    for seed in seeds:
        try:
            outcome = simulate_program(
                program, nprocs, target=target, extra_vars=extra_vars,
                capture=True, faults=FaultPlan.jitter(seed))
        except Exception as exc:
            failures.append(FuzzFailure(
                name, target, seed,
                f"raised {type(exc).__name__}: {exc}"))
            continue
        if tally is not None and outcome.stats is not None:
            _tally_checks(tally, outcome.stats)
        detail = _diff(baseline, mask_payloads(outcome.payloads, ignore))
        if detail is not None:
            failures.append(FuzzFailure(name, target, seed, detail))
    return failures


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
    * ``skip-first-sync`` — each rank's first *non-empty* sync call is
      elided entirely (handles discarded, nothing waited on).

    The weakenings mirror realistic consolidation bugs: an off-by-one
    over the handle list, a send-only flush, and a dropped sync point.
    """
    original = _region.PendingComm.sync
    skipped: set[int] = set()

    def weakened(self: "_region.PendingComm", env) -> None:
        if name == "drop-last-recv":
            if self.recvs:
                self.recvs.pop()
        elif name == "drop-all-recvs":
            self.recvs.clear()
        elif name == "skip-first-sync":
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


def fuzz(patterns=CASE_NAMES, targets=FUZZ_TARGETS, seeds=range(50),
         watchdog: Watchdog | None = FUZZ_WATCHDOG,
         progress: Callable[[str], None] | None = None,
         sanitize: bool = False,
         tally: dict | None = None) -> list[FuzzFailure]:
    """Sweep seeds over every (pattern, target); returns all failures.

    The baseline for each (pattern, target) is computed once and reused
    across the whole seed sweep. With ``sanitize=True`` every run also
    arms the access sanitizer (differential soundness: a pattern the
    static race pass accepts must never raise ``RaceError`` under any
    schedule); ``tally`` accumulates ``sanitizer_checks`` across runs
    for the CI stats artifact.
    """
    failures: list[FuzzFailure] = []
    for pattern in patterns:
        case = next(c for c in CASES if c.name == pattern)
        for target in targets:
            baseline = case.baseline(target, watchdog, sanitize, tally)
            bad = 0
            for seed in seeds:
                failure = fuzz_one(pattern, target, seed,
                                   watchdog=watchdog, baseline=baseline,
                                   sanitize=sanitize, tally=tally)
                if failure is not None:
                    failures.append(failure)
                    bad += 1
            if progress is not None:
                n = len(list(seeds))
                progress(f"{pattern:>9s} x {target:<22s} "
                         f"{n - bad}/{n} seeds ok")
    return failures
