"""Differential static/dynamic oracle over directive programs.

The one differential harness: generated programs, the registry pattern
texts (at their registry ``nprocs`` and free-name ``bindings``) and the
example files all go through :func:`check_program`. For each
``(program, nprocs, target)`` the oracle cross-checks every claim one
side of the toolchain makes against the other side:

(a) **static vs dynamic** — the verifier's per-target verdict against
    the concrete outcome of the program simulator with the access
    sanitizer armed in collect mode;
(b) **cross-target payloads** — on targets both sides agree are clean,
    the final per-rank buffer contents must be bit-for-bit identical
    across all lowerings, and must stay bit-for-bit stable under
    adversarially jittered schedules (:func:`repro.faults.fuzz.
    fuzz_program`);
(c) **time model consistency** — the program simulator's modeled time
    must equal the span profile's makespan, and the profile's critical
    path can never exceed it;
(d) **fix soundness** — when the proof-carrying fixer rewrites a
    program, the claimed proof is re-checked independently: the fixed
    source must lint clean and must not regress modeled time on any
    target the original ran on.

Verdict classification is *family*-based (deadlock / stale-read /
race / validation) with an explicit *explained* table: combinations a
single immediate-delivery schedule cannot distinguish (e.g. a proven
stale read that deterministic delivery happens to satisfy) are counted
as explained, never silently dropped. Everything else is a
:class:`Disagreement` — either toolchain bug or generator bug, and
always worth a minimized repro.

``weaken`` deliberately *breaks* the static side (test-only): dropping
the race or deadlock family from the static verdict makes the planted
defects of racy/unconstrained programs flow through as disagreements,
which is how the pipeline (and CI job) proves end-to-end that a real
analyzer regression would be caught and minimized.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.analysis.codes import (
    DEADLOCK_CODES,
    RACE_CODES,
    STALE_READ_CODES,
    severity_of,
)
from repro.core.analysis.fix import fix_source
from repro.core.analysis.lint import lint_program
from repro.core.analysis.progsim import simulate_program
from repro.core.analysis.verify import undefined_payload_buffers
from repro.core.clauses import Target
from repro.core.ir import Program
from repro.core.pragma import parse_program
from repro.errors import (
    PragmaSyntaxError,
    RaceError,
    ReproError,
    SimAbortError,
)
from repro.faults.fuzz import fuzz_program, mask_payloads
from repro.gen.generator import GeneratedProgram
from repro.profiling.critpath import critical_path

__all__ = ["OracleConfig", "Disagreement", "OracleResult",
           "check_program"]

#: Codes whose static *error* proves the run cannot complete: the
#: deadlock family plus out-of-range ranks (a dynamic clause
#: violation). CI005/006 matching warnings stay advisory.
_MUST_ABORT = frozenset(DEADLOCK_CODES | {"CI004"})

#: Relative tolerance for modeled-time identities (float accumulation).
_TIME_RTOL = 1e-9

#: Named static-side weakenings (test-only): code families removed
#: from the static verdict before comparison.
WEAKENINGS = {
    "ignore-races": frozenset(RACE_CODES),
    "ignore-deadlocks": frozenset(_MUST_ABORT),
}


@dataclass(frozen=True)
class OracleConfig:
    """Knobs of one differential run (defaults = the CI quick profile)."""

    targets: tuple[Target, ...] = tuple(Target)
    #: Jittered schedules per clean target for the payload-stability
    #: arm (0 disables).
    fuzz_seeds: int = 2
    #: Run the independent fix-soundness re-check (the most expensive
    #: arm; CLI samples it).
    fix_check: bool = False
    #: Test-only static weakening (a :data:`WEAKENINGS` key) used to
    #: prove the pipeline catches analyzer regressions.
    weaken: str | None = None
    #: Virtual-time cap per dynamic run.
    max_time: float = 5.0


@dataclass(frozen=True)
class Disagreement:
    """One unexplained static/dynamic divergence."""

    seed: int
    mode: str
    kind: str
    target: str
    detail: str

    def __str__(self) -> str:
        return (f"DISAGREE[{self.kind}] seed={self.seed} "
                f"mode={self.mode} target={self.target}: {self.detail}")


@dataclass
class OracleResult:
    """Everything one program's differential run established."""

    program: GeneratedProgram
    #: Individual oracle checks executed (the CI stats line).
    checks: int = 0
    disagreements: list[Disagreement] = field(default_factory=list)
    #: Known-benign divergences, with reasons (never silently dropped).
    explained: list[str] = field(default_factory=list)
    #: Static error/race codes per target keyword.
    static_codes: dict[str, list[str]] = field(default_factory=dict)
    #: Dynamic outcome word per target keyword.
    dynamic: dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when no unexplained disagreement was found."""
        return not self.disagreements

    def _disagree(self, kind: str, target: str, detail: str) -> None:
        self.disagreements.append(Disagreement(
            seed=self.program.seed, mode=self.program.mode, kind=kind,
            target=target, detail=detail))


def check_program(gp: GeneratedProgram,
                  config: OracleConfig = OracleConfig()) -> OracleResult:
    """Run the full differential oracle over one generated program."""
    result = OracleResult(program=gp)
    dropped = WEAKENINGS.get(config.weaken or "", frozenset())

    # -- parse + print fixpoint (satellite invariant) ----------------------
    result.checks += 1
    try:
        program = parse_program(gp.source)
    except ReproError as exc:
        result._disagree("gen-parse", "*",
                         f"generated source fails to parse: {exc}")
        return result
    result.checks += 1
    printed = program.to_source()
    try:
        if parse_program(printed).to_source() != printed:
            result._disagree("fixpoint", "*",
                             "parse -> print -> parse is not a fixpoint")
            return result
    except PragmaSyntaxError as exc:
        result._disagree("fixpoint", "*",
                         f"printed source fails to re-parse: {exc}")
        return result

    # -- static verdict, swept over every target ---------------------------
    result.checks += 1
    report = lint_program(program, gp.nprocs, extra_vars=gp.bindings,
                          targets=list(config.targets))
    clean_payloads: dict[str, object] = {}
    # Buffers whose contents the directive contract leaves undefined
    # (unreceived deliveries): a SHMEM put lands them, a two-sided
    # Isend never does, and the deferred-delivery fault mode parks
    # them — every payload comparison must exclude these bytes.
    undefined: set[tuple[int, str]] = set()
    for target in config.targets:
        undefined |= undefined_payload_buffers(
            program, gp.nprocs, target, extra_vars=gp.bindings)
    if undefined:
        result.explained.append(
            "unguaranteed delivery buffer(s) excluded from payload "
            "comparison: " + ", ".join(
                f"rank {r} {n!r}" for r, n in sorted(undefined)))
    for target in config.targets:
        key = target.value
        diags = [d for d in report.diagnostics
                 if d.target in ("*", key)]
        errors = {d.code for d in diags
                  if (d.severity or severity_of(d.code)) == "error"
                  and d.code not in dropped}
        race_any = {d.code for d in diags
                    if d.code in RACE_CODES and d.code not in dropped}
        result.static_codes[key] = sorted(errors | race_any)
        _check_one_target(result, program, gp, target, errors,
                          race_any, config, clean_payloads,
                          frozenset(undefined))

    # -- (b) payloads bit-for-bit across clean targets ---------------------
    if len(clean_payloads) > 1:
        result.checks += 1
        baseline_key = sorted(clean_payloads)[0]
        baseline = clean_payloads[baseline_key]
        for key in sorted(clean_payloads)[1:]:
            if clean_payloads[key] != baseline:
                result._disagree(
                    "payload-divergence", key,
                    f"final payloads differ from {baseline_key}")

    # -- (d) independent fix-soundness re-check ----------------------------
    if config.fix_check:
        _check_fix_soundness(result, program, gp)
    return result


def _classify_dynamic(exc: ReproError | None,
                      races: tuple[str, ...]) -> str:
    if exc is None:
        return "race" if races else "ok"
    if isinstance(exc, RaceError):
        return "race"
    if isinstance(exc, SimAbortError):
        return "abort"
    return "error"


def _check_one_target(result: OracleResult, program: Program,
                      gp: GeneratedProgram, target: Target,
                      errors: set[str], race_any: set[str],
                      config: OracleConfig,
                      clean_payloads: dict[str, object],
                      undefined: frozenset[tuple[int, str]] = frozenset()
                      ) -> None:
    """Check (a) and (c) for one lowering target."""
    key = target.value
    result.checks += 1
    outcome = None
    exc: ReproError | None = None
    try:
        outcome = simulate_program(
            program, gp.nprocs, target=target, extra_vars=gp.bindings,
            sanitize="collect", capture=True, profile=True,
            max_time=config.max_time)
    except ReproError as caught:
        exc = caught
    except Exception as caught:  # toolchain bug, not a modeled outcome
        result.dynamic[key] = "crash"
        result._disagree("crash", key,
                         f"simulator crashed with "
                         f"{type(caught).__name__}: {caught}")
        return
    dynamic = _classify_dynamic(
        exc, outcome.races if outcome is not None else ())
    result.dynamic[key] = dynamic

    static_must_abort = bool(errors & _MUST_ABORT)
    static_race = bool(race_any)
    static_stale = bool(errors & STALE_READ_CODES)
    static_other = bool(errors - _MUST_ABORT - STALE_READ_CODES
                        - RACE_CODES)

    if dynamic == "ok":
        if static_must_abort:
            result._disagree("phantom-abort", key,
                             f"static proves {sorted(errors)} but the "
                             f"run completed cleanly")
        elif static_race:
            # A race verdict whose schedule never manifests under
            # immediate delivery: proven (error) findings must be
            # observed; widened (warning-only) findings may not be.
            proven = race_any & errors
            if proven:
                result._disagree(
                    "phantom-race", key,
                    f"static proves race {sorted(proven)} but the "
                    f"sanitizer observed none")
            else:
                result.explained.append(
                    f"{key}: widened race warning "
                    f"{sorted(race_any)} not observed (expected)")
        elif static_stale:
            result.explained.append(
                f"{key}: stale-read proof {sorted(errors)} not "
                f"observable under immediate delivery")
        elif static_other:
            result._disagree("phantom-error", key,
                             f"static error {sorted(errors)} but the "
                             f"run completed cleanly")
    elif dynamic == "race":
        if not (static_race or static_stale or static_must_abort):
            races = outcome.races if outcome is not None else (str(exc),)
            result._disagree("missed-race", key,
                             f"sanitizer observed a race the verifier "
                             f"missed: {races[0]}")
    elif dynamic == "abort":
        if not static_must_abort:
            result._disagree("missed-abort", key,
                             f"run aborted ({exc}) but static verdict "
                             f"was {sorted(errors) or 'clean'}")
    else:  # dynamic == "error"
        if not errors:
            result._disagree("missed-error", key,
                             f"run raised {type(exc).__name__}: {exc} "
                             f"but static verdict was clean")

    if outcome is None or dynamic != "ok" or errors or race_any:
        return

    # -- (c) time-model identities on the clean run ------------------------
    result.checks += 1
    makespan = max(outcome.finish_times)
    if abs(outcome.modeled_time - makespan) > _TIME_RTOL * makespan:
        result._disagree("time-model", key,
                         f"modeled_time {outcome.modeled_time} != "
                         f"makespan {makespan}")
    if outcome.profile is not None:
        cp = critical_path(outcome.profile)
        if cp.length_s > cp.makespan_s * (1.0 + _TIME_RTOL) + 1e-12:
            result._disagree(
                "time-model", key,
                f"critical path {cp.length_s} exceeds makespan "
                f"{cp.makespan_s}")

    clean_payloads[key] = mask_payloads(outcome.payloads, undefined)

    # -- (b) payload stability under adversarial schedules -----------------
    if config.fuzz_seeds > 0:
        result.checks += 1
        failures = fuzz_program(
            program, gp.nprocs, target=key,
            seeds=range(config.fuzz_seeds), extra_vars=gp.bindings,
            baseline=outcome.payloads, ignore=undefined)
        for failure in failures:
            result._disagree("schedule-divergence", key, str(failure))


def _check_fix_soundness(result: OracleResult, program: Program,
                         gp: GeneratedProgram) -> None:
    """(d): re-prove the fixer's claim with fresh lint + simulation."""
    result.checks += 1
    try:
        fix = fix_source(gp.source, nprocs=gp.nprocs,
                         extra_vars=gp.bindings)
    except ReproError as exc:
        result._disagree("fix-crash", "*", f"fix run raised: {exc}")
        return
    if not fix.changed:
        return
    try:
        fixed = parse_program(fix.source)
    except ReproError as exc:
        result._disagree("fix-unsound", "*",
                         f"fixed source fails to parse: {exc}")
        return
    report = lint_program(fixed, gp.nprocs, extra_vars=gp.bindings)
    bad = [d for d in report.diagnostics
           if (d.severity or severity_of(d.code)) == "error"
           or d.code in RACE_CODES]
    if bad:
        result._disagree("fix-unsound", "*",
                         f"fixed program is not clean: "
                         f"{'; '.join(str(d) for d in bad[:3])}")
        return
    for target in Target:
        try:
            before = simulate_program(program, gp.nprocs, target=target,
                                      extra_vars=gp.bindings).modeled_time
        except ReproError:
            continue
        try:
            after = simulate_program(fixed, gp.nprocs, target=target,
                                     extra_vars=gp.bindings).modeled_time
        except ReproError as exc:
            result._disagree("fix-unsound", target.value,
                             f"fixed program fails to run: {exc}")
            continue
        if after > before * (1.0 + _TIME_RTOL):
            result._disagree(
                "fix-unsound", target.value,
                f"fix regresses modeled time {before} -> {after}")
