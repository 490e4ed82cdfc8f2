"""Proof-carrying auto-fix: apply advisor rewrites, accept only proofs.

The advisor (:mod:`repro.core.analysis.advisor`) is heuristic; this
module is where soundness lives. For each proposed rewrite, in
diagnostic order:

1. apply it to a freshly parsed program and print the result
   (:meth:`Program.to_source` — the parse/print fixpoint);
2. **verifier gate** — the rewritten program must lint with zero
   error-severity CI0xx findings, which sweeps *all three* lowering
   targets (:func:`repro.core.analysis.lint.lint_program`); CI04x race
   findings additionally reject at *any* severity — a rewrite that may
   introduce a buffer-aliasing race is never a proof-carrying fix;
3. **simulation gate** — the rewritten program's modeled time must not
   regress against the original on any target it can run on
   (:func:`repro.core.analysis.progsim.simulate_program`); an original
   that cannot run at all (e.g. a CI103 count overflow) is treated as
   unboundedly slow, but the rewritten program must run.

Only a rewrite passing both gates lands in the source; every attempt —
accepted or rejected — is recorded as a :class:`FixStep`, so
``repro-lint --fix-dry-run`` can show the full machine-checked ledger.
Rejected rewrites are remembered by structural signature and never
retried, which (with the round cap) guarantees termination.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.analysis.advisor import advise_program, apply_rewrite
from repro.core.analysis.codes import RACE_CODES
from repro.core.analysis.lint import lint_program
from repro.core.analysis.progsim import simulate_program
from repro.core.clauses import Target
from repro.core.ir import Program
from repro.core.pragma import parse_program
from repro.errors import ReproError
from repro.netmodel.base import MachineModel

__all__ = ["FixResult", "FixStep", "fix_source"]

#: Relative tolerance of the simulation gate: "does not regress" allows
#: bit-level jitter but nothing observable.
_SIM_RTOL = 1e-9


@dataclass(frozen=True)
class FixStep:
    """One attempted rewrite and the verdict of its proof gates."""

    code: str                  # CI1xx code the rewrite cures
    kind: str                  # rewrite kind
    line: int                  # anchor directive line (in its source)
    signature: str             # structural identity of the rewrite
    predicted_saving_s: float  # the advisor's net-model estimate
    accepted: bool
    #: Why the rewrite was rejected ("" when accepted).
    reason: str = ""
    #: Modeled seconds per target, before/after. A target the original
    #: cannot run on is absent from ``times_before_s``.
    times_before_s: dict[str, float] = field(default_factory=dict)
    times_after_s: dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> dict[str, object]:
        """JSON-ready representation."""
        out: dict[str, object] = {
            "code": self.code,
            "kind": self.kind,
            "line": self.line,
            "signature": self.signature,
            "predicted_saving_s": self.predicted_saving_s,
            "accepted": self.accepted,
        }
        if self.reason:
            out["reason"] = self.reason
        if self.times_before_s:
            out["times_before_s"] = dict(self.times_before_s)
        if self.times_after_s:
            out["times_after_s"] = dict(self.times_after_s)
        return out


@dataclass
class FixResult:
    """Outcome of one :func:`fix_source` run."""

    source: str          # final (possibly rewritten) source text
    changed: bool
    steps: list[FixStep] = field(default_factory=list)
    rounds: int = 0

    @property
    def accepted(self) -> list[FixStep]:
        """The rewrites that passed both proof gates."""
        return [s for s in self.steps if s.accepted]

    @property
    def rejected(self) -> list[FixStep]:
        """The rewrites the proof gates refused."""
        return [s for s in self.steps if not s.accepted]


def fix_source(source: str, *, nprocs: int = 8,
               extra_vars: dict[str, int] | None = None,
               model: MachineModel | None = None,
               max_rounds: int = 16) -> FixResult:
    """Advise + apply + prove until no applicable rewrite remains.

    Each round re-parses the current source, re-runs the advisor (so
    line numbers and follow-on opportunities are always fresh), and
    attempts the first rewrite not yet tried. The returned
    :class:`FixResult` carries the final source and the full ledger.
    """
    result = FixResult(source=source, changed=False)
    attempted: set[str] = set()
    current = source
    for _round in range(max_rounds):
        result.rounds = _round + 1
        prog = parse_program(current)
        findings = advise_program(prog, nprocs, extra_vars=extra_vars,
                                  model=model)
        candidate = next(
            (f for f in findings
             if f.rewrite is not None
             and f.rewrite.signature not in attempted), None)
        if candidate is None:
            break
        rewrite = candidate.rewrite
        assert rewrite is not None
        attempted.add(rewrite.signature)
        saving = candidate.diagnostic.saving_s or 0.0

        def step(accepted: bool, reason: str = "",
                 before: dict[str, float] | None = None,
                 after: dict[str, float] | None = None) -> FixStep:
            return FixStep(
                code=rewrite.code, kind=rewrite.kind, line=rewrite.line,
                signature=rewrite.signature, predicted_saving_s=saving,
                accepted=accepted, reason=reason,
                times_before_s=before or {}, times_after_s=after or {})

        work = parse_program(current)
        if not apply_rewrite(work, rewrite):
            result.steps.append(step(False, "rewrite site not found"))
            continue
        new_src = work.to_source()
        try:
            new_prog = parse_program(new_src)
        except ReproError as exc:
            result.steps.append(step(
                False, f"rewritten source fails to parse: {exc}"))
            continue

        report = lint_program(new_prog, nprocs, extra_vars)
        if report.errors:
            listing = "; ".join(str(d) for d in report.errors[:3])
            result.steps.append(step(
                False, f"verifier gate: rewritten program is not "
                       f"CI0xx-clean: {listing}"))
            continue
        races = [d for d in report.diagnostics if d.code in RACE_CODES]
        if races:
            # CI04x findings reject at ANY severity: a rewrite that
            # merely *might* introduce a race (widened byte intervals
            # demote to warning) is still not a proof-carrying fix.
            listing = "; ".join(str(d) for d in races[:3])
            result.steps.append(step(
                False, f"verifier gate: rewrite introduces CI04x race "
                       f"finding(s): {listing}"))
            continue

        ok, reason, before, after = _simulation_gate(
            prog, new_prog, nprocs, extra_vars, model)
        if not ok:
            result.steps.append(step(False, reason, before, after))
            continue

        result.steps.append(step(True, "", before, after))
        current = new_src
    result.source = current
    result.changed = current != source
    return result


def _simulation_gate(prog: Program, new_prog: Program, nprocs: int,
                     extra_vars: dict[str, int] | None,
                     model: MachineModel | None
                     ) -> tuple[bool, str, dict[str, float],
                                dict[str, float]]:
    """Original-vs-rewritten modeled time on every lowering target.

    An original that fails to run on a target (it may literally crash,
    as with an oversized count) imposes no bound there; the rewritten
    program must run on every target regardless.
    """
    before: dict[str, float] = {}
    after: dict[str, float] = {}
    for target in Target:
        try:
            t_before: float | None = simulate_program(
                prog, nprocs, target=target, extra_vars=extra_vars,
                model=model).modeled_time
        except Exception:
            t_before = None
        try:
            t_after = simulate_program(
                new_prog, nprocs, target=target, extra_vars=extra_vars,
                model=model).modeled_time
        except Exception as exc:
            return (False,
                    f"simulation gate: rewritten program fails on "
                    f"{target.value}: {exc}", before, after)
        after[target.value] = t_after
        if t_before is None:
            continue
        before[target.value] = t_before
        if t_after > t_before * (1.0 + _SIM_RTOL):
            return (False,
                    f"simulation gate: modeled time regresses on "
                    f"{target.value} ({t_before * 1e6:.3f} us -> "
                    f"{t_after * 1e6:.3f} us)", before, after)
    return True, "", before, after
