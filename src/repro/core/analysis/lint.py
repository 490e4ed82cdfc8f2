"""Whole-program directive linting.

Bundles the static analyses into one diagnostic pass over a parsed
:class:`~repro.core.ir.Program` — the "automated analysis" the paper
argues directives enable that raw MPI defeats. Per-directive checks
(clause completeness, count inference, SPMD matching, overlap legality)
are combined with the whole-program verifier
(:mod:`repro.core.analysis.verify`), which proves deadlock freedom,
stale-read freedom, consolidation safety and byte-interval race
freedom (the CI04x family, :mod:`repro.core.analysis.races`) for
every lowering target.

Findings are :class:`~repro.core.analysis.codes.Diagnostic` records
with stable ``CI``-prefixed codes; :func:`render_json` and
:func:`render_sarif` serialize a report for tooling (SARIF 2.1.0 for
code-scanning UIs), and the ``repro-lint`` console entry point
(:mod:`repro.core.pragma.__main__`) drives all of it from the shell.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Any

from repro.core import exprs
from repro.core.analysis.codes import RULES, Diagnostic, help_uri, make
from repro.core.analysis.dataflow import (
    CommGraph,
    classify_pattern,
    validate_matching,
)
from repro.core.analysis.infer import infer_count_static
from repro.core.analysis.overlap import overlap_legal
from repro.core.analysis.syncopt import plan_synchronization
from repro.core.analysis.verify import VerifyReport, verify_all_targets
from repro.core.clauses import Target
from repro.core.ir import ClauseExprs, P2PNode, ParamRegionNode, Program
from repro.errors import ReproError, VerificationError

#: MatchingIssue.kind -> diagnostic code.
_MATCH_CODES = {
    "invalid-destination": "CI004",
    "invalid-source": "CI004",
    "unreceived-send": "CI005",
    "mismatched-sender": "CI006",
    "unsatisfied-receive": "CI005",
}


@dataclass
class LintReport:
    """All findings plus the headline numbers."""

    diagnostics: list[Diagnostic] = field(default_factory=list)
    n_directives: int = 0
    n_regions: int = 0
    sync_calls: int = 0
    sync_reduction: float = 1.0
    patterns: dict[int, str] = field(default_factory=dict)
    #: Source file the program came from ("" when linted from memory).
    path: str = ""
    #: The lowering targets the verifier swept (all three unless the
    #: caller restricted the analysis).
    targets: list[str] = field(
        default_factory=lambda: [t.value for t in Target])

    @property
    def errors(self) -> list[Diagnostic]:
        """Findings that make the program untranslatable."""
        return [d for d in self.diagnostics if d.severity == "error"]

    @property
    def warnings(self) -> list[Diagnostic]:
        """Findings worth fixing but not fatal."""
        return [d for d in self.diagnostics if d.severity == "warning"]

    def require_clean(self) -> None:
        """Raise :class:`VerificationError` on error-severity findings."""
        errors = self.errors
        if errors:
            listing = "\n".join(str(d) for d in errors)
            raise VerificationError(
                f"static verification refuted the program with "
                f"{len(errors)} error(s):\n{listing}")

    def render(self) -> str:
        """Human-readable report text."""
        lines = [
            f"{self.n_directives} comm_p2p in {self.n_regions} "
            f"region(s); {self.sync_calls} synchronization call(s) "
            f"({self.sync_reduction:.1f}x consolidation)",
        ]
        for line_no, pattern in sorted(self.patterns.items()):
            lines.append(f"info: line {line_no}: pattern = {pattern}")
        lines.extend(str(d) for d in self.diagnostics)
        return "\n".join(lines)


def render_json(reports: list[LintReport],
                fixes: dict[str, Any] | None = None) -> str:
    """Serialize lint reports as one JSON document.

    ``fixes`` optionally maps a report path to a
    :class:`repro.core.analysis.fix.FixResult`, whose proof ledger is
    embedded under a ``fix`` key (``repro-lint --fix-dry-run``).
    """
    payload = []
    for report in reports:
        entry: dict[str, Any] = {
            "path": report.path,
            "targets": list(report.targets),
            "n_directives": report.n_directives,
            "n_regions": report.n_regions,
            "sync_calls": report.sync_calls,
            "sync_reduction": round(report.sync_reduction, 3),
            "patterns": {str(k): v
                         for k, v in sorted(report.patterns.items())},
            "diagnostics": [d.as_dict() for d in report.diagnostics],
        }
        if fixes and report.path in fixes:
            result = fixes[report.path]
            entry["fix"] = {
                "changed": result.changed,
                "rounds": result.rounds,
                "steps": [s.as_dict() for s in result.steps],
            }
        payload.append(entry)
    return json.dumps({"reports": payload}, indent=2)


#: Diagnostic severity -> SARIF result level.
_SARIF_LEVELS = {"error": "error", "warning": "warning", "info": "note"}

_SARIF_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/"
                 "sarif-spec/master/Schemata/sarif-schema-2.1.0.json")


def render_sarif(reports: list[LintReport]) -> str:
    """Serialize lint reports as a SARIF 2.1.0 log.

    One run; one result per diagnostic. The driver's rule table is the
    *complete* :data:`~repro.core.analysis.codes.RULES` registry — not
    just the codes this run produced — each with ``name``,
    ``shortDescription``, ``helpUri`` and default severity, so a new
    diagnostic family can never ship half-rendered
    (``tests/core/test_lint.py`` pins registry completeness).
    """
    rules = []
    for code in sorted(RULES):
        rule = RULES[code]
        entry: dict[str, object] = {
            "id": code,
            "name": rule.name,
            "shortDescription": {"text": rule.summary},
            "helpUri": help_uri(code),
            "defaultConfiguration": {
                "level": _SARIF_LEVELS.get(rule.severity, "warning")},
        }
        if rule.fixit:
            entry["help"] = {"text": rule.fixit}
        rules.append(entry)
    results = []
    for report in reports:
        for d in report.diagnostics:
            result: dict[str, object] = {
                "ruleId": d.code or "CI999",
                "level": _SARIF_LEVELS.get(d.severity, "warning"),
                "message": {"text": str(d)},
                "locations": [{
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": report.path or "<memory>"},
                        "region": {"startLine": max(1, d.line)},
                    },
                }],
            }
            if d.target and d.target != "*":
                result["properties"] = {"target": d.target}
            results.append(result)
    swept = sorted({t for r in reports for t in r.targets})
    log = {
        "$schema": _SARIF_SCHEMA,
        "version": "2.1.0",
        "runs": [{
            "tool": {"driver": {
                "name": "repro-lint",
                "informationUri":
                    "https://github.com/ipdpsw13-comm-intent",
                "rules": rules,
            }},
            "properties": {"targets": swept},
            "results": results,
        }],
    }
    return json.dumps(log, indent=2)


def lint_program(program: Program, nprocs: int = 8,
                 extra_vars: dict[str, int] | None = None,
                 path: str = "", *,
                 targets: list[Target] | None = None,
                 advise: bool = False,
                 model: Any = None) -> LintReport:
    """Run every static analysis over a parsed program.

    The one composition of the lint passes; the lint service
    (:mod:`repro.lintserve`) runs it once per file and caches the
    finished report. One sync plan gives the headline numbers and the
    CI021 forced-split findings. One
    :func:`~repro.core.analysis.verify.verify_all_targets` sweep (one
    rank walk, one printed source, one walk key) proves each lowering
    target; findings identical on every swept target are collapsed to
    one diagnostic with ``target="*"``. The per-directive checks
    (clause completeness, count inference, pattern classification and
    SPMD matching on the walk's communication graphs, overlap legality)
    and the ``max_comm_iter`` check are target-independent. ``targets``
    restricts the sweep (default: all three). ``advise=True``
    additionally runs the performance advisor
    (:mod:`repro.core.analysis.advisor`), whose CI1xx warnings carry a
    net-model estimated saving for the first swept target under
    ``model`` (default: the calibrated Gemini model). Shadowed findings
    are dropped and the rest sorted.
    """
    swept = list(targets) if targets else list(Target)
    report = LintReport(path=path, targets=[t.value for t in swept])
    report.n_directives = len(program.all_p2p())
    report.n_regions = len(program.regions())
    plan = plan_synchronization(program)
    report.sync_calls = plan.total_sync_calls
    report.sync_reduction = plan.reduction_factor(program)

    for region, splits in plan.forced_splits:
        report.diagnostics.append(make(
            "CI021", region.line,
            f"region has {splits} dependent buffer split(s); "
            "synchronization cannot fully consolidate",
            target="*"))

    verdicts = verify_all_targets(program, nprocs=nprocs,
                                  extra_vars=extra_vars, targets=swept)
    scopes: dict[int, ParamRegionNode] = {}
    held: Counter[int] = Counter()
    for (node, scope, clauses), graph in zip(
            program.p2p_clauses(), verdicts[swept[0]].comm_graphs,
            strict=True):
        _lint_directive(program, node, clauses, graph, report)
        if scope is not None:
            scopes[id(scope)] = scope
            held[id(scope)] += 1
    for key, region in scopes.items():
        _lint_max_comm_iter(region, held[key], nprocs, extra_vars, report)
    report.diagnostics.extend(_collapse_across_targets(verdicts, swept))
    if advise:
        from repro.core.analysis.advisor import advise_program
        from repro.core.clauses import DEFAULT_TARGET
        advise_target = (DEFAULT_TARGET if DEFAULT_TARGET in swept
                         else swept[0])
        report.diagnostics.extend(f.diagnostic for f in advise_program(
            program, nprocs, target=advise_target,
            extra_vars=extra_vars, model=model))
    _suppress_shadowed(report)
    report.diagnostics.sort(key=lambda d: d.sort_key())
    return report


def _lint_max_comm_iter(region: ParamRegionNode, instances: int,
                        nprocs: int, extra_vars: dict[str, int] | None,
                        report: LintReport) -> None:
    """CI033 when ``region`` holds more ``comm_p2p`` instances than its
    ``max_comm_iter`` admits. Each instance whose innermost region is
    ``region`` executes once per region entry, which is what the
    runtime counts against the limit."""
    expr = region.clauses.exprs.get("max_comm_iter")
    if expr is None:
        return
    try:
        limit = exprs.evaluate(expr, {"nprocs": nprocs, "size": nprocs,
                                      **(extra_vars or {})})
    except ReproError:
        return  # rank-dependent or unbound: left to the runtime check
    if isinstance(limit, int) and instances > limit:
        report.diagnostics.append(make(
            "CI033", region.line,
            f"region holds {instances} comm_p2p instance(s) but "
            f"max_comm_iter({expr}) admits {limit}", target="*"))


def _collapse_across_targets(verdicts: dict[Target, VerifyReport],
                             swept: list[Target]) -> list[Diagnostic]:
    """Merge per-target verifier findings into tagged diagnostics.

    A finding produced with the same (code, line, directive, message)
    on every swept target is target-independent: collapse to
    ``target="*"``; otherwise keep one copy per target that produced
    it. First-seen order over ``swept`` decides output order.
    """
    grouped: dict[tuple[str, int, int | None, str],
                  tuple[Diagnostic, list[str]]] = {}
    for target in swept:
        for d in verdicts[target].diagnostics:
            key = (d.code, d.line, d.directive, d.message)
            grouped.setdefault(key, (d, []))[1].append(target.value)
    out: list[Diagnostic] = []
    for d, targets in grouped.values():
        tags = ["*"] if len(targets) == len(swept) else targets
        for t in tags:
            out.append(Diagnostic(
                severity=d.severity, line=d.line, message=d.message,
                code=d.code, directive=d.directive, target=t,
                fixit=d.fixit))
    return out


def _suppress_shadowed(report: LintReport) -> None:
    """Drop findings a stronger finding at the same directive subsumes.

    An ``unsatisfied-receive`` matching warning (CI005) is the
    per-directive shadow of a verifier-proved deadlock (CI002) at the
    same directive — keep the proof, drop the shadow.
    """
    deadlocked = {d.directive or d.line for d in report.diagnostics
                  if d.code == "CI002"}
    report.diagnostics[:] = [
        d for d in report.diagnostics
        if not (d.code == "CI005" and "unsatisfied-receive" in d.message
                and d.line in deadlocked)]


def _lint_directive(program: Program, node: P2PNode,
                    clauses: ClauseExprs, graph: CommGraph | None,
                    report: LintReport) -> None:
    try:
        clauses.require_complete()
    except ReproError as exc:
        report.diagnostics.append(make(
            "CI030", node.line, str(exc), directive=node.line,
            target="*"))
        return
    try:
        infer_count_static(clauses, program.decls)
    except ReproError as exc:
        report.diagnostics.append(make(
            "CI031", node.line, str(exc), directive=node.line,
            target="*"))
    if graph is not None:  # else the verifier's CI004/CI032
        report.patterns[node.line] = classify_pattern(graph)
        for issue in validate_matching(graph):
            code = _MATCH_CODES.get(issue.kind, "CI006")
            report.diagnostics.append(make(
                code, node.line, str(issue), directive=node.line,
                target="*"))
    verdict = overlap_legal(node, clauses)
    if not verdict.legal:
        report.diagnostics.append(make(
            "CI010", node.line, f"illegal overlap: {verdict.reason}",
            directive=node.line, target="*"))
