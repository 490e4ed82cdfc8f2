"""Deterministic merge of per-file slot maps into lint reports.

The scheduler lints each file into a map of result *slots*
(``structure``, one ``verify:<target>`` per swept lowering target,
optionally ``advise``); workers return the map as JSON-serializable
dicts so results can cross process boundaries and live in the on-disk
cache (:mod:`repro.lintserve.cache`) as one entry per file. This
module owns both directions:

* :func:`serialize_*` — analysis output → plain dict (what workers
  return and the cache stores);
* :func:`assemble_file_report` — one file's slot map →
  :class:`~repro.core.analysis.lint.LintReport`, using the *same*
  collapse/suppress/sort functions the sequential
  :func:`~repro.core.analysis.lint.lint_program` path runs.

Because diagnostics round-trip exactly
(:func:`~repro.core.analysis.codes.diagnostic_from_dict`) and the
merge functions are shared, a report assembled from sharded (or
cached) slot maps renders byte-identically to per-file
:func:`~repro.core.analysis.lint.lint_program` reports —
``tests/lintserve/test_determinism.py`` pins this over the whole
examples tree in JSON and SARIF.
"""

from __future__ import annotations

from typing import Any

from repro.core.analysis.codes import (
    Diagnostic,
    diagnostic_from_dict,
    make,
)
from repro.core.analysis.lint import (
    LintReport,
    collapse_across_targets,
    finalize_report,
)
from repro.core.clauses import Target

__all__ = [
    "assemble_file_report",
    "serialize_diagnostics",
    "serialize_structure",
]


def serialize_diagnostics(diags: list[Diagnostic]) -> list[dict]:
    """Diagnostics → JSON-ready dict list (exact round trip)."""
    return [d.as_dict() for d in diags]


def serialize_structure(report: LintReport) -> dict:
    """The structure slot's report fields → JSON-ready dict."""
    return {
        "n_directives": report.n_directives,
        "n_regions": report.n_regions,
        "sync_calls": report.sync_calls,
        "sync_reduction": report.sync_reduction,
        "patterns": {str(line): name
                     for line, name in report.patterns.items()},
        "diagnostics": serialize_diagnostics(report.diagnostics),
    }


def _deserialize_diags(entries: Any) -> list[Diagnostic]:
    return [diagnostic_from_dict(e) for e in entries]


def parse_error_report(path: str, error: dict) -> LintReport:
    """The report for a file the parser rejected (CI000).

    A bare report (default target list) carrying one CI000 diagnostic
    at the parser's line.
    """
    report = LintReport(path=path)
    report.diagnostics.append(make(
        "CI000", int(error.get("line", 0)), str(error["message"])))
    return report


def assemble_file_report(path: str, slots: dict[str, dict],
                         swept: list[Target],
                         advise: bool) -> LintReport:
    """Merge one file's slot map into its final report.

    ``slots`` maps slot names — ``"structure"``,
    ``"verify:<target>"``, ``"advise"`` — to worker/cache dicts. A
    ``parse_error`` in the structure slot (the only slot a broken
    file has) collapses the file to the CI000 report.
    """
    structure = slots["structure"]
    if "parse_error" in structure:
        return parse_error_report(path, structure["parse_error"])

    swept_values = [t.value for t in swept]
    report = LintReport(path=path, targets=list(swept_values))
    report.n_directives = int(structure["n_directives"])
    report.n_regions = int(structure["n_regions"])
    report.sync_calls = int(structure["sync_calls"])
    report.sync_reduction = float(structure["sync_reduction"])
    report.patterns = {int(line): str(name)
                       for line, name in structure["patterns"].items()}
    report.diagnostics = _deserialize_diags(structure["diagnostics"])

    per_target: dict[str, list[Diagnostic]] = {}
    for value in swept_values:
        per_target[value] = _deserialize_diags(
            slots[f"verify:{value}"]["diagnostics"])
    collapsed = collapse_across_targets(per_target, swept_values)

    advisories: list[Diagnostic] = []
    if advise:
        advisories = _deserialize_diags(slots["advise"]["diagnostics"])
    return finalize_report(report, collapsed, advisories)
