"""A lint report's JSON form: what workers return and the cache stores.

:func:`report_to_dict` and :func:`report_from_dict` are an exact round
trip of a :class:`~repro.core.analysis.lint.LintReport` minus its
path. Diagnostics round-trip through
:func:`~repro.core.analysis.codes.diagnostic_from_dict`, and JSON
keeps every number's type and value (``sync_reduction`` included),
so a report rebuilt from a pooled or cached entry renders
byte-identically to the :func:`~repro.core.analysis.lint.lint_program`
report it was made from — ``tests/lintserve/test_determinism.py``
pins this over the whole examples tree in text, JSON and SARIF.

The path is left out because it is not a lint input: a renamed but
unchanged file reuses its entry and gets its own path back.
"""

from __future__ import annotations

from repro.core.analysis.codes import diagnostic_from_dict
from repro.core.analysis.lint import LintReport

__all__ = ["report_from_dict", "report_to_dict"]


def report_to_dict(report: LintReport) -> dict:
    """A report → JSON-ready dict, without its path."""
    return {
        "targets": list(report.targets),
        "n_directives": report.n_directives,
        "n_regions": report.n_regions,
        "sync_calls": report.sync_calls,
        "sync_reduction": report.sync_reduction,
        "patterns": {str(line): name
                     for line, name in report.patterns.items()},
        "diagnostics": [d.as_dict() for d in report.diagnostics],
    }


def report_from_dict(path: str, entry: dict) -> LintReport:
    """Rebuild the report :func:`report_to_dict` serialized, at ``path``."""
    return LintReport(
        path=path,
        targets=list(entry["targets"]),
        n_directives=entry["n_directives"],
        n_regions=entry["n_regions"],
        sync_calls=entry["sync_calls"],
        sync_reduction=entry["sync_reduction"],
        patterns={int(line): name
                  for line, name in entry["patterns"].items()},
        diagnostics=[diagnostic_from_dict(d)
                     for d in entry["diagnostics"]])
