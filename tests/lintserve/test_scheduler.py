"""The scheduler runs each file once, on one parse.

Each file is one ``parse_program`` and one ``lint_program`` run; the
cache keeps one entry per file and the stats one wall time per
executed file.
"""

from pathlib import Path

from repro.core.analysis.codes import make
from repro.core.analysis.lint import LintReport, lint_program
from repro.core.pragma import parse_program
from repro.core.pragma.__main__ import render_reports
from repro.errors import ReproError
from repro.lintserve import ResultCache, lint_sources
from repro.lintserve import scheduler

EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "pragmas"

BROKEN = "double a[8];\n#pragma comm_p2p sender(\n{\n}\n"


def _sources():
    ring = (EXAMPLES / "ring.c").read_text()
    return [("ring.c", ring),
            ("halo1d.c", (EXAMPLES / "halo1d.c").read_text()),
            ("broken.c", BROKEN),
            ("copy/ring.c", ring)]


def _count_parses(monkeypatch):
    calls = []

    def counting(source):
        calls.append(source)
        return parse_program(source)

    monkeypatch.setattr(scheduler, "parse_program", counting)
    return calls


def test_one_parse_per_file(monkeypatch):
    calls = _count_parses(monkeypatch)
    sources = [("ring.c", (EXAMPLES / "ring.c").read_text()),
               ("halo1d.c", (EXAMPLES / "halo1d.c").read_text()),
               ("evenodd.c", (EXAMPLES / "evenodd.c").read_text())]
    _, stats = lint_sources(sources, jobs=1, advise=True)
    assert stats.units_executed == 3
    assert sorted(calls) == sorted(source for _, source in sources)


def test_one_wall_per_executed_unit(tmp_path, monkeypatch):
    run = scheduler.lint_file

    def one_second_each(task):
        return dict(run(task), wall_s=1.0)

    monkeypatch.setattr(scheduler, "lint_file", one_second_each)
    sources = _sources()[:2]
    _, cold = lint_sources(sources, cache=ResultCache(tmp_path))
    assert cold.units_executed == 2
    assert cold.executed_wall_s == 2.0

    edited = [sources[0], ("halo1d.c", sources[1][1] + "\n")]
    _, warm = lint_sources(edited, cache=ResultCache(tmp_path))
    assert warm.units_from_cache == 1
    assert warm.units_executed == 1
    assert warm.executed_wall_s == 1.0


def _sequential(sources, advise=False):
    """The reference lint: ``lint_program`` per parsed file, CI000
    for a file that fails to parse."""
    reports = []
    for path, source in sources:
        try:
            program = parse_program(source)
        except ReproError as exc:
            line = getattr(exc, "line", None) or 0
            report = LintReport(path=path)
            report.diagnostics.append(make("CI000", line, str(exc)))
            reports.append(report)
            continue
        reports.append(lint_program(program, path=path, advise=advise))
    return reports


def test_parse_error_and_duplicate_sources_render_identically(tmp_path):
    sources = _sources()
    expected = _sequential(sources)
    assert expected[2].diagnostics[0].code == "CI000"
    runs = [lint_sources(sources)[0],
            lint_sources(sources, jobs=2)[0],
            lint_sources(sources, cache=ResultCache(tmp_path))[0],
            lint_sources(sources, cache=ResultCache(tmp_path))[0]]
    for fmt in ("json", "sarif"):
        want = render_reports(expected, fmt)
        assert all(render_reports(r, fmt) == want for r in runs)
