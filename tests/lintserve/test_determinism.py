"""Byte-identity of the CLI's default, sharded and memoized runs.

The service's core contract: the default run, ``--jobs 8`` and a cold
and a warm ``--cache-dir`` run must render exactly the bytes of the
independent reference — per-file ``lint_program`` reports (CI000 for
files that fail to parse) through ``render_reports`` — in text, JSON
and SARIF, with and without ``--advise``, over the whole examples
tree, including the seeded race counterexamples (``races/``)
and the minimized generated corpus (``generated/``). Plus the
incremental contract: editing one file re-executes exactly that file's
units.
"""

from pathlib import Path

import pytest

from repro.core.pragma.__main__ import main_lint, render_reports
from repro.lintserve import ResultCache, lint_sources

from .test_scheduler import _sequential

EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "pragmas"


@pytest.fixture(scope="module")
def example_files():
    files = sorted(str(p) for p in EXAMPLES.rglob("*.c"))
    assert any("/races/" in f for f in files)
    assert any("/generated/" in f for f in files)
    return files


def _run(argv, capsys):
    rc = main_lint(argv)
    return rc, capsys.readouterr().out


@pytest.mark.parametrize("fmt", ["text", "json", "sarif"])
def test_parallel_and_cached_output_identical(example_files, tmp_path,
                                              capsys, fmt):
    sources = [(f, Path(f).read_text(encoding="utf-8"))
               for f in example_files]
    for advise in (False, True):
        expected = _sequential(sources, advise=advise)
        # The advisor's CI1xx findings ride inside the cached report.
        assert any(d.code.startswith("CI1") for r in expected
                   for d in r.diagnostics) == advise
        reference = render_reports(expected, fmt)
        base = example_files + ["--format", fmt] + ["--advise"] * advise
        rc0, default = _run(base, capsys)
        rc1, parallel = _run(base + ["--jobs", "8"], capsys)
        cached = base + ["--jobs", "2", "--cache-dir",
                         str(tmp_path / f"{fmt}-{advise}")]
        rc2, cold = _run(cached, capsys)
        rc3, warm = _run(cached, capsys)
        assert rc0 == rc1 == rc2 == rc3 == 1  # bad/ + races/: errors
        assert reference == default == parallel == cold == warm


def test_warm_run_is_fully_memoized(example_files, tmp_path, capsys):
    argv = example_files + ["--cache-dir", str(tmp_path),
                            "--stats-out", str(tmp_path / "stats.json")]
    main_lint(argv)
    capsys.readouterr()
    main_lint(argv)
    capsys.readouterr()
    import json
    stats = json.loads((tmp_path / "stats.json").read_text())
    assert stats["units_executed"] == 0
    assert stats["hit_rate"] == 1.0
    assert stats["units_total"] == len(example_files)


def test_editing_one_file_relints_exactly_its_units(tmp_path):
    sources = [("a.c", "double a[8];\n"), ("b.c", "double b[8];\n"),
               ("c.c", "double c[8];\n")]
    cache = ResultCache(tmp_path)
    _, cold = lint_sources(sources, cache=cache)
    assert cold.units_executed == cold.units_total == 3

    edited = list(sources)
    edited[1] = ("b.c", "double b[16];\n")
    _, warm = lint_sources(edited, cache=ResultCache(tmp_path))
    # One unit per file: exactly b.c re-executes.
    assert warm.units_executed == 1
    assert warm.units_from_cache == 2

    _, again = lint_sources(edited, cache=ResultCache(tmp_path))
    assert again.units_executed == 0


def test_rename_does_not_invalidate(tmp_path):
    sources = [("old.c", "double a[8];\n")]
    lint_sources(sources, cache=ResultCache(tmp_path))
    reports, stats = lint_sources([("new/dir.c", "double a[8];\n")],
                                  cache=ResultCache(tmp_path))
    assert stats.units_executed == 0
    assert reports[0].path == "new/dir.c"
