"""Exit-code aggregation across the parallel/cached lint paths.

A single error in any shard must fail the merged run with exit 1, and
``--fail-on warning`` must widen aggregation over *all* merged
reports, whatever ``--jobs``/``--cache-dir`` say. Every invocation
takes the one ``lint_sources`` path, so ``--stats-out`` is written and
a missing input stops the run before any ``--fix`` rewrite even
without those flags.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.core.analysis.fix import fix_source
from repro.core.pragma.__main__ import main_lint

EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "pragmas"
CLEAN = str(EXAMPLES / "ring.c")
RACY = str(EXAMPLES / "races" / "send_reuse.c")
SLOW = str(EXAMPLES / "slow" / "early_sync.c")


def test_clean_files_exit_zero(capsys):
    assert main_lint([CLEAN, "--jobs", "2"]) == 0
    capsys.readouterr()


def test_one_bad_shard_fails_the_merged_run(capsys):
    # The error sits in one unit of one file among several clean
    # shards; the aggregated exit must still be 1.
    assert main_lint([CLEAN, RACY, CLEAN, "--jobs", "2"]) == 1
    assert "CI041" in capsys.readouterr().out


def test_fail_on_warning_widens_across_shards(tmp_path, capsys):
    cache = ["--cache-dir", str(tmp_path)]
    assert main_lint([CLEAN, SLOW, "--advise"] + cache) == 0
    capsys.readouterr()
    # Warm path must aggregate identically from cached units.
    assert main_lint([CLEAN, SLOW, "--advise",
                      "--fail-on", "warning"] + cache) == 1
    assert "CI10" in capsys.readouterr().out


def test_parse_error_fails_through_the_pool(tmp_path, capsys):
    broken = tmp_path / "broken.c"
    broken.write_text("#pragma comm_p2p sender(0) sender(1)\n")
    assert main_lint([CLEAN, str(broken), "--jobs", "2"]) == 1
    assert "CI000" in capsys.readouterr().out


def test_missing_file_is_usage_error(tmp_path, capsys):
    rc = main_lint([CLEAN, "/nonexistent/nope.c", "--jobs", "2",
                    "--cache-dir", str(tmp_path)])
    assert rc == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [[], ["--jobs", "2"]])
def test_sequential_and_parallel_agree_on_rc(extra, capsys):
    for argv, want in (([CLEAN], 0), ([RACY], 1), ([CLEAN, RACY], 1)):
        assert main_lint(argv + extra) == want
        capsys.readouterr()


def test_stats_out_without_service_flags(tmp_path, capsys):
    stats_file = tmp_path / "stats.json"
    assert main_lint([CLEAN, "--stats-out", str(stats_file)]) == 0
    # No --jobs/--cache-dir: stderr carries no scheduler summary.
    assert capsys.readouterr().err == ""
    stats = json.loads(stats_file.read_text())
    assert stats["jobs"] == 1
    assert stats["files"] == 1
    assert stats["units_total"] == 1
    assert stats["units_executed"] == 1
    assert stats["units_from_cache"] == 0
    assert "cache" not in stats and "salt" not in stats


def test_fix_with_a_missing_later_file_rewrites_nothing(tmp_path,
                                                        capsys):
    slow = tmp_path / "early_sync.c"
    shutil.copy(SLOW, slow)
    before = slow.read_bytes()
    rc = main_lint([str(slow), str(tmp_path / "missing.c"), "--fix"])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "fixed" not in err and "error" in err
    assert slow.read_bytes() == before
    # The same file alone is rewritten, so the check above is not
    # vacuous.
    assert main_lint([str(slow), "--fix"]) == 0
    assert slow.read_bytes() != before


def test_fix_proves_and_writes_a_repeated_path_once(tmp_path, capsys):
    dup = tmp_path / "dup.c"
    shutil.copy(SLOW, dup)
    expected = fix_source(dup.read_text(encoding="utf-8")).source
    assert main_lint([str(dup), str(dup), "--fix"]) == 0
    err = capsys.readouterr().err
    fixed = [ln for ln in err.splitlines()
             if ln.startswith("repro-lint: fixed")]
    assert fixed == [f"repro-lint: fixed {dup} (1 rewrite(s) proven)"]
    assert dup.read_text(encoding="utf-8") == expected
