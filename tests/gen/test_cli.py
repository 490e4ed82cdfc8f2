"""``repro-gen`` command-line behavior: exit codes, stats artifact,
emit mode, ``--jobs`` reproducing the inline sweep, and the
weakened-oracle acceptance path (catch + minimize to a tiny repro).
"""

import json

import pytest

from repro.core.analysis import hb
from repro.gen.cli import build_parser, main
from repro.gen.generator import generate


def _stats(tmp_path, name, argv):
    out = tmp_path / name
    rc = main(argv + ["--stats-out", str(out), "--quiet"])
    return rc, json.loads(out.read_text())


def _verdict(stats):
    """The stats fields that must not depend on ``--jobs``."""
    return (stats["programs"], stats["modes"], stats["oracle_checks"],
            stats["disagreements"], sorted(stats["explained"]),
            stats["minimized"])


def test_parser_defaults():
    ns = build_parser().parse_args([])
    assert ns.mode == "mix" and not ns.diff and ns.fuzz_seeds == 2


def test_removed_flags_are_rejected(capsys):
    for flag in ("--stats", "--shard", "--cache-dir", "--merge-stats",
                 "--stats-in"):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([flag, "x"])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err


def test_list_mode_exit_zero(capsys):
    assert main(["--seed", "1", "2", "--mode", "clean"]) == 0
    out = capsys.readouterr().out
    assert "seed=1" in out and "seed=2" in out


def test_bad_target_is_usage_error(capsys):
    assert main(["--seed", "1", "--diff", "--targets", "bogus"]) == 2


def test_emit_writes_sources(tmp_path):
    rc = main(["--seed", "3", "--mode", "clean", "--emit",
               "--out", str(tmp_path), "--quiet"])
    assert rc == 0
    path = tmp_path / "seed3_clean.c"
    assert path.read_text() == generate(3, "clean").source


def test_clean_diff_exit_zero_with_stats(tmp_path, capsys):
    stats_file = tmp_path / "stats.json"
    rc = main(["--seed", "0", "--mode", "clean", "--diff",
               "--fuzz-seeds", "0", "--stats-out", str(stats_file),
               "--quiet"])
    assert rc == 0
    stats = json.loads(stats_file.read_text())
    assert stats["programs"] == 1
    assert stats["disagreements"] == []
    assert stats["oracle_checks"] > 0
    assert "hb_cache" in stats
    assert "0 disagreements" in capsys.readouterr().out


def test_expect_disagreements_inverts_exit(capsys):
    rc = main(["--seed", "0", "--mode", "clean", "--diff",
               "--fuzz-seeds", "0", "--expect-disagreements",
               "--quiet"])
    assert rc == 1
    assert "expected disagreements" in capsys.readouterr().err


def test_weakened_run_is_caught_and_minimized(tmp_path, capsys,
                                              weakened_catch):
    """Acceptance bar end-to-end: a deliberately weakened static side
    disagrees with the dynamic side, and the repro auto-minimizes to
    at most 10 statements."""
    gp, _weakened = weakened_catch
    stats_file = tmp_path / "stats.json"
    rc = main(["--seed", str(gp.seed), "--mode", "racy", "--diff",
               "--fuzz-seeds", "0", "--weaken-oracle", "ignore-races",
               "--expect-disagreements", "--minimize",
               "--out", str(tmp_path), "--stats-out", str(stats_file),
               "--quiet"])
    assert rc == 0, capsys.readouterr().err
    stats = json.loads(stats_file.read_text())
    assert stats["weaken"] == "ignore-races"
    assert stats["minimized"], "the disagreeing program must minimize"
    for entry in stats["minimized"]:
        assert entry["final_statements"] <= 10, entry
        repro = tmp_path / str(entry["file"]).rsplit("/", 1)[-1]
        assert repro.exists()
        assert f"seed={gp.seed}" in repro.read_text()


def test_jobs_reproduce_sequential(tmp_path, capsys, weakened_catch):
    """``--jobs 2`` writes the inline run's stats, apart from ``jobs``
    (``hb_cache`` included); the weakened sweep feeds pooled verdicts
    to the minimizer."""
    gp, _weakened = weakened_catch
    weak = ["--seed", str(gp.seed), str(gp.seed + 1), "--mode", "racy",
            "--diff", "--fuzz-seeds", "0", "--weaken-oracle",
            "ignore-races", "--expect-disagreements", "--minimize",
            "--out", str(tmp_path / "repros")]
    for name, base in (("clean", ["--seeds", "6", "--diff",
                                  "--fuzz-seeds", "0"]),
                       ("weak", weak)):
        # Both runs start from an empty walk cache (pool workers fork
        # from this process), so their hb_cache counts must agree.
        hb.GRAPH_CACHE.clear()
        rc_seq, seq = _stats(tmp_path, f"{name}-seq.json", base)
        hb.GRAPH_CACHE.clear()
        rc_par, par = _stats(tmp_path, f"{name}-par.json",
                             base + ["--jobs", "2"])
        assert rc_seq == rc_par == 0, capsys.readouterr().err
        assert (seq["jobs"], par["jobs"]) == (1, 2)
        assert _verdict(par) == _verdict(seq)
        assert par["hb_cache"] == seq["hb_cache"]
        assert seq["hb_cache"]["misses"] > 0
    assert seq["disagreements"] and seq["minimized"]
    capsys.readouterr()
