"""The translator and linter command-line tools."""

import json

import pytest

from repro.core.pragma.__main__ import main, main_lint

RING = """\
double buf1[100];
double buf2[100];
int rank, nprocs;
#pragma comm_p2p sender((rank-1+nprocs)%nprocs) receiver((rank+1)%nprocs) sbuf(buf1) rbuf(buf2)
"""

BROKEN = "#pragma comm_p2p sender(0) sender(1)\n"


@pytest.fixture
def ring_file(tmp_path):
    f = tmp_path / "ring.c"
    f.write_text(RING)
    return str(f)


def test_translate_default_mpi(ring_file, capsys):
    assert main([ring_file]) == 0
    out = capsys.readouterr().out
    assert "MPI_Isend(buf1, 100, MPI_DOUBLE" in out
    assert "MPI_Waitall" in out


def test_translate_shmem(ring_file, capsys):
    assert main([ring_file, "--target", "shmem"]) == 0
    out = capsys.readouterr().out
    assert "shmem_double_put" in out
    assert "shmem_quiet" in out
    assert "MPI_Isend" not in out


def test_translate_fortran(ring_file, capsys):
    assert main([ring_file, "--fortran"]) == 0
    out = capsys.readouterr().out
    assert "call MPI_ISEND" in out
    assert "end subroutine" in out


def test_missing_file(capsys):
    assert main(["/nonexistent/path.c"]) == 2
    assert "error" in capsys.readouterr().err


def test_translation_error_reported(tmp_path, capsys):
    f = tmp_path / "broken.c"
    f.write_text(BROKEN)
    assert main([str(f)]) == 1
    assert "duplicate" in capsys.readouterr().err


def test_translator_has_no_analysis_mode(ring_file):
    """The pattern, matching and overlap analyses live in repro-lint."""
    for args in (["--analyze"], ["--nprocs", "4"]):
        with pytest.raises(SystemExit):
            main([ring_file, *args])


# ---------------------------------------------------------------------------
# repro-lint


def test_lint_reports_ring_pattern(ring_file, capsys):
    assert main_lint([ring_file, "--nprocs", "6"]) == 0
    out = capsys.readouterr().out
    assert "pattern = ring" in out
    for code in ("CI004", "CI005", "CI006", "CI010"):
        assert code not in out   # matching consistent, overlap legal


def test_lint_flags_bad_matching(tmp_path, capsys):
    f = tmp_path / "bad.c"
    f.write_text("""\
double a[4];
double b[4];
#pragma comm_p2p sender(0) receiver(rank+1) sendwhen(rank==0) receivewhen(rank==2) sbuf(a) rbuf(b)
""")
    assert main_lint([str(f), "--nprocs", "4"]) == 1
    out = capsys.readouterr().out
    assert "[CI005]" in out and "unreceived-send" in out

DEADLOCK = """\
double x[8];
double y[8];
#pragma comm_parameters sender((rank+1)%nprocs) receiver((rank-1+nprocs)%nprocs) sbuf(x) rbuf(y)
{
#pragma comm_p2p sendwhen(0) receivewhen(1)
{
}
}
mid();
#pragma comm_parameters sender((rank+1)%nprocs) receiver((rank-1+nprocs)%nprocs) sbuf(x) rbuf(y)
{
#pragma comm_p2p sendwhen(1) receivewhen(0)
{
}
}
"""


@pytest.fixture
def deadlock_file(tmp_path):
    f = tmp_path / "deadlock.c"
    f.write_text(DEADLOCK)
    return str(f)


def test_lint_clean_file_exits_zero(ring_file, capsys):
    assert main_lint([ring_file]) == 0
    out = capsys.readouterr().out
    assert "pattern = ring" in out


def test_lint_deadlock_exits_one_text(deadlock_file, capsys):
    assert main_lint([deadlock_file]) == 1
    out = capsys.readouterr().out
    assert "CI001" in out and "deadlock cycle" in out


def test_lint_deadlock_exits_one_json(deadlock_file, capsys):
    assert main_lint([deadlock_file, "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    [entry] = doc["reports"]
    assert any(d["code"] == "CI001" and d["severity"] == "error"
               for d in entry["diagnostics"])


def test_lint_deadlock_exits_one_sarif(deadlock_file, capsys):
    assert main_lint([deadlock_file, "--format", "sarif"]) == 1
    log = json.loads(capsys.readouterr().out)
    assert log["version"] == "2.1.0"
    results = log["runs"][0]["results"]
    assert any(r["ruleId"] == "CI001" and r["level"] == "error"
               for r in results)


def test_lint_parse_error_is_ci000(tmp_path, capsys):
    f = tmp_path / "broken.c"
    f.write_text(BROKEN)
    assert main_lint([str(f), "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["reports"][0]["diagnostics"][0]["code"] == "CI000"


def test_lint_nprocs_and_var_forwarded(tmp_path, capsys):
    f = tmp_path / "shift.c"
    f.write_text("""\
double a[8];
double b[8];
#pragma comm_p2p sender(rank-k) receiver(rank+k) sendwhen(rank+k<nprocs) receivewhen(rank>=k) sbuf(a) rbuf(b)
""")
    assert main_lint([str(f), "--nprocs", "4", "--var", "k=1"]) == 0
    assert "shift" in capsys.readouterr().out


@pytest.mark.parametrize("bad", ["k", "=1", "k=x"])
def test_lint_bad_var_is_usage_error(bad, capsys):
    """A malformed binding exits 2 before anything is linted, and the
    message names the flag."""
    with pytest.raises(SystemExit) as info:
        main_lint(["--catalog", "--var", bad])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert "argument --var" in captured.err
    assert captured.out == ""


def test_lint_catalog_is_clean(capsys):
    assert main_lint(["--catalog"]) == 0
    out = capsys.readouterr().out
    assert "catalog:ring" in out


def test_lint_no_inputs_is_usage_error(capsys):
    assert main_lint([]) == 2
    assert "no inputs" in capsys.readouterr().err


def test_lint_missing_file(capsys):
    assert main_lint(["/nonexistent/lint.c"]) == 2
    assert "error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# repro-lint: targets, --advise and the proof-carrying --fix


SLOW_RING = """\
double s0[512];
double r0[512];
double s1[512];
double r1[512];
int rank, nprocs;
#pragma comm_p2p sender((rank-1+nprocs)%nprocs) receiver((rank+1)%nprocs) sbuf(s0) rbuf(r0)
#pragma comm_p2p sender((rank-1+nprocs)%nprocs) receiver((rank+1)%nprocs) sbuf(s1) rbuf(r1)
"""


@pytest.fixture
def slow_file(tmp_path):
    f = tmp_path / "slow.c"
    f.write_text(SLOW_RING)
    return str(f)


def test_lint_json_lists_swept_targets(ring_file, capsys):
    assert main_lint([ring_file, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    [entry] = doc["reports"]
    assert entry["targets"] == ["TARGET_COMM_MPI_1SIDE",
                                "TARGET_COMM_MPI_2SIDE",
                                "TARGET_COMM_SHMEM"]


def test_lint_target_restricts_sweep(ring_file, capsys):
    assert main_lint([ring_file, "--target", "shmem",
                      "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["reports"][0]["targets"] == ["TARGET_COMM_SHMEM"]


def test_lint_sarif_carries_run_targets(ring_file, capsys):
    assert main_lint([ring_file, "--format", "sarif"]) == 0
    log = json.loads(capsys.readouterr().out)
    props = log["runs"][0]["properties"]
    assert props["targets"] == ["TARGET_COMM_MPI_1SIDE",
                                "TARGET_COMM_MPI_2SIDE",
                                "TARGET_COMM_SHMEM"]


def test_lint_advise_emits_ci1xx_but_exits_zero(slow_file, capsys):
    assert main_lint([slow_file, "--advise"]) == 0
    out = capsys.readouterr().out
    assert "CI100" in out


def test_lint_without_advise_is_silent_on_ci1xx(slow_file, capsys):
    assert main_lint([slow_file]) == 0
    assert "CI100" not in capsys.readouterr().out


def test_lint_fix_dry_run_reports_ledger_without_writing(slow_file,
                                                         capsys):
    before = open(slow_file).read()
    assert main_lint([slow_file, "--fix-dry-run"]) == 0
    out = capsys.readouterr().out
    assert "accepted [CI100] merge-standalone" in out
    assert open(slow_file).read() == before


def test_lint_fix_dry_run_json_ledger(slow_file, capsys):
    assert main_lint([slow_file, "--fix-dry-run",
                      "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    [entry] = doc["reports"]
    fix = entry["fix"]
    assert fix["changed"] is True
    [step] = fix["steps"]
    assert step["accepted"] is True
    assert step["code"] == "CI100"
    assert set(step["times_before_s"]) == set(step["times_after_s"])
    for t, t_before in step["times_before_s"].items():
        assert step["times_after_s"][t] <= t_before


def test_lint_fix_rewrites_file_in_place(slow_file, capsys):
    assert main_lint([slow_file, "--fix"]) == 0
    err = capsys.readouterr().err
    assert "fixed" in err
    fixed = open(slow_file).read()
    assert "#pragma comm_parameters" in fixed
    # the fixed file now lints clean of CI100 even with --advise
    assert main_lint([slow_file, "--advise"]) == 0
    assert "CI100" not in capsys.readouterr().out


# ---------------------------------------------------------------------------
# --fail-on: exit-code policy

WARN_ONLY = """\
double out[16];
double in[16];
int rank, nprocs;
#pragma comm_parameters sender((rank+1)%nprocs) receiver((rank-1+nprocs)%nprocs)
{
#pragma comm_p2p sbuf(out) rbuf(in)
  out[i] = 0.0;
#pragma end_adjacent
}
"""


@pytest.fixture
def warn_only_file(tmp_path):
    # The unevaluable write index widens the CI041 byte interval, so
    # the race finding is demoted to a warning — and nothing else in
    # the program is refutable.
    f = tmp_path / "warn_only.c"
    f.write_text(WARN_ONLY)
    return str(f)


def test_fail_on_error_is_the_default(ring_file, deadlock_file, capsys):
    assert main_lint([ring_file, "--fail-on", "error"]) == 0
    assert main_lint([deadlock_file, "--fail-on", "error"]) == 1
    capsys.readouterr()


def test_clean_file_passes_even_on_warning(ring_file, capsys):
    assert main_lint([ring_file, "--fail-on", "warning"]) == 0
    capsys.readouterr()


def test_warnings_pass_by_default(warn_only_file, capsys):
    assert main_lint([warn_only_file]) == 0
    assert "warning [CI041]" in capsys.readouterr().out


def test_fail_on_warning_fails_warning_only_report(warn_only_file, capsys):
    assert main_lint([warn_only_file, "--fail-on", "warning"]) == 1
    assert "warning [CI041]" in capsys.readouterr().out


def test_fail_on_warning_still_fails_errors(deadlock_file, capsys):
    assert main_lint([deadlock_file, "--fail-on", "warning"]) == 1
    capsys.readouterr()
