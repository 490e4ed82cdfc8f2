"""Whole-program directive linting."""

import json
from pathlib import Path

import pytest

from repro.core.analysis import (
    lint_program,
    render_json,
    render_sarif,
)
from repro.core.analysis.progsim import simulate_program
from repro.core.analysis.verify import verify_program
from repro.core.clauses import Target
from repro.core.pragma import parse_program
from repro.core.pragma.__main__ import main_lint
from repro.errors import ClauseError, SimProcessError, VerificationError

MAX_COMM_ITER_OVERFLOW = (Path(__file__).resolve().parents[2] / "examples"
                          / "pragmas" / "bad" / "max_comm_iter_overflow.c")
CLAUSE_ARITH_ERROR = MAX_COMM_ITER_OVERFLOW.with_name("clause_arith_error.c")
CLAUSE_FAILS_ON_ONE_RANK = MAX_COMM_ITER_OVERFLOW.with_name(
    "clause_fails_on_one_rank.c")
CLAUSE_FAILS_BEFORE_CLEAN_RING = MAX_COMM_ITER_OVERFLOW.with_name(
    "clause_fails_before_clean_ring.c")
CLAUSE_FAILS_BEFORE_SHMEM_RING = MAX_COMM_ITER_OVERFLOW.with_name(
    "clause_fails_before_shmem_ring.c")
CLAUSE_FAILS_AFTER_RACE = MAX_COMM_ITER_OVERFLOW.with_name(
    "clause_fails_after_race.c")

#: name -> (ring clauses whose partner values are no integer rank,
#: nprocs, the CI004 message). ``/`` yields a float; at nprocs 2 the
#: bool ``rank==0`` names the other rank, so both read as a clean ring
#: if a value were truncated to an int.
NON_INTEGER_RANKS = {
    "float": ("sender((rank-1+nprocs)%nprocs/1) "
              "receiver((rank+1)%nprocs/1)", 4,
              "receiver clause on rank 0: expression '(rank+1)%nprocs/1' "
              "does not evaluate to an integer rank (got 1.0)"),
    "bool": ("sender(rank==0) receiver((rank+1)%nprocs)", 2,
             "sender clause on rank 0: expression 'rank==0' does not "
             "evaluate to an integer rank (got True)"),
}


def _ring(clauses: str) -> str:
    return ("double a[8];\ndouble b[8];\nint rank, nprocs;\n"
            f"#pragma comm_p2p {clauses} sbuf(a) rbuf(b)\nconsume(b);\n")

CLEAN = """
double a[16]; double b[16]; double c[16]; double d[16];
int rank, nprocs;
#pragma comm_parameters sender((rank-1+nprocs)%nprocs) receiver((rank+1)%nprocs)
{
#pragma comm_p2p sbuf(a) rbuf(b)
#pragma comm_p2p sbuf(c) rbuf(d)
}
"""

DEPENDENT = """
double a[16]; double b[16]; double c[16];
#pragma comm_parameters sender(0) receiver(1)
{
#pragma comm_p2p sbuf(a) rbuf(b)
#pragma comm_p2p sbuf(b) rbuf(c)
}
"""

BAD_OVERLAP = """
double a[16]; double b[16];
#pragma comm_p2p sender(0) receiver(1) sbuf(a) rbuf(b)
{
    consume(b);
}
"""

BAD_MATCH = """
double a[16]; double b[16];
#pragma comm_p2p sender(0) receiver(rank+1) sendwhen(rank==0) receivewhen(rank==3) sbuf(a) rbuf(b)
"""

MISSING_DECL = """
double a[16];
#pragma comm_p2p sender(0) receiver(1) sbuf(a) rbuf(ghost)
"""


class TestLint:
    def test_clean_program_no_findings(self):
        report = lint_program(parse_program(CLEAN), nprocs=6)
        assert not report.errors
        assert not report.warnings
        assert report.n_directives == 2
        assert report.n_regions == 1
        assert report.sync_calls == 1
        assert report.sync_reduction == 2.0
        assert set(report.patterns.values()) == {"ring"}

    def test_dependent_buffers_warned(self):
        report = lint_program(parse_program(DEPENDENT))
        assert any("dependent buffer" in d.message
                   for d in report.warnings)
        assert report.sync_calls == 2

    def test_illegal_overlap_is_error(self):
        report = lint_program(parse_program(BAD_OVERLAP))
        assert any("illegal overlap" in d.message for d in report.errors)

    def test_matching_issue_warned(self):
        report = lint_program(parse_program(BAD_MATCH), nprocs=4)
        assert any("unreceived-send" in d.message or
                   "unsatisfied-receive" in d.message
                   for d in report.warnings)

    def test_missing_declaration_is_error(self):
        report = lint_program(parse_program(MISSING_DECL))
        assert any("declaration" in d.message for d in report.errors)

    def test_render_is_human_readable(self):
        report = lint_program(parse_program(CLEAN), nprocs=6)
        out = report.render()
        assert "2 comm_p2p in 1 region(s)" in out
        assert "pattern = ring" in out

    def test_extra_vars_forwarded(self):
        src = """
        double a[8]; double b[8];
        #pragma comm_p2p sender(root) receiver(root) sendwhen(rank!=root) receivewhen(rank==root) sbuf(a) rbuf(b)
        """
        report = lint_program(parse_program(src), nprocs=4,
                              extra_vars={"root": 1})
        assert list(report.patterns.values()) == ["fan-in"]


CYCLE = """
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


class TestDiagnosticCodes:
    def test_every_diagnostic_carries_a_code(self):
        for source in (DEPENDENT, BAD_OVERLAP, BAD_MATCH, MISSING_DECL,
                       CYCLE):
            report = lint_program(parse_program(source), nprocs=4)
            assert report.diagnostics, source
            assert all(d.code.startswith("CI")
                       for d in report.diagnostics)

    def test_deadlock_cycle_is_ci001_on_every_target(self):
        report = lint_program(parse_program(CYCLE), nprocs=4)
        [diag] = [d for d in report.errors if d.code == "CI001"]
        # Identical on all three lowerings: collapsed to target "*".
        assert diag.target == "*"

    def test_diagnostics_sorted_by_line_code_severity(self):
        report = lint_program(parse_program(CYCLE), nprocs=4)
        keys = [d.sort_key() for d in report.diagnostics]
        assert keys == sorted(keys)

    def test_sorting_is_stable_across_runs(self):
        render_a = lint_program(parse_program(CYCLE), nprocs=4).render()
        render_b = lint_program(parse_program(CYCLE), nprocs=4).render()
        assert render_a == render_b

    @pytest.mark.parametrize("target", list(Target), ids=lambda t: t.name)
    def test_max_comm_iter_overflow_is_ci033_and_raises(self, target):
        """Two instances in a region declaring max_comm_iter(1): lint
        reports CI033 on each target, and the runtime raises on the
        same source."""
        source = MAX_COMM_ITER_OVERFLOW.read_text(encoding="utf-8")
        report = lint_program(parse_program(source), nprocs=4,
                              targets=[target])
        assert [d.code for d in report.errors] == ["CI033"]
        with pytest.raises(SimProcessError) as info:
            simulate_program(parse_program(source), 4, target=target)
        assert isinstance(info.value.__cause__, ClauseError)
        assert "max_comm_iter(1)" in str(info.value.__cause__)

    @pytest.mark.parametrize("target", list(Target), ids=lambda t: t.name)
    def test_max_comm_iter_at_the_instance_count_is_clean(self, target):
        source = MAX_COMM_ITER_OVERFLOW.read_text(encoding="utf-8")
        source = source.replace("max_comm_iter(1)", "max_comm_iter(2)")
        report = lint_program(parse_program(source), nprocs=4,
                              targets=[target])
        assert report.errors == []
        simulate_program(parse_program(source), 4, target=target)

    @pytest.mark.parametrize("target", list(Target), ids=lambda t: t.name)
    def test_clause_arith_error_is_ci004_and_raises(self, target):
        """A sender expression that divides by zero on every rank: lint
        reports CI004 naming the clause and the rank (not CI032, and
        no traceback), and the runtime raises ClauseError naming the
        expression."""
        source = CLAUSE_ARITH_ERROR.read_text(encoding="utf-8")
        report = lint_program(parse_program(source), nprocs=4,
                              targets=[target])
        assert [d.code for d in report.diagnostics] == ["CI004"]
        message = report.errors[0].message
        assert message.startswith("sender clause on rank 0: ")
        assert "'(rank-1)%(nprocs-nprocs)'" in message
        with pytest.raises(SimProcessError) as info:
            simulate_program(parse_program(source), 4, target=target)
        assert isinstance(info.value.original, ClauseError)
        assert "(rank-1)%(nprocs-nprocs)" in str(info.value.original)

    @pytest.mark.parametrize("target", list(Target), ids=lambda t: t.name)
    def test_clause_failing_on_one_rank_is_one_ci004(self, target):
        """A receiver expression that fails on rank 2 only: the walk's
        first failing rank is named, and the halves rank 2 never posts
        raise no deadlock finding, from the verifier or from lint."""
        source = CLAUSE_FAILS_ON_ONE_RANK.read_text(encoding="utf-8")
        verified = verify_program(parse_program(source), nprocs=4,
                                  target=target)
        linted = lint_program(parse_program(source), nprocs=4,
                              targets=[target])
        for report in (verified, linted):
            assert [d.code for d in report.diagnostics] == ["CI004"]
            assert report.errors[0].message.startswith(
                "receiver clause on rank 2: ")
        assert linted.patterns == {}
        with pytest.raises(SimProcessError) as info:
            simulate_program(parse_program(source), 4, target=target)
        assert isinstance(info.value.original, ClauseError)

    @pytest.mark.parametrize("target", list(Target), ids=lambda t: t.name)
    def test_clause_failing_before_clean_ring_is_one_ci004(self, target):
        """The run aborts at the failing directive, so the clean ring
        after it, whose halves pair against the ones rank 2 never
        posted, raises no deadlock finding either."""
        source = CLAUSE_FAILS_BEFORE_CLEAN_RING.read_text(encoding="utf-8")
        verified = verify_program(parse_program(source), nprocs=4,
                                  target=target)
        linted = lint_program(parse_program(source), nprocs=4,
                              targets=[target])
        for report in (verified, linted):
            [error] = report.errors
            assert error.code == "CI004"
            assert error.message.startswith("receiver clause on rank 2: ")
        with pytest.raises(SimProcessError) as info:
            simulate_program(parse_program(source), 4, target=target)
        assert isinstance(info.value.original, ClauseError)

    @pytest.mark.parametrize("target", list(Target), ids=lambda t: t.name)
    def test_clause_failing_before_shmem_ring_is_one_ci004(self, target):
        """The ring after the failing directive is lowered to SHMEM:
        pairing its halves against the ones rank 2 never posted is no
        mismatched lowering (CI007) either. Lint sweeps every default
        target, as ``repro-lint`` does: under a SHMEM default alone both
        rings lower alike and nothing is mismatched."""
        source = CLAUSE_FAILS_BEFORE_SHMEM_RING.read_text(encoding="utf-8")
        verified = verify_program(parse_program(source), nprocs=8,
                                  target=target)
        linted = lint_program(parse_program(source), nprocs=8)
        for report in (verified, linted):
            assert [(d.code, d.line) for d in report.errors] == [
                ("CI004", 17)]
        with pytest.raises(SimProcessError) as info:
            simulate_program(parse_program(source), 8, target=target)
        assert isinstance(info.value.original, ClauseError)

    @pytest.mark.parametrize("target", list(Target), ids=lambda t: t.name)
    def test_clause_failing_after_race_keeps_the_race(self, target):
        """The deadlocks cut at the failing directive do not switch the
        race pass off: the send-buffer reuse before it is still CI041."""
        source = CLAUSE_FAILS_AFTER_RACE.read_text(encoding="utf-8")
        verified = verify_program(parse_program(source), nprocs=8,
                                  target=target)
        linted = lint_program(parse_program(source), nprocs=8,
                              targets=[target])
        for report in (verified, linted):
            assert {(d.code, d.line) for d in report.errors} == {
                ("CI004", 31), ("CI041", 26)}
        with pytest.raises(SimProcessError) as info:
            simulate_program(parse_program(source), 8, target=target)
        assert isinstance(info.value.original, ClauseError)

    @pytest.mark.parametrize("name", sorted(NON_INTEGER_RANKS))
    def test_non_integer_rank_is_ci004(self, name, tmp_path, capsys):
        """A partner value that is a float or a bool is no rank: lint
        reports CI004 (exit 1) where the program simulator raises,
        instead of truncating it into a clean ring."""
        clauses, nprocs, message = NON_INTEGER_RANKS[name]
        path = tmp_path / f"{name}.c"
        path.write_text(_ring(clauses), encoding="utf-8")
        report = lint_program(parse_program(_ring(clauses)), nprocs=nprocs)
        assert [(d.code, d.message) for d in report.diagnostics] == [
            ("CI004", message)]
        assert main_lint([str(path), "--nprocs", str(nprocs)]) == 1
        assert "CI004" in capsys.readouterr().out
        with pytest.raises(SimProcessError,
                           match="does not evaluate to an integer rank"):
            simulate_program(parse_program(_ring(clauses)), nprocs)

    def test_require_clean_raises_with_listing(self):
        report = lint_program(parse_program(CYCLE), nprocs=4)
        with pytest.raises(VerificationError, match="CI001"):
            report.require_clean()
        lint_program(parse_program(CLEAN), nprocs=6).require_clean()


class TestRenderers:
    def test_json_roundtrips(self):
        report = lint_program(parse_program(BAD_OVERLAP), nprocs=4,
                              path="overlap.c")
        doc = json.loads(render_json([report]))
        [entry] = doc["reports"]
        assert entry["path"] == "overlap.c"
        assert any(d["code"] == "CI010"
                   for d in entry["diagnostics"])

    def test_sarif_shape_and_rules(self):
        report = lint_program(parse_program(CYCLE), nprocs=4,
                              path="cycle.c")
        log = json.loads(render_sarif([report]))
        assert log["version"] == "2.1.0"
        [run] = log["runs"]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        levels = {r["ruleId"]: r["level"] for r in run["results"]}
        assert "CI001" in rule_ids
        assert levels["CI001"] == "error"
        [ci004] = [r for r in run["tool"]["driver"]["rules"]
                   if r["id"] == "CI004"]
        assert ci004["shortDescription"]["text"] == (
            "a sender/receiver expression evaluates outside 0..nprocs-1 "
            "or to no integer rank (a float or a bool), or fails "
            "arithmetically on some rank")
        for result in run["results"]:
            [loc] = result["locations"]
            physical = loc["physicalLocation"]
            assert physical["artifactLocation"]["uri"] == "cycle.c"
            assert physical["region"]["startLine"] >= 1

    def test_sarif_of_clean_report_has_no_results(self):
        report = lint_program(parse_program(CLEAN), nprocs=6)
        log = json.loads(render_sarif([report]))
        assert log["runs"][0]["results"] == []


class TestSarifRuleRegistry:
    def test_every_registered_rule_is_emitted(self):
        from repro.core.analysis.codes import RULES
        log = json.loads(render_sarif(
            [lint_program(parse_program(CLEAN), nprocs=6)]))
        rules = {r["id"]: r
                 for r in log["runs"][0]["tool"]["driver"]["rules"]}
        assert set(rules) == set(RULES)

    def test_rules_carry_help_and_descriptions(self):
        from repro.core.analysis.codes import RULES, help_uri
        log = json.loads(render_sarif(
            [lint_program(parse_program(CLEAN), nprocs=6)]))
        levels = {"error": "error", "warning": "warning", "info": "note"}
        for entry in log["runs"][0]["tool"]["driver"]["rules"]:
            rule = RULES[entry["id"]]
            assert entry["helpUri"] == help_uri(rule.code)
            assert entry["name"] == rule.name
            assert entry["shortDescription"]["text"] == rule.summary
            level = entry["defaultConfiguration"]["level"]
            assert level == levels[rule.severity]

    def test_race_rules_present_with_error_level(self):
        from repro.core.analysis.codes import RACE_CODES
        log = json.loads(render_sarif(
            [lint_program(parse_program(CLEAN), nprocs=6)]))
        rules = {r["id"]: r
                 for r in log["runs"][0]["tool"]["driver"]["rules"]}
        for code in sorted(RACE_CODES):
            assert rules[code]["defaultConfiguration"]["level"] == "error"
