"""The differential oracle: agreement on clean programs and on every
example file, detection of seeded analyzer weakenings, and the
contract-undefined payload mask.
"""

from pathlib import Path

import pytest

from repro.core.analysis.lint import lint_program
from repro.core.analysis.verify import undefined_payload_buffers
from repro.core.clauses import Target
from repro.core.pragma import parse_program
from repro.faults.fuzz import mask_payloads
from repro.gen.generator import GeneratedProgram, generate
from repro.gen.oracle import WEAKENINGS, OracleConfig, check_program

from .conftest import QUICK

EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "pragmas"


def test_clean_program_agrees_everywhere():
    result = check_program(generate(0, "clean"), QUICK)
    assert result.ok, [str(d) for d in result.disagreements]
    assert result.checks > 3
    # All three targets were swept statically and dynamically.
    assert set(result.dynamic) == {t.value for t in Target}


def test_fuzz_arm_adds_checks():
    gp = generate(0, "clean")
    quick = check_program(gp, QUICK)
    fuzzed = check_program(gp, OracleConfig(fuzz_seeds=2))
    assert fuzzed.ok
    assert fuzzed.checks > quick.checks


def test_weakening_names_are_code_families():
    assert set(WEAKENINGS) == {"ignore-races", "ignore-deadlocks"}
    assert all(codes for codes in WEAKENINGS.values())


def test_weakened_oracle_catches_seeded_regression(weakened_catch):
    """Acceptance bar: an injected analyzer weakening is caught as a
    static/dynamic disagreement on a generated racy program."""
    gp, weakened = weakened_catch
    kinds = {d.kind for d in weakened.disagreements}
    assert "missed-race" in kinds, (
        f"seed {gp.seed}: dropping the race codes should surface as a "
        f"missed race, got {kinds}")
    assert all(d.seed == gp.seed for d in weakened.disagreements)


# ---------------------------------------------------------------------------
# Regressions distilled from the 1000-seed sweep


#: Positional pairing across lowerings (seed-447 pattern): the shared
#: sequence counters pair the halves, but no backend delivers between
#: a SHMEM put and a two-sided receive — a deadlock, not a match.
MISLOWERED = """\
double a[4];
double b[4];
double c[4];
double d[4];
int rank, nprocs;
#pragma comm_p2p sender(0) receiver(1) sendwhen(rank==0) receivewhen(0) sbuf(a) rbuf(b) target(TARGET_COMM_SHMEM)
{
}
#pragma comm_p2p sender(0) receiver(1) sendwhen(0) receivewhen(rank==1) sbuf(c) rbuf(d) target(TARGET_COMM_MPI_2SIDE)
{
}
consume(d);
"""


def test_mismatched_lowering_is_ci007():
    report = lint_program(parse_program(MISLOWERED), nprocs=2)
    codes = {d.code for d in report.diagnostics}
    assert "CI007" in codes, f"got {sorted(codes)}"
    assert any(d.code == "CI007" and d.severity == "error"
               for d in report.diagnostics)


def test_undefined_payload_buffers_cover_unreceived_puts():
    """Seed-237 pattern: bytes only a SHMEM put would land (and a
    two-sided lowering never delivers) are contract-undefined and must
    be masked from every payload comparison."""
    program = parse_program(MISLOWERED)
    undefined = undefined_payload_buffers(program, 2, Target.SHMEM)
    assert (1, "b") in undefined, f"got {sorted(undefined)}"
    # A fully matched clean program leaves nothing undefined.
    gp = generate(0, "clean")
    ring = parse_program(gp.source)
    for target in Target:
        assert undefined_payload_buffers(
            ring, gp.nprocs, target) == frozenset()


def test_mask_payloads_drops_only_named_buffers():
    payloads = ({"a": [1.0], "b": [2.0]}, {"b": [3.0]})
    masked = mask_payloads(payloads, frozenset({(0, "b")}))
    assert masked == ({"a": [1.0]}, {"b": [3.0]})
    assert mask_payloads(payloads, frozenset()) is payloads
    assert mask_payloads(None, frozenset({(0, "b")})) is None


@pytest.mark.parametrize("relpath", sorted(
    p.relative_to(EXAMPLES).as_posix() for p in EXAMPLES.rglob("*.c")))
def test_example_file_agrees_everywhere(relpath):
    """Every example file — clean, ``bad/``, ``races/``, the pinned
    ``generated/`` catches and ``slow/`` — is a fixed oracle input: its
    static verdict, simulated outcome, cross-target payloads and
    jittered schedules agree on all three targets."""
    gp = GeneratedProgram(seed=0, mode="example", nprocs=8,
                          source=(EXAMPLES / relpath).read_text())
    result = check_program(gp, OracleConfig(fuzz_seeds=2))
    assert result.ok, [str(d) for d in result.disagreements]
    assert set(result.dynamic) == {t.value for t in Target}
