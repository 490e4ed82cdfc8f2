"""One target-independent rank walk serves every lowering target.

The verifier walks each rank once per (program, nprocs, extra_vars,
weakening), pairs each send with its receive in that walk, and each
target reads the pairing afterwards; the walk is also the one place
each rank's partner clauses are evaluated.
These tests pin the walk count, the number of partner evaluations a
lint makes, the per-target findings of programs that mix per-directive
``target`` clauses, and a golden of the per-target diagnostics over
the shipped examples and 50 generated programs. The golden was recorded
with one walk per target, before the walk was shared; after an
intended verifier change, re-pin it with
``PYTHONPATH=src python tests/core/test_shared_walk.py`` and say why in
the change description. A second golden pins
:func:`~repro.core.analysis.verify.undefined_payload_buffers` over the
same programs and the pattern catalog's texts on every target; it was
recorded before the halves were paired once per walk, and the same
script re-pins it.
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest

from repro.core.analysis import dataflow, hb, verify
from repro.core.analysis.lint import lint_program
from repro.core.analysis.verify import (
    WEAKENINGS,
    verify_all_targets,
)
from repro.core.clauses import Target
from repro.core.ir import Program
from repro.core.pragma import parse_program
from repro.gen.generator import generate_many
from repro.patterns.catalog import PATTERNS

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
_GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "golden", "verify_diagnostics.json")
_PAYLOAD_GOLDEN = os.path.join(os.path.dirname(_GOLDEN),
                               "undefined_payload_buffers.json")

#: World size for the shipped examples (generated programs carry their
#: own).
EXAMPLE_NPROCS = 4
GENERATED_SEEDS = range(50)

#: Per-directive target clauses disagree with each other and with the
#: default: a SHMEM put paired with a two-sided receive (CI007 on every
#: target), a default-target send nobody receives (CI003 only when the
#: default is one-sided), a default-target send paired with a SHMEM
#: receive (matched only under the SHMEM default) and a receive nobody
#: sends (CI002 wherever its rank gets that far).
MIXED = """\
double a[4]; double b[4]; double c[4]; double d[4];
double e[4]; double f[4]; double g[4]; double h[4];
double i[4]; double j[4]; double k[4]; double l[4];
int rank, nprocs;
#pragma comm_p2p sender(0) receiver(1) sendwhen(rank==0) receivewhen(0) sbuf(a) rbuf(b) target(TARGET_COMM_SHMEM)
#pragma comm_p2p sender(0) receiver(1) sendwhen(0) receivewhen(rank==1) sbuf(c) rbuf(d) target(TARGET_COMM_MPI_2SIDE)
#pragma comm_p2p sender(2) receiver(3) sendwhen(rank==2) receivewhen(0) sbuf(e) rbuf(f)
#pragma comm_p2p sender(3) receiver(0) sendwhen(rank==3) receivewhen(0) sbuf(g) rbuf(h)
#pragma comm_p2p sender(3) receiver(0) sendwhen(0) receivewhen(rank==0) sbuf(i) rbuf(j) target(TARGET_COMM_SHMEM)
#pragma comm_p2p sender(1) receiver(2) sendwhen(0) receivewhen(rank==2) sbuf(k) rbuf(l)
consume(d);
consume(j);
consume(l);
"""


def _digest(diagnostics) -> str:
    """Codes in report order plus a hash of every diagnostic field."""
    rows = [[d.code, d.severity, d.line, d.directive, d.target,
             d.message, d.fixit] for d in diagnostics]
    blob = json.dumps(rows, sort_keys=True).encode()
    codes = ",".join(d.code for d in diagnostics)
    return f"{codes} {hashlib.sha256(blob).hexdigest()[:16]}"


def _programs() -> list[tuple[str, str, int]]:
    """(name, source, nprocs) of every program the golden covers."""
    out = []
    pragmas = os.path.join(_ROOT, "examples", "pragmas")
    for dirpath, _dirs, files in sorted(os.walk(pragmas)):
        for fname in sorted(files):
            if fname.endswith(".c"):
                path = os.path.join(dirpath, fname)
                with open(path, encoding="utf-8") as fh:
                    out.append((os.path.relpath(path, pragmas),
                                fh.read(), EXAMPLE_NPROCS))
    for gp in generate_many(GENERATED_SEEDS, mode="mix"):
        out.append((f"gen/{gp.seed:04d}", gp.source, gp.nprocs))
    return out


def collect() -> dict[str, dict[str, dict[str, str]]]:
    """name -> weakening -> target -> diagnostics digest."""
    out: dict[str, dict[str, dict[str, str]]] = {}
    for name, source, nprocs in _programs():
        program = parse_program(source)
        per_weakening = {}
        for weakening in (None, *WEAKENINGS):
            reports = verify_all_targets(program, nprocs=nprocs,
                                         weakening=weakening)
            per_weakening[weakening or "none"] = {
                t.value: _digest(r.diagnostics)
                for t, r in reports.items()}
        out[name] = per_weakening
    return out


def test_per_target_diagnostics_match_golden():
    with open(_GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    got = collect()
    assert sorted(got) == sorted(golden)
    for name in golden:
        assert got[name] == golden[name], name


def collect_payload_masks() -> dict[str, dict[str, list[list]]]:
    """name -> target -> sorted ``[rank, buffer]`` pairs the oracle
    masks, over the golden's programs and the catalog texts."""
    programs = [(name, parse_program(source), nprocs, None)
                for name, source, nprocs in _programs()]
    programs += [(f"catalog/{name}", spec.program(), spec.nprocs,
                  spec.bindings)
                 for name, spec in sorted(PATTERNS.items())]
    return {name: {t.value: [list(pair) for pair in sorted(
                       verify.undefined_payload_buffers(
                           program, nprocs, t, extra_vars))]
                   for t in Target}
            for name, program, nprocs, extra_vars in programs}


def test_undefined_payload_buffers_match_golden():
    with open(_PAYLOAD_GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    got = collect_payload_masks()
    assert sorted(got) == sorted(golden)
    for name in golden:
        assert got[name] == golden[name], name


@pytest.fixture
def walks(monkeypatch):
    """Count ``_RankTracer.run`` calls (one per rank per walk)."""
    calls: list[int] = []
    run = verify._RankTracer.run

    def counting(self, nodes):
        calls.append(self.rank)
        return run(self, nodes)

    monkeypatch.setattr(verify._RankTracer, "run", counting)
    hb.GRAPH_CACHE.clear()
    yield calls
    hb.GRAPH_CACHE.clear()


def test_one_walk_per_weakening_across_targets(walks):
    program = parse_program(MIXED)
    nprocs = 4
    for i, weakening in enumerate((None, *WEAKENINGS), start=1):
        reports = verify_all_targets(program, nprocs=nprocs,
                                     weakening=weakening)
        assert set(reports) == set(Target)
        assert walks == list(range(nprocs)) * i, weakening
    # Warm: every (program, nprocs, weakening) is cached.
    for weakening in (None, *WEAKENINGS):
        verify_all_targets(program, nprocs=nprocs, weakening=weakening)
    assert len(walks) == 4 * nprocs
    # Clearing the graph cache drops the walk: the next sweep walks again.
    hb.GRAPH_CACHE.clear()
    verify_all_targets(program, nprocs=nprocs)
    assert len(walks) == 5 * nprocs


def test_per_target_verifiers_share_the_walk(walks):
    """The lint's per-target verify units (one call per target) walk
    once between them."""
    program = parse_program(MIXED)
    for target in Target:
        verify_all_targets(program, nprocs=4, targets=[target])
    assert walks == [0, 1, 2, 3]


def test_lint_prints_and_keys_the_source_once(walks, monkeypatch):
    """``lint_program`` runs one verifier sweep for all three targets:
    one printed source and one walk key, not one per target."""
    printed: list[int] = []
    keyed: list[int] = []
    to_source, unroll_key = Program.to_source, hb.unroll_key

    def counting_print(self):
        printed.append(1)
        return to_source(self)

    def counting_key(*args):
        keyed.append(1)
        return unroll_key(*args)

    monkeypatch.setattr(Program, "to_source", counting_print)
    monkeypatch.setattr(hb, "unroll_key", counting_key)
    lint_program(parse_program(MIXED), nprocs=4)
    assert (len(printed), len(keyed)) == (1, 1)
    assert walks == [0, 1, 2, 3]


HALO1D = os.path.join(_ROOT, "examples", "pragmas", "halo1d.c")


def test_lint_evaluates_each_partner_clause_once_per_rank(walks,
                                                          monkeypatch):
    """Lint's pattern and matching checks read the walk's partner rows:
    a cold lint of halo1d.c's two directives at nprocs 8 evaluates
    ``partners`` 16 times, and a re-lint with the walk cached none."""
    calls: list[int] = []
    evaluate = dataflow.partners

    def counting(clauses, variables):
        calls.append(variables["rank"])
        return evaluate(clauses, variables)

    monkeypatch.setattr(dataflow, "partners", counting)
    monkeypatch.setattr(verify, "partners", counting)
    with open(HALO1D, encoding="utf-8") as fh:
        source = fh.read()
    cold = lint_program(parse_program(source), nprocs=8)
    assert len(calls) == 16
    warm = lint_program(parse_program(source), nprocs=8)
    assert len(calls) == 16
    assert warm.patterns == cold.patterns == {11: "shift", 12: "shift"}


#: A receiver outside the world (CI004 from the matching check) and a
#: receive nobody sends (CI002); the blank lines of the second copy
#: move the directive down three lines and vanish from the printed
#: source.
OUT_OF_RANGE = """\
double a[8];
double b[8];
int rank, nprocs;
#pragma comm_p2p sender((rank-1+nprocs)%nprocs) receiver(rank+nprocs) sbuf(a) rbuf(b)
consume(b);
"""
OUT_OF_RANGE_SPACED = OUT_OF_RANGE.replace("nprocs;\n", "nprocs;\n\n\n\n")


def test_whitespace_variants_keep_their_own_lines(walks):
    """Two sources that print alike but place the directive on
    different lines walk separately: each lint reports the pattern and
    every finding at its own directive's line."""
    first, second = (parse_program(OUT_OF_RANGE),
                     parse_program(OUT_OF_RANGE_SPACED))
    assert first.to_source() == second.to_source()
    for program, line in ((first, 4), (second, 7)):
        report = lint_program(program, nprocs=4)
        assert report.patterns == {line: "pairwise"}
        assert sorted({(d.code, d.line) for d in report.diagnostics}) == [
            ("CI002", line), ("CI004", line)]
    assert walks == [0, 1, 2, 3] * 2


#: A read before the guaranteeing sync (CI012) and a directive over an
#: unbound name (CI032).
EARLY_READ_UNBOUND = """\
double a[4]; double b[4]; double c[4]; double d[4];
double e[4]; double f[4];
int rank, nprocs;
#pragma comm_parameters sender((rank-1+nprocs)%nprocs) receiver((rank+1)%nprocs)
{
#pragma comm_p2p sbuf(a) rbuf(b)
    peek(b);
#pragma comm_p2p sbuf(c) rbuf(d)
}
#pragma comm_p2p sender(px) receiver(px) sbuf(e) rbuf(f)
"""

#: The verifier passes that read no handle's lowering or pairing.
TARGET_INDEPENDENT_PASSES = ("_stale_read_diagnostics",
                             "_consolidation_diagnostics")


#: A region-carried flush the sync plan downgrades (CI020).
CARRIED_FLUSH = os.path.join(_ROOT, "examples", "pragmas", "generated",
                             "carried_flush_downgrade.c")


@pytest.mark.parametrize("path", [None, CARRIED_FLUSH])
def test_target_independent_passes_run_once_per_sweep(path, monkeypatch):
    """A three-target sweep runs each target-independent pass once and
    gives every target its own tagged copy of the findings. The sweep
    and the oracle's three payload masks pair the halves once between
    them, and a re-sweep with the walk cached pairs nothing."""
    source = EARLY_READ_UNBOUND
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
    calls = {name: 0 for name in TARGET_INDEPENDENT_PASSES}
    for name in TARGET_INDEPENDENT_PASSES:
        def counting(*args, _name=name, _run=getattr(verify, name)):
            calls[_name] += 1
            return _run(*args)
        monkeypatch.setattr(verify, name, counting)
    pairings: list[int] = []
    pair = verify._pair

    def counting_pair(tracers):
        pairings.append(len(tracers))
        return pair(tracers)

    monkeypatch.setattr(verify, "_pair", counting_pair)
    hb.GRAPH_CACHE.clear()
    program = parse_program(source)
    reports = verify_all_targets(program, nprocs=4)
    assert calls == {name: 1 for name in TARGET_INDEPENDENT_PASSES}
    for target in Target:
        verify.undefined_payload_buffers(program, 4, target)
    assert pairings == [4]
    verify_all_targets(program, nprocs=4)
    assert pairings == [4]
    shared = {}
    for target, report in reports.items():
        found = [d for d in report.diagnostics
                 if d.code in ("CI011", "CI012", "CI020", "CI032")]
        assert found
        assert {d.target for d in found} == {target.value}
        shared[target] = [(d.code, d.line, d.message) for d in found]
    assert len({tuple(rows) for rows in shared.values()}) == 1


#: target -> (code, severity, line, directive, message) of MIXED's
#: deadlock findings at nprocs=4, as the per-target walks found them.
MIXED_DEADLOCKS = {
    Target.MPI_2SIDE: [
        ("CI007", "error", 6, 6,
         "synchronization at line 6 on rank 1 waits for a message from "
         "rank 0 lowered to TARGET_COMM_SHMEM (directive at line 5), "
         "but this receive is lowered to TARGET_COMM_MPI_2SIDE "
         "(directive at line 6); no backend delivers across lowerings"),
        ("CI007", "error", 9, 9,
         "synchronization at line 9 on rank 0 waits for a message from "
         "rank 3 lowered to TARGET_COMM_MPI_2SIDE (directive at line "
         "8), but this receive is lowered to TARGET_COMM_SHMEM "
         "(directive at line 9); no backend delivers across lowerings"),
        ("CI002", "error", 10, 10,
         "synchronization at line 10 on rank 2 waits for a message from "
         "sender 1 to receiver 2 (directive at line 10) that is never "
         "sent"),
    ],
    Target.MPI_1SIDE: [
        ("CI007", "error", 6, 6,
         "synchronization at line 6 on rank 1 waits for a message from "
         "rank 0 lowered to TARGET_COMM_SHMEM (directive at line 5), "
         "but this receive is lowered to TARGET_COMM_MPI_2SIDE "
         "(directive at line 6); no backend delivers across lowerings"),
        ("CI003", "error", 7, 7,
         "one-sided put from rank 2 to rank 3 (directive at line 7) has "
         "no reachable exposure epoch: the target's receivewhen never "
         "exposes the buffer"),
        ("CI007", "error", 8, 8,
         "one-sided put from rank 3 to rank 0 (directive at line 8, "
         "target TARGET_COMM_MPI_1SIDE) is paired with a receive "
         "lowered to TARGET_COMM_SHMEM (directive at line 9); no "
         "backend delivers across lowerings, so no exposure epoch ever "
         "reaches the put"),
        ("CI007", "error", 9, 9,
         "synchronization at line 9 on rank 0 waits for a message from "
         "rank 3 lowered to TARGET_COMM_MPI_1SIDE (directive at line "
         "8), but this receive is lowered to TARGET_COMM_SHMEM "
         "(directive at line 9); no backend delivers across lowerings"),
    ],
    Target.SHMEM: [
        ("CI007", "error", 6, 6,
         "synchronization at line 6 on rank 1 waits for a message from "
         "rank 0 lowered to TARGET_COMM_SHMEM (directive at line 5), "
         "but this receive is lowered to TARGET_COMM_MPI_2SIDE "
         "(directive at line 6); no backend delivers across lowerings"),
        ("CI002", "error", 10, 10,
         "synchronization at line 10 on rank 2 waits for a message from "
         "sender 1 to receiver 2 (directive at line 10) that is never "
         "sent"),
    ],
}


def _deadlock_rows(report):
    return [(d.code, d.severity, d.line, d.directive, d.message)
            for d in report.diagnostics
            if d.code in ("CI002", "CI003", "CI007")]


@pytest.mark.parametrize("target", list(Target), ids=lambda t: t.value)
def test_mixed_targets_pinned(target):
    report = verify_all_targets(parse_program(MIXED), nprocs=4,
                                targets=[target])[target]
    assert _deadlock_rows(report) == MIXED_DEADLOCKS[target]


if __name__ == "__main__":
    os.makedirs(os.path.dirname(_GOLDEN), exist_ok=True)
    for path, rows in ((_GOLDEN, collect()),
                       (_PAYLOAD_GOLDEN, collect_payload_masks())):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh, indent=1, sort_keys=True)
            fh.write("\n")
