"""The registry's pragma texts against the hand-written MPI code they
replace, and at every world the chaos soak can shrink them to.

* Each pattern's text, run through ``spec.main(target)`` at its
  registry world size and bindings, leaves the same per-rank payloads
  on every lowering target, and those payloads equal the hand-written
  ``run_mpi`` form's, run on the text's buffers with the values the
  text's raw code writes. On MPI two-sided both forms move the same
  bytes. (The synchronization calls differ by design: the text
  consolidates them.)
* Each soak pattern's text lints clean (no warning either) and
  simulates on every target at every world size from its registry
  size down to one rank that the pattern admits: shrink re-runs the
  text at the survivor count.

The text is the one directive definition the fuzzer, the chaos soak,
``repro-trace --pattern``, the static twin and ``repro-lint --catalog``
read.
"""

from __future__ import annotations

import pytest

from repro.core.analysis.lint import lint_program
from repro.core.analysis.progsim import simulate_program
from repro.core.clauses import Target
from repro.faults.chaos import SOAK_NAMES
from repro.patterns import PATTERNS, get_pattern
from repro.sim import Engine
from tests.patterns._forms import MPI_FORMS, TARGETS, as_lists, run_mpi_form


def test_every_registry_pattern_is_compared():
    assert set(MPI_FORMS) == set(PATTERNS)


@pytest.mark.parametrize("name", sorted(MPI_FORMS))
def test_text_matches_handwritten_mpi(name):
    spec = get_pattern(name)
    texts = {}
    for target in TARGETS:
        engine = Engine(spec.nprocs)
        texts[target] = (engine.run(spec.main(target)).values,
                         engine.stats)
    res, engine = run_mpi_form(spec.nprocs, MPI_FORMS[name])
    handwritten = [as_lists(p) for p in res.values]
    for target, (payloads, _) in texts.items():
        assert payloads == handwritten, target
    text_stats = texts["TARGET_COMM_MPI_2SIDE"][1]
    assert text_stats.bytes == engine.stats.bytes


def _shrunk_worlds():
    for name in SOAK_NAMES:
        spec = get_pattern(name)
        for world in range(spec.nprocs, 0, -1):
            if spec.valid_world is None or spec.valid_world(world):
                yield name, world


@pytest.mark.parametrize("name,world", list(_shrunk_worlds()))
def test_soak_text_is_clean_at_every_shrunk_world(name, world):
    spec = get_pattern(name)
    report = lint_program(spec.program(), nprocs=world,
                          extra_vars=spec.bindings)
    assert report.errors == [] and report.warnings == [], report.render()
    for target in Target:
        simulate_program(spec.program(), world, target=target,
                         extra_vars=spec.bindings)
