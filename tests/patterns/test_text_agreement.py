"""The registry's pragma texts against the library DSL, and at every
world the chaos soak can shrink them to.

* Each pattern's two forms agree: the library DSL ``run_directive`` and
  the registry's pragma text, replayed through progsim, move the same
  bytes with the same synchronization calls at the text's world size
  on MPI two-sided. The IR has no loops, so each text unrolls its
  pattern for its registry world size; the DSL call below is sized to
  move the same elements.
* Each soak pattern's text lints clean (no warning either) and
  simulates on every target at every world size from its registry
  size down to one rank that the pattern admits: shrink re-runs the
  text at the survivor count.

The text is the definition the fuzzer, the chaos soak, ``repro-trace
--pattern``, the static twin and ``repro-lint --catalog`` read; the DSL
form is the public API.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import mpi
from repro.core.analysis.lint import lint_program
from repro.core.analysis.progsim import simulate_program
from repro.core.clauses import Target
from repro.faults.chaos import SOAK_NAMES
from repro.netmodel import gemini_model
from repro.patterns import PATTERNS, get_pattern
from repro.patterns.halo2d import HaloBuffers, grid_shape
from repro.sim import Engine

TARGET = "TARGET_COMM_MPI_2SIDE"


def _ring(env, spec):
    spec.run_directive(env, np.full(8, env.rank + 1.0), np.zeros(8))


def _evenodd(env, spec):
    spec.run_directive(env, np.full(6, env.rank + 1.0), np.zeros(6))


def _halo1d(env, spec):
    spec.run_directive(env, np.arange(16.0), np.zeros(8), np.zeros(8))


def _pipeline(env, spec):
    n = spec.bindings["n"]
    spec.run_directive(env, np.arange(float(n)), np.zeros(n))


def _fanout(env, spec):
    data = np.ones((env.size, 4)) if env.rank == 0 else None
    spec.run_directive(env, 0, data, np.zeros(4))


def _fanin(env, spec):
    collected = np.zeros((env.size, 4)) if env.rank == 0 else None
    spec.run_directive(env, 0, np.ones(4), collected)


def _halo2d(env, spec):
    py, px = grid_shape(env.size)
    assert px == spec.bindings["px"]
    spec.run_directive(env, np.ones((3, 4)), HaloBuffers(3, 4), py, px)


def _butterfly(env, spec):
    spec.run_directive(env, env.rank + 1.0)


#: Pattern name -> its DSL call, sized like the registry text.
DSL_CALLS = {
    "ring": _ring,
    "evenodd": _evenodd,
    "halo1d": _halo1d,
    "pipeline": _pipeline,
    "fanout": _fanout,
    "fanin": _fanin,
    "halo2d": _halo2d,
    "butterfly": _butterfly,
}


def test_every_registry_pattern_is_compared():
    assert set(DSL_CALLS) == set(PATTERNS)


@pytest.mark.parametrize("name", sorted(DSL_CALLS))
def test_dsl_and_text_move_the_same_bytes_and_syncs(name):
    spec = get_pattern(name)
    model = gemini_model()

    def main(env):
        mpi.init(env, model)
        DSL_CALLS[name](env, spec)

    engine = Engine(spec.nprocs)
    engine.run(main)
    text = simulate_program(spec.program(), spec.nprocs, target=TARGET,
                            extra_vars=spec.bindings).stats
    assert text.bytes == engine.stats.bytes
    assert text.sync_calls == engine.stats.sync_calls


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
