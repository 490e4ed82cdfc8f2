"""Pattern registry: name -> spec with its pragma text and its
hand-written MPI reference.

Each pattern's annotated source text (``SOURCE`` in its module) is its
one directive definition: the sync-plan fuzzer and the chaos soak
replay it through the program simulator
(:func:`repro.core.analysis.progsim.program_main`), ``repro-trace
--pattern`` profiles it, the static verifier unrolls it as the fuzz
pattern's twin, and ``repro-lint --catalog`` lints it. The registry
entry stores the world size the text is written for and the values of
its free clause names. Texts are parsed on demand, never at import.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.ir import ClauseExprs, Program
from repro.patterns import (
    butterfly,
    evenodd,
    fan,
    halo,
    halo2d,
    pipeline,
    ring,
)


def power_of_two(n: int) -> bool:
    """True when ``n`` is a power of two (butterfly's world constraint)."""
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class PatternSpec:
    """One recurring pattern: its pragma text and the hand-written MPI
    code it replaces."""

    name: str
    #: The pattern as pragma-annotated source.
    source: str
    #: World size the text is written for.
    nprocs: int
    #: Hand-written MPI implementation.
    run_mpi: Callable[..., None]
    #: The classification the dataflow analysis should produce.
    expected_class: str
    #: Values of the text's free clause names (beyond rank/nprocs).
    bindings: dict[str, int] = field(default_factory=dict)
    #: World sizes the pattern is defined for (``None`` = any). The
    #: recovery runtime's *shrink* policy consults this when re-mapping
    #: a pattern over the survivor set: partner functions re-evaluate
    #: at the new ``env.size``, but only at sizes the pattern admits
    #: (e.g. butterfly needs a power of two).
    valid_world: Callable[[int], bool] | None = None

    def program(self) -> Program:
        """The parsed text (a fresh parse per call)."""
        from repro.core.pragma import parse_program
        return parse_program(self.source)

    def main(self, target: str) -> Callable[[Any], Any]:
        """The per-rank entry point replaying the text on ``target`` at
        the running world size; each rank returns its buffer payloads
        (:func:`repro.core.analysis.progsim.program_main`)."""
        from repro.core.analysis.progsim import program_main
        return program_main(self.program(), target=target,
                            extra_vars=self.bindings, capture=True)

    def clauses(self) -> ClauseExprs:
        """The effective clauses of the text's first ``comm_p2p``."""
        return self.program().p2p_clauses()[0][2]


PATTERNS: dict[str, PatternSpec] = {
    ring.NAME: PatternSpec(
        ring.NAME, ring.SOURCE, 5, ring.run_mpi, expected_class="ring"),
    evenodd.NAME: PatternSpec(
        evenodd.NAME, evenodd.SOURCE, 6, evenodd.run_mpi,
        expected_class="pairwise"),
    halo.NAME: PatternSpec(
        halo.NAME, halo.SOURCE, 4, halo.run_mpi, expected_class="shift"),
    pipeline.NAME: PatternSpec(
        pipeline.NAME, pipeline.SOURCE, 4, pipeline.run_mpi,
        expected_class="shift", bindings={"n": 4}),
    fan.NAME_OUT: PatternSpec(
        fan.NAME_OUT, fan.FANOUT_SOURCE, 5, fan.run_fanout_mpi,
        expected_class="fan-out"),
    fan.NAME_IN: PatternSpec(
        fan.NAME_IN, fan.FANIN_SOURCE, 5, fan.run_fanin_mpi,
        expected_class="fan-in"),
    halo2d.NAME: PatternSpec(
        halo2d.NAME, halo2d.SOURCE, 6, halo2d.run_mpi,
        expected_class="shift", bindings={"px": halo2d.grid_shape(6)[1]}),
    butterfly.NAME: PatternSpec(
        butterfly.NAME, butterfly.SOURCE, 4, butterfly.run_mpi,
        expected_class="pairwise", valid_world=power_of_two),
}


def get_pattern(name: str) -> PatternSpec:
    """Look up a pattern spec by name."""
    try:
        return PATTERNS[name]
    except KeyError:
        raise KeyError(
            f"unknown pattern {name!r}; available: "
            f"{sorted(PATTERNS)}") from None
