"""Recurring point-to-point communication patterns.

The directive interface was designed from the patterns that recur in
scientific applications (paper references [1] Vetter & Mueller,
[2] Kim & Lilja, [3] Riesen): ring/shift exchanges, paired
neighbours, halo exchanges, pipelines and hub (fan-in/fan-out)
transfers. Each pattern here is written once as pragma-annotated
source (its module's ``SOURCE``), the one program the fuzzer, the
chaos soak, ``repro-trace --pattern``, the static verifier and
``repro-lint --catalog`` run or analyse, plus two library forms:
hand-written MPI and the directive DSL. Tests assert the two library
forms compute identical data and that the DSL form moves the bytes the
text does; the benchmark harness compares their modelled cost.
"""

from repro.patterns.catalog import PATTERNS, PatternSpec, get_pattern

__all__ = ["PATTERNS", "PatternSpec", "get_pattern"]
