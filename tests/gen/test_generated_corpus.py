"""The minimized-repro corpus stays pinned to its manifest.

Every file in ``examples/pragmas/generated/`` is a delta-minimized
program the differential oracle once caught as a static/dynamic
disagreement; ``EXPECTED.json`` records the toolchain behavior each
one pins. These tests re-check both sides — the lint verdict and the
sanitizer-observed race counts — so an analyzer or runtime regression
reintroducing the original bug fails here with the minimal repro
attached.
"""

import json
import os

import pytest

from repro.core.analysis.lint import lint_program
from repro.core.analysis.progsim import simulate_program
from repro.core.clauses import Target
from repro.core.pragma import parse_program

CORPUS = os.path.join(os.path.dirname(__file__), "..", "..",
                      "examples", "pragmas", "generated")

with open(os.path.join(CORPUS, "EXPECTED.json")) as fh:
    EXPECTED = {name: spec for name, spec in json.load(fh).items()
                if not name.startswith("_")}


def _load(name: str):
    with open(os.path.join(CORPUS, name)) as fh:
        return parse_program(fh.read())


def test_manifest_covers_corpus():
    files = {f for f in os.listdir(CORPUS) if f.endswith(".c")}
    assert files == set(EXPECTED), (
        "every corpus file needs an EXPECTED.json entry (and vice "
        f"versa); unmatched: {files ^ set(EXPECTED)}")


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_lint_verdict(name):
    spec = EXPECTED[name]
    report = lint_program(_load(name), nprocs=8)
    codes = sorted({d.code for d in report.diagnostics})
    rc = 1 if any(d.severity == "error"
                  for d in report.diagnostics) else 0
    assert rc == spec["lint_rc"], (
        f"{name}: lint rc {rc} != pinned {spec['lint_rc']} "
        f"(codes: {codes})")
    assert codes == sorted(spec["lint_codes"]), (
        f"{name}: lint codes {codes} != pinned {spec['lint_codes']}")


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_dynamic_races(name):
    spec = EXPECTED[name]["dynamic"]
    program = _load(name)
    outcomes = {t.value: simulate_program(program, spec["nprocs"], target=t,
                                          sanitize="collect", capture=False)
                for t in Target}
    observed = {key: len(out.races)
                for key, out in outcomes.items() if out.races}
    assert observed == spec["races"], (
        f"{name}: sanitizer races {observed} != pinned "
        f"{spec['races']}")
