"""Properties of the randomized directive-program generator.

The generator's contract: seed-reproducible output, well-formed
pragma syntax on every draw, and sources that survive the printer
round-trip — the invariant the whole differential pipeline leans on
(a repro is only a repro if its seed regenerates it bit-for-bit).
"""

import hashlib
import itertools

import pytest

from repro.core.analysis.dataflow import comm_graph, validate_matching
from repro.core.pragma import parse_program
from repro.gen.generator import (
    _DISTANCES,
    _TEMPLATES,
    MODES,
    _template,
    generate,
    generate_many,
)

#: Breadth used by the property sweeps (matches the satellite spec:
#: parse -> print -> parse over 200 generated programs).
PROPERTY_SEEDS = range(200)


def test_deterministic_per_seed():
    for seed in (0, 7, 44, 450, 968):
        for mode in MODES:
            a = generate(seed, mode)
            b = generate(seed, mode)
            assert a.source == b.source
            assert a.nprocs == b.nprocs
            assert (a.seed, a.mode) == (seed, mode)


def test_distinct_seeds_differ():
    sources = {generate(seed, "clean").source for seed in range(30)}
    assert len(sources) > 25, "seeds should explore distinct programs"


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        generate(1, "bogus")


def test_nprocs_override():
    gp = generate(3, "clean", nprocs=5)
    assert gp.nprocs == 5


def test_mix_dealing_is_deterministic():
    first = [gp.mode for gp in generate_many(range(40), mode="mix")]
    again = [gp.mode for gp in generate_many(range(40), mode="mix")]
    assert first == again
    assert set(first) == set(MODES), "mix should deal out every mode"


def test_racy_mode_records_plant():
    planted = [generate(seed, "racy").planted for seed in range(20)]
    assert any(planted), "racy mode should record its planted defect"


@pytest.mark.parametrize("mode", sorted(MODES))
def test_every_program_parses(mode):
    for seed in PROPERTY_SEEDS:
        gp = generate(seed, mode)
        program = parse_program(gp.source)  # must not raise
        assert program.all_p2p(), f"seed {seed}: no directives generated"


def test_parse_print_parse_fixpoint():
    """Satellite invariant: to_source() is a fixpoint for every
    generated program — printing is canonical after one round-trip."""
    for gp in generate_many(PROPERTY_SEEDS, mode="mix"):
        printed = parse_program(gp.source).to_source()
        assert parse_program(printed).to_source() == printed, (
            f"seed {gp.seed} ({gp.mode}): parse -> print -> parse is "
            "not a fixpoint")


#: sha256 over the generated sources of seeds 0-399 (the benchmark's
#: ``mix`` lint pool, then each mode alone). A change that alters what
#: any seed generates fails here; re-pin only for an intended grammar
#: change, and say so in the change description.
SOURCE_DIGESTS = {
    "mix": "ca9841839fd2aba14c284e4208eb2a81ff232a7e921d5b2303cc2a3c0aece38e",
    "clean":
        "fff37822d20ae0979a609449eff738a56aae627f4081ca170ca8457d3287ae01",
    "racy":
        "cfdeb1491be86434b26f7c227389e35b74a5532fd5a019f39699e4f190d5fa26",
    "unconstrained":
        "870ec6ff1d09df725934a71df3ff2971208c9783576a98fa38aed3e25b0e1003",
}


@pytest.mark.parametrize("mode", sorted(SOURCE_DIGESTS))
def test_generated_sources_are_pinned(mode):
    h = hashlib.sha256()
    for gp in generate_many(range(400), mode=mode):
        h.update(f"{gp.describe()}\n{gp.source}\0".encode())
    assert h.hexdigest() == SOURCE_DIGESTS[mode]


def _matching_issues(clause_text: str, nprocs: int) -> list:
    program = parse_program(f"double a[4];\ndouble b[4];\n"
                            f"#pragma comm_p2p {clause_text}\n")
    ((_node, _scope, clauses),) = program.p2p_clauses()
    return validate_matching(comm_graph(clauses, nprocs))


@pytest.mark.parametrize("name", [name for _, name in _TEMPLATES])
def test_every_template_matches_by_construction(name):
    """The proof behind "clean": every template, at every partner
    distance and every fixed transfer pair, pairs each guarded send
    with exactly one guarded receive on every world of 1-8 ranks."""
    for nprocs in range(1, 9):
        texts = set()
        for k, pair in itertools.product(
                _DISTANCES, itertools.product(range(nprocs), repeat=2)):
            d = _template(name, k, pair)
            d.sbuf, d.rbuf = "a", "b"
            texts.add(d.clause_text())
        for text in sorted(texts):
            assert _matching_issues(text, nprocs) == [], (
                f"{text} at nprocs={nprocs}")


@pytest.mark.parametrize("mode", ["clean", "racy"])
def test_generated_directives_match(mode):
    for seed in PROPERTY_SEEDS:
        gp = generate(seed, mode)
        program = parse_program(gp.source)
        for node, _scope, clauses in program.p2p_clauses():
            issues = validate_matching(comm_graph(clauses, gp.nprocs))
            assert issues == [], f"{gp.describe()} line {node.line}"
