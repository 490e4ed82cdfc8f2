"""Property-based tests over the pattern catalog."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.patterns import get_pattern, halo2d, ring
from repro.patterns.halo2d import grid_shape, neighbours
from tests.patterns._forms import (
    TARGETS,
    as_lists,
    assembled,
    butterfly_text,
    halo2d_mpi,
    run_mpi_form,
    run_text,
    seed_every_edge,
)


@given(st.integers(min_value=2, max_value=9),
       st.integers(min_value=1, max_value=24))
@settings(max_examples=25, deadline=None)
def test_property_ring_directive_equals_handwritten(nprocs, payload):
    # The ring text resized to ``payload`` elements, every one seeded.
    seeds = "".join(f"out[{k}] = rank * 1000 + {k};\n"
                    for k in range(payload))
    text = (get_pattern("ring").source.replace("[8]", f"[{payload}]")
            .replace("out[0] = rank + 1;\n", seeds))

    def handwritten(comm):
        out = np.arange(float(payload)) + 1000 * comm.rank
        inb = np.zeros(payload)
        ring.run_mpi(comm, out, inb)
        return inb.tolist()

    expected = run_mpi_form(nprocs, handwritten)[0].values
    for target in TARGETS:
        run = run_text(text, nprocs, target).payloads
        assert [p["inb"] for p in run] == expected, target


@given(st.integers(min_value=2, max_value=12))
@settings(max_examples=20, deadline=None)
def test_property_grid_shape_covers_all_ranks(nprocs):
    py, px = grid_shape(nprocs)
    assert py * px == nprocs
    assert py <= px


@given(st.integers(min_value=2, max_value=12))
@settings(max_examples=20, deadline=None)
def test_property_neighbour_relation_symmetric(nprocs):
    """r is my north neighbour iff I am r's south neighbour, etc."""
    py, px = grid_shape(nprocs)
    opposite = {"north": "south", "south": "north",
                "west": "east", "east": "west"}
    for rank in range(nprocs):
        for d, peer in neighbours(rank, py, px).items():
            if peer is not None:
                back = neighbours(peer, py, px)[opposite[d]]
                assert back == rank


@given(st.integers(min_value=1, max_value=4),
       st.floats(min_value=-100, max_value=100, allow_nan=False))
@settings(max_examples=20, deadline=None)
def test_property_butterfly_assembles_all_contributions(log_p, base):
    nprocs = 1 << log_p
    text = butterfly_text(nprocs, seed=f"rank + {base!r}")
    expected = [base + r for r in range(nprocs)]
    for target in TARGETS:
        run = run_text(text, nprocs, target).payloads
        for rank, payload in enumerate(run):
            assert assembled(payload, rank, nprocs) == \
                pytest.approx(expected)


@given(st.integers(min_value=2, max_value=9),
       st.integers(min_value=1, max_value=4),
       st.integers(min_value=2, max_value=6))
@settings(max_examples=15, deadline=None)
def test_property_halo2d_directive_equals_handwritten(nprocs, ny, nx):
    # The halo2d text resized to an ny x nx block on the nprocs grid,
    # every element of each edge strip seeded.
    text = seed_every_edge(
        re.sub(r"\[([34])\];",
               lambda m: f"[{nx if m.group(1) == '4' else ny}];",
               halo2d.SOURCE), ny, nx)
    px = grid_shape(nprocs)[1]
    res, _ = run_mpi_form(nprocs,
                          lambda comm: halo2d_mpi(comm, ny, nx, every=True))
    expected = [as_lists(p) for p in res.values]
    for target in TARGETS:
        assert list(run_text(text, nprocs, target, {"px": px}).payloads) \
            == expected, target
