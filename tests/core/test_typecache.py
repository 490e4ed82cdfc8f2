"""The derived-datatype cache (automatic datatype handling)."""

import numpy as np
import pytest

from repro import mpi
from repro.core.lower.typecache import TypeCache, _triples_from_dtype
from repro.dtypes import extract_composite
from repro.errors import DatatypeError
from repro.netmodel import uniform_model, zero_model
from repro.sim import Engine


def run(nprocs, fn, model=None):
    model = model or zero_model()
    eng = Engine(nprocs)

    def main(env):
        comm = mpi.init(env, model)
        return fn(comm)

    return eng.run(main), eng


class TestTriplesFromDtype:
    def test_matches_composite_layout(self):
        """Flattening a numpy dtype agrees with the dtypes engine's
        flattening of the equivalent composite: blocklengths,
        displacements and basic-type names."""
        for fields in ({"n": "int", "x": "double", "tag": ("char", 5),
                        "v": ("double", 3)},
                       {"a": "unsigned", "b": "short",
                        "c": "unsigned short", "d": "unsigned long",
                        "e": ("unsigned char", 3)}):
            comp = extract_composite("S", fields)
            bl, disp, types = _triples_from_dtype(comp.to_numpy_dtype())
            ref = comp.triples()
            assert tuple(bl) == ref.blocklengths
            assert tuple(disp) == ref.displacements
            assert [t.name for t in types] == \
                [p.mpi_name for p in ref.mpi_types]

    def test_nested_struct_flattened(self):
        inner = np.dtype([("x", "f8")], align=True)
        outer = np.dtype([("n", "i4"), ("i", inner, (2,))], align=True)
        bl, disp, types = _triples_from_dtype(outer)
        assert len(bl) == 3  # n + two inner.x copies
        assert disp[1] == 8 and disp[2] == 16

    def test_unsigned_and_short_fallbacks(self):
        dt = np.dtype([("a", "u4"), ("b", "i2"), ("c", "u2"),
                       ("d", "u8"), ("e", "u1")])
        _, _, types = _triples_from_dtype(dt)
        assert [t.name for t in types] == [
            "MPI_UNSIGNED", "MPI_SHORT", "MPI_UNSIGNED_SHORT",
            "MPI_UNSIGNED_LONG", "MPI_UNSIGNED_CHAR"]

    def test_field_without_c_primitive_rejected(self):
        with pytest.raises(DatatypeError, match="no corresponding C"):
            _triples_from_dtype(np.dtype([("a", "i4"), ("b", "f2")]))


class TestCache:
    def test_created_once_per_rank_per_dtype(self):
        dt = np.dtype([("a", "i4"), ("b", "f8")], align=True)

        def prog(comm):
            cache = TypeCache.attach(comm.env.engine)
            first = cache.datatype_for(comm, dt)
            second = cache.datatype_for(comm, dt)
            return first is second

        res, eng = run(2, prog)
        assert all(res.values)
        assert eng.stats.datatype_ops["struct_created"] == 2  # per rank
        assert eng.stats.datatype_ops["struct_reused"] == 2

    def test_distinct_dtypes_distinct_entries(self):
        a = np.dtype([("x", "f8")])
        b = np.dtype([("y", "i4")])

        def prog(comm):
            cache = TypeCache.attach(comm.env.engine)
            return cache.datatype_for(comm, a) is \
                cache.datatype_for(comm, b)

        res, eng = run(1, prog)
        assert res.values == [False]
        assert eng.stats.datatype_ops["struct_created"] == 2

    def test_extent_matches_dtype_itemsize(self):
        dt = np.dtype([("a", "i4"), ("b", "f8")], align=True)

        def prog(comm):
            cache = TypeCache.attach(comm.env.engine)
            return cache.datatype_for(comm, dt).size

        res, _ = run(1, prog)
        assert res.values[0] == dt.itemsize

    def test_creation_cost_charged_once(self):
        dt = np.dtype([("a", "i4"), ("b", "f8", (4,))], align=True)
        model = uniform_model()

        def prog(comm):
            cache = TypeCache.attach(comm.env.engine)
            t0 = comm.env.now
            cache.datatype_for(comm, dt)
            first = comm.env.now - t0
            t0 = comm.env.now
            cache.datatype_for(comm, dt)
            return (first, comm.env.now - t0)

        res, _ = run(1, prog, model=model)
        first, second = res.values[0]
        assert first == pytest.approx(model.struct_create_cost(2))
        assert second == 0.0


class TestDirectiveRun:
    def test_wllsms_directive_struct_counts(self):
        """A P=33 directive WL-LSMS run creates one struct per rank and
        composite dtype and reuses it afterwards (counts of the
        string-keyed cache this one replaced)."""
        from repro.apps.wllsms import AppConfig, run_app

        res = run_app(AppConfig(n_lsms=2, group_size=16, wl_steps=4,
                                variant="directive", seed=1))
        assert res.stats.datatype_ops["struct_created"] == 32
        assert res.stats.datatype_ops["struct_reused"] == 28
