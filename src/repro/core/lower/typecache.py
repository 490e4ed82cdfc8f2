"""Per-scope derived-datatype cache.

Section III-A: when a directive's buffer is a composite type, the
compiler generates MPI calls that create and commit an MPI struct, and
"this new MPI data type is reused within the function scope for any
communication directive with buffers of the same type". We key the
cache on (rank, structured numpy dtype); dtype equality covers field
names, formats, offsets, titles and itemsize. Creation+commit costs
are charged exactly once per key, reuse is free — and the stats
counters (``struct_created`` vs ``struct_reused``) make the
amortization visible to benchmarks.
"""

from __future__ import annotations

import numpy as np

from repro.mpi.comm import Comm
from repro.mpi.datatypes import Datatype, Type_create_struct, basic
from repro.sim.engine import Engine

_SERVICE_KEY = "directive_typecache"


def _triples_from_dtype(dtype: np.dtype) -> tuple[list, list, list]:
    """Flatten a structured numpy dtype into MPI struct arrays."""
    blocklengths: list[int] = []
    displacements: list[int] = []
    types: list[Datatype] = []

    def emit(dt: np.dtype, base: int) -> None:
        for name in dt.names:
            sub, offset = dt.fields[name][0], dt.fields[name][1]
            if sub.subdtype is not None:
                elem, shape = sub.subdtype
                count = int(np.prod(shape))
            else:
                elem, count = sub, 1
            if elem.fields is not None:
                for i in range(count):
                    emit(elem, base + offset + i * elem.itemsize)
            else:
                blocklengths.append(count)
                displacements.append(base + offset)
                types.append(_basic_for(elem))

    emit(dtype, 0)
    return blocklengths, displacements, types


def _basic_for(elem: np.dtype) -> Datatype:
    kind_map = {
        ("i", 1): "MPI_CHAR", ("u", 1): "MPI_BYTE",
        ("i", 4): "MPI_INT", ("i", 8): "MPI_LONG",
        ("f", 4): "MPI_FLOAT", ("f", 8): "MPI_DOUBLE",
    }
    name = kind_map.get((elem.kind, elem.itemsize))
    if name is None:
        # i2/u2/u4/u8 map onto same-width basics for transfer purposes.
        fallback = {1: "MPI_CHAR", 2: "MPI_CHAR", 4: "MPI_INT",
                    8: "MPI_LONG"}
        name = fallback.get(elem.itemsize, "MPI_BYTE")
    return basic(name)


class TypeCache:
    """Engine-wide cache of committed derived types, per rank."""

    def __init__(self) -> None:
        self._cache: dict[tuple[int, np.dtype], Datatype] = {}

    @classmethod
    def attach(cls, engine: Engine) -> "TypeCache":
        """The engine-wide cache instance (created on first use)."""
        svc = engine.services.get(_SERVICE_KEY)
        if svc is None:
            svc = cls()
            engine.services[_SERVICE_KEY] = svc
        return svc

    def datatype_for(self, comm: Comm, dtype: np.dtype) -> Datatype:
        """The committed derived type for a structured dtype.

        First use on a rank creates and commits (charging the model's
        costs); later uses reuse the committed type for free.
        """
        key = (comm.env.rank, dtype)
        dt = self._cache.get(key)
        if dt is not None:
            comm.world.stats.count_datatype("struct_reused")
            return dt
        blocklengths, displacements, types = _triples_from_dtype(dtype)
        dt = Type_create_struct(comm, blocklengths, displacements, types)
        dt.size = dtype.itemsize  # extent must match the array stride
        dt.Commit(comm)
        self._cache[key] = dt
        return dt
