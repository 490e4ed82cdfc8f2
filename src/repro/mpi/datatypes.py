"""MPI datatype objects: basic types and derived structs.

Basic types wrap the :mod:`repro.dtypes` primitives. Derived types are
created with :func:`Type_create_struct` (taking the same three parallel
arrays real MPI takes) and must be committed before use in
communication; creation and commit charge the machine model's datatype
costs, which is exactly the overhead the paper's directive translation
amortizes by caching one committed struct per function scope.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.dtypes.composite import CompositeType, StructTriples
from repro.dtypes.primitives import PrimitiveType, from_numpy_dtype
from repro.dtypes import primitives as _prims
from repro.errors import MPIError

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.comm import Comm


class Datatype:
    """A basic or derived MPI datatype."""

    def __init__(self, name: str, size: int, *,
                 primitive: PrimitiveType | None = None,
                 triples: StructTriples | None = None,
                 committed: bool = True):
        if size < 0:
            raise MPIError(f"datatype size must be >= 0, got {size}")
        self.name = name
        #: Extent of one element in bytes.
        self.size = size
        #: The underlying primitive, for basic types.
        self.primitive = primitive
        #: The flattened struct description, for derived types.
        self.triples = triples
        self.committed = committed
        self.freed = False

    @property
    def is_derived(self) -> bool:
        """True for struct (non-basic) types."""
        return self.triples is not None

    def Commit(self, comm: "Comm") -> "Datatype":
        """Commit a derived type, charging the model's commit cost."""
        self._check_alive()
        if not self.is_derived:
            return self  # committing a basic type is a no-op, as in MPI
        if not self.committed:
            comm.env.advance(comm.world.model.struct_commit)
            comm.world.stats.count_datatype("struct_committed")
            self.committed = True
        return self

    def Free(self) -> None:
        """Mark a derived type freed; later communication use is an error."""
        if not self.is_derived:
            raise MPIError(f"cannot free basic type {self.name}")
        self.freed = True

    def check_usable(self) -> None:
        """Raise unless this type may appear in a communication call."""
        self._check_alive()
        if self.is_derived and not self.committed:
            raise MPIError(
                f"derived datatype {self.name!r} used before Commit")

    def _check_alive(self) -> None:
        if self.freed:
            raise MPIError(f"datatype {self.name!r} was freed")

    def __repr__(self) -> str:
        kind = "derived" if self.is_derived else "basic"
        return f"<Datatype {self.name} {kind} size={self.size}>"


def _basic(p: PrimitiveType) -> Datatype:
    return Datatype(p.mpi_name, p.size, primitive=p)


#: One basic type per :mod:`repro.dtypes` primitive, by MPI name.
_BASIC_BY_NAME = {p.mpi_name: _basic(p)
                  for p in _prims.PRIMITIVES.values()}

CHAR = _BASIC_BY_NAME["MPI_CHAR"]
INT = _BASIC_BY_NAME["MPI_INT"]
LONG = _BASIC_BY_NAME["MPI_LONG"]
FLOAT = _BASIC_BY_NAME["MPI_FLOAT"]
DOUBLE = _BASIC_BY_NAME["MPI_DOUBLE"]
#: Raw bytes (``MPI_BYTE``).
BYTE = Datatype("MPI_BYTE", 1, primitive=_prims.UNSIGNED_CHAR)
#: The type of `Pack`ed buffers (``MPI_PACKED``).
PACKED = Datatype("MPI_PACKED", 1, primitive=_prims.UNSIGNED_CHAR)
_BASIC_BY_NAME.update({BYTE.name: BYTE, PACKED.name: PACKED})


def basic(name: str) -> Datatype:
    """Look up a basic type by MPI name (``"MPI_DOUBLE"``)."""
    try:
        return _BASIC_BY_NAME[name]
    except KeyError:
        raise MPIError(f"unknown basic datatype {name!r}") from None


def type_from_buffer(buf: np.ndarray) -> Datatype:
    """Infer the MPI datatype of a numpy buffer.

    Primitive dtypes map to the corresponding basic type; structured
    dtypes get an anonymous committed derived type sized to the dtype
    (this is the automatic inference path — explicit
    :func:`Type_create_struct` is what the original hand-written code
    must do).
    """
    if buf.dtype.fields is None:
        return _basic(from_numpy_dtype(buf.dtype))
    return Datatype(f"struct<{buf.dtype}>", buf.dtype.itemsize,
                    triples=None, committed=True)


def Type_create_struct(comm: "Comm",
                       blocklengths: Sequence[int],
                       displacements: Sequence[int],
                       types: Sequence[Datatype]) -> Datatype:
    """Create an (uncommitted) MPI struct type from parallel arrays.

    Mirrors ``MPI_Type_create_struct``; charges the model's creation
    cost. The resulting extent is ``max(disp + block * size)`` rounded
    up to the widest member alignment (C struct extent).
    """
    if not (len(blocklengths) == len(displacements) == len(types)):
        raise MPIError(
            "blocklengths, displacements and types must have equal length "
            f"(got {len(blocklengths)}, {len(displacements)}, {len(types)})")
    if len(types) == 0:
        raise MPIError("struct type needs at least one member")
    prims = []
    for t in types:
        if t.is_derived:
            raise MPIError(
                "nested derived types are not supported (the paper "
                "prohibits recursively nested composite types)")
        prims.append(t.primitive)
    for b in blocklengths:
        if b < 1:
            raise MPIError(f"blocklength must be >= 1, got {b}")
    for d in displacements:
        if d < 0:
            raise MPIError(f"displacement must be >= 0, got {d}")
    end = max(d + b * p.size
              for d, b, p in zip(displacements, blocklengths, prims))
    align = max(p.alignment for p in prims)
    extent = (end + align - 1) // align * align
    triples = StructTriples(tuple(displacements), tuple(blocklengths),
                            tuple(prims))
    model = comm.world.model
    comm.env.advance(model.struct_create_base
                     + model.struct_create_per_field * len(types))
    comm.world.stats.count_datatype("struct_created")
    return Datatype(f"struct[{len(types)}]", extent, triples=triples,
                    committed=False)


def type_for_composite(comm: "Comm", ctype: CompositeType) -> Datatype:
    """Create an uncommitted MPI struct type from a composite type.

    This is the directive compiler's path: the composite's flattened
    triples become the struct arrays (paper Section III-A).
    """
    t = ctype.triples()
    dt = Type_create_struct(
        comm,
        blocklengths=list(t.blocklengths),
        displacements=list(t.displacements),
        types=[_basic(p) for p in t.mpi_types],
    )
    dt.name = f"struct {ctype.name}"
    # The committed extent must equal the composite's C size so arrays
    # of the struct have the right stride.
    dt.size = ctype.size
    return dt
