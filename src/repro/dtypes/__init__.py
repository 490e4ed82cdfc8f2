"""The datatype engine behind the directives' automatic type handling.

Section III-A of the paper: with SHMEM the data type is embedded in the
call name and the compiler matches buffer type and storage size; with
MPI, primitive buffer types map to MPI basic types and composite types
are turned into MPI structs by extracting each element's displacement,
block length and basic type at compile time. Pointers inside composite
types and recursively nested composite types are prohibited.

This package implements exactly that machinery:

* :mod:`~repro.dtypes.primitives` — the C / numpy / MPI / Fortran basic
  type registry;
* :mod:`~repro.dtypes.composite` — composite (struct) types with C
  layout rules (field alignment, tail padding) and flattening to MPI
  ``(displacement, blocklength, basic type)`` triples;
* :mod:`~repro.dtypes.extract` — "compile-time" extraction of composite
  descriptions from Python struct definitions, enforcing the paper's
  prohibitions.
"""

from repro.dtypes.primitives import (
    PRIMITIVES,
    CHAR,
    DOUBLE,
    FLOAT,
    INT,
    LONG,
    PrimitiveType,
    from_numpy_dtype,
    primitive,
)
from repro.dtypes.composite import CompositeType, Field, StructTriples
from repro.dtypes.extract import extract_composite

__all__ = [
    "PRIMITIVES",
    "CHAR",
    "DOUBLE",
    "FLOAT",
    "INT",
    "LONG",
    "PrimitiveType",
    "from_numpy_dtype",
    "primitive",
    "CompositeType",
    "Field",
    "StructTriples",
    "extract_composite",
]
