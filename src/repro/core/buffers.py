"""Runtime buffer handling for the directives.

The ``sbuf``/``rbuf`` clauses accept "a list of buffers ... pointers or
arrays of primitive or composite type" (Section III-B). At runtime a
buffer is a ``numpy`` array (a structured dtype is a composite type) or,
for the SHMEM target, a :class:`repro.shmem.SymArray`. This module
normalizes clause values to buffer lists, infers the message size when
``count`` is omitted, and enforces the paper's allocation rule for
SHMEM ("the buffers ... must also be symmetric data objects").
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.clauses import Target
from repro.errors import ClauseError, SymmetryError
from repro.shmem.symheap import SymArray


def _buffers(value: Any, clause: str
             ) -> tuple[list | tuple, list[np.ndarray]]:
    """A clause value as a non-empty buffer sequence and its local
    arrays."""
    if isinstance(value, np.ndarray):
        return [value], [value]
    if isinstance(value, SymArray):
        return [value], [value.data]
    if not isinstance(value, (list, tuple)):
        raise ClauseError(
            f"{clause} must be a buffer or a list of buffers; "
            f"got {type(value).__name__}")
    if not value:
        raise ClauseError(f"{clause} must list at least one buffer")
    arrays = []
    for b in value:
        if isinstance(b, np.ndarray):
            arrays.append(b)
        elif isinstance(b, SymArray):
            arrays.append(b.data)
        else:
            raise ClauseError(
                f"{clause} entries must be numpy arrays (or symmetric "
                f"arrays for the SHMEM target); got {type(b).__name__}")
    return value, arrays


def array_of(buf: np.ndarray | SymArray) -> np.ndarray:
    """The local ndarray behind a buffer handle."""
    return buf.data if isinstance(buf, SymArray) else buf


def resolve(target: Target, sbuf: Any, rbuf: Any, count: int | None
            ) -> tuple[Any, Any, list[np.ndarray], list[np.ndarray], int]:
    """Check a directive's buffer clauses in one pass over their arrays.

    Normalises ``sbuf``/``rbuf`` to buffer sequences, enforces the
    per-target allocation rule and the positional pairing (same list
    length, same element size), and returns ``(sbufs, rbufs, sarrays,
    rarrays, count)``. With ``count`` omitted (``None``) at least one
    buffer must be an array (size > 1 or explicitly shaped); the
    inferred size is the *smallest* array length among all listed
    buffers (Section III-B: "If more than one of the buffers is an
    array, the message size will be the size of the smallest array").
    A transfer of ``count`` elements must fit every buffer it touches.
    """
    sbufs, sarrays = _buffers(sbuf, "sbuf")
    rbufs, rarrays = _buffers(rbuf, "rbuf")
    if target is Target.SHMEM:
        bad = [i for i, b in enumerate(rbufs) if not isinstance(b, SymArray)]
        if bad:
            raise SymmetryError(
                "TARGET_COMM_SHMEM requires every rbuf entry to be a "
                f"symmetric data object (shmem.malloc); entries {bad} "
                "are plain arrays (Section III-B)")
    if len(sbufs) != len(rbufs):
        raise ClauseError(
            f"sbuf and rbuf must list the same number of buffers "
            f"(payloads pair up positionally); got {len(sbufs)} vs "
            f"{len(rbufs)}")
    for i, (s, r) in enumerate(zip(sarrays, rarrays)):
        if s.dtype.itemsize != r.dtype.itemsize:
            raise ClauseError(
                f"buffer pair {i}: element sizes differ "
                f"({s.dtype.itemsize} vs {r.dtype.itemsize} bytes); "
                "the generated transfer would reinterpret elements")
    if count is None:
        sizes = [a.size for a in (*sarrays, *rarrays) if a.size >= 1]
        if not sizes:
            raise ClauseError(
                "count was omitted but no buffer in sbuf/rbuf is an "
                "array; provide count explicitly")
        count = min(sizes)
    for name, arrays in (("sbuf", sarrays), ("rbuf", rarrays)):
        for i, a in enumerate(arrays):
            if count > a.size:
                raise ClauseError(
                    f"count {count} exceeds {name}[{i}] "
                    f"({a.size} elements)")
    return sbufs, rbufs, sarrays, rarrays, count
