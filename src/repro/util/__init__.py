"""Shared utilities: units, deterministic RNG, and report formatting."""

from repro.util.units import (
    KiB,
    MiB,
    GiB,
    fmt_time,
    usec,
    msec,
)
from repro.util.rng import rank_rng
from repro.util.tables import Table

__all__ = [
    "KiB",
    "MiB",
    "GiB",
    "fmt_time",
    "usec",
    "msec",
    "rank_rng",
    "Table",
]
