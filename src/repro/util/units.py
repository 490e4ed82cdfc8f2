"""Byte- and time-unit helpers.

All virtual times in the simulator are floats in **seconds**; all sizes
are ints in **bytes**. These helpers keep cost-model code readable
(``2 * usec`` rather than ``2e-6``) and make benchmark reports humane.
"""

from __future__ import annotations

KiB: int = 1024
MiB: int = 1024 * KiB
GiB: int = 1024 * MiB

#: One microsecond, in seconds. ``latency = 1.5 * usec``.
usec: float = 1e-6
#: One millisecond, in seconds.
msec: float = 1e-3


def fmt_time(seconds: float) -> str:
    """Format a duration with an SI suffix (``1.5e-6 -> '1.5 us'``)."""
    a = abs(seconds)
    if a == 0.0:
        return "0 s"
    if a >= 1.0:
        return f"{seconds:.4g} s"
    if a >= 1e-3:
        return f"{seconds * 1e3:.4g} ms"
    if a >= 1e-6:
        return f"{seconds * 1e6:.4g} us"
    return f"{seconds * 1e9:.4g} ns"
