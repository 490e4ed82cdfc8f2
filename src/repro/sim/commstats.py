"""Communication-pattern analysis over run profiles.

The paper motivates directives partly as fuel for "automated analysis"
of an application's communication. This module provides the dynamic
side of that story: given a profiled run, build the communication
matrix (who sent how much to whom), message-size histograms, and
per-phase message counts — the quantities the characterization studies
the paper cites ([1] Vetter & Mueller, [2] Kim & Lilja) report for real
codes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - keeps profiling off sim's import path
    from repro.profiling.spans import Profile


@dataclass
class CommMatrix:
    """Aggregated communication of one profiled run."""

    nprocs: int
    #: messages[src][dst] — message counts.
    messages: np.ndarray = field(default=None)
    #: volume[src][dst] — payload bytes.
    volume: np.ndarray = field(default=None)
    #: Histogram of message sizes (bucketed by power of two).
    size_histogram: Counter = field(default_factory=Counter)

    def __post_init__(self) -> None:
        if self.messages is None:
            self.messages = np.zeros((self.nprocs, self.nprocs),
                                     dtype=np.int64)
        if self.volume is None:
            self.volume = np.zeros((self.nprocs, self.nprocs),
                                   dtype=np.int64)

    # -- queries -----------------------------------------------------------

    @property
    def total_messages(self) -> int:
        """All messages in the matrix."""
        return int(self.messages.sum())

    @property
    def total_bytes(self) -> int:
        """All payload bytes in the matrix."""
        return int(self.volume.sum())

    def hotspots(self, k: int = 3) -> list[tuple[int, int, int]]:
        """The ``k`` heaviest (src, dst, bytes) pairs."""
        flat = self.volume.reshape(-1)
        order = np.argsort(flat)[::-1][:k]
        out = []
        for idx in order:
            if flat[idx] == 0:
                break
            out.append((int(idx) // self.nprocs,
                        int(idx) % self.nprocs, int(flat[idx])))
        return out

    def degree(self, rank: int) -> tuple[int, int]:
        """(number of distinct destinations, distinct sources)."""
        return (int((self.messages[rank] > 0).sum()),
                int((self.messages[:, rank] > 0).sum()))

    def small_message_fraction(self, threshold: int = 256) -> float:
        """Fraction of messages at or under ``threshold`` bytes — the
        regime where the paper's SHMEM translation wins most."""
        total = sum(self.size_histogram.values())
        if total == 0:
            return 0.0
        small = sum(c for b, c in self.size_histogram.items()
                    if b <= threshold)
        return small / total

    def render(self) -> str:
        """Human-readable summary."""
        lines = [f"communication matrix ({self.nprocs} ranks): "
                 f"{self.total_messages} messages, "
                 f"{self.total_bytes} bytes"]
        for src, dst, nbytes in self.hotspots():
            lines.append(f"  hotspot: {src} -> {dst}: {nbytes} bytes "
                         f"({int(self.messages[src, dst])} messages)")
        lines.append(f"  small-message (<=256B) fraction: "
                     f"{self.small_message_fraction():.0%}")
        return "\n".join(lines)


def _bucket(nbytes: int) -> int:
    """Power-of-two size bucket (8, 16, ..., capped below at 8)."""
    b = 8
    while b < nbytes:
        b <<= 1
    return b


def comm_matrix(profile: "Profile") -> CommMatrix:
    """Build the communication matrix from a profiled run.

    Every ``message`` span is one initiated transfer — a matched MPI
    send, an ``MPI_Put`` or a ``shmem_put`` — counted at
    ``(src, dst)`` with its ``nbytes``. One-sided ``notify`` spans are
    synchronization, not payload, and are not counted.
    """
    m = CommMatrix(profile.nranks)
    for span in profile.of_kind("message"):
        pair = span.attrs["src"], span.attrs["dst"]
        nbytes = span.attrs["nbytes"]
        m.messages[pair] += 1
        m.volume[pair] += nbytes
        m.size_histogram[_bucket(nbytes)] += 1
    return m
