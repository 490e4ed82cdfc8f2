"""Byte-interval access sanitizer (the dynamic half of CI04x).

The static race pass (:mod:`repro.core.analysis.races`) *proves* the
absence of buffer-aliasing races over the directive IR; this module
*observes* the same property at run time. Armed with
``Engine(..., sanitize=True)``, the directive backends record every
communication access as a byte interval on a concrete array — the read
of a posted send buffer, the delivery write of a receive or put — and
raw compute writes are recorded by the program simulator. Each access
carries a vector-clock snapshot; two accesses to overlapping bytes, at
least one of them a write, with no happens-before edge between them
raise a structured :class:`repro.errors.RaceError` (TSan's FastTrack
discipline, specialized to the directive runtime's sync shapes).

Happens-before is built from the synchronization the translation
actually executes, so a weakened sync plan (see
:func:`repro.faults.fuzz.weaken_pending_sync`) weakens the ordering the
sanitizer sees — a window whose guaranteeing sync is dropped simply
never closes, and later conflicting accesses are flagged:

* a *window* opens when communication is posted and closes at the sync
  call that guarantees it (``Waitall``, flush, quiet) — the interval
  during which the runtime may touch the bytes;
* *point* accesses (modeled compute writes, immediate put reads) open
  and close at one instant;
* cross-rank edges come from publish/acquire pairs at the exposure,
  post and notify handshakes of the backends, and from the all-member
  join of :class:`repro.sim.sync.Rendezvous` (barriers).

Ordering rule: access ``a`` happens-before access ``b`` iff ``a`` is
closed and ``b``'s snapshot covers the closing rank's epoch at close
(``b.vc[a.close_rank] >= a.close_epoch``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.errors import RaceError

__all__ = ["AccessSanitizer", "Access"]


def _address_range(arr: np.ndarray, lo: int, hi: int) -> tuple[int, int]:
    """Absolute byte addresses of ``arr``'s ``[lo, hi)`` byte range."""
    base = int(arr.__array_interface__["data"][0])
    return base + lo, base + hi


@dataclass
class Access:
    """One recorded byte-interval access."""

    #: Absolute byte addresses (half-open).
    lo: int
    hi: int
    #: ``"read"`` or ``"write"``.
    kind: str
    #: Rank that performs the access.
    rank: int
    #: Human-readable description used in race reports.
    label: str
    #: Buffer-relative byte offsets, for the evidence text.
    rel_lo: int
    rel_hi: int
    #: The accessor's vector-clock snapshot at open time.
    vc: list[int]
    #: Strong reference to the base array: while a record is live its
    #: address range cannot be recycled by a new allocation, so
    #: absolute-address overlap is never a false aliasing.
    array: Any = None
    #: Close state: a window closes at its guaranteeing sync; a point
    #: access is born closed. An open window conflicts with everything
    #: concurrent — including all of the future.
    closed: bool = False
    close_rank: int = -1
    close_epoch: int = 0

    def overlaps(self, other: "Access") -> bool:
        """True when the two absolute byte intervals intersect."""
        return self.lo < other.hi and other.lo < self.hi


class AccessSanitizer:
    """Engine-wide dynamic race detector over byte-interval accesses.

    One instance per :class:`repro.sim.Engine` run (created by
    ``Engine(..., sanitize=True)``). All methods run on simulated rank
    threads; the engine's one-rank-at-a-time discipline makes the
    shared state race-free on the host side.
    """

    def __init__(self, engine: Any) -> None:
        self.engine = engine
        self.nprocs: int = engine.nprocs
        #: Collect mode: when True, :meth:`_race` records the
        #: :class:`~repro.errors.RaceError` on :attr:`races` and the
        #: run continues — the differential oracle wants every race in
        #: the schedule, not an abort at the first one.
        self.collect = False
        #: Race reports accumulated in collect mode, in detection order.
        self.races: list[RaceError] = []
        #: Per-rank vector clocks; ``vc[r][r]`` is rank r's own epoch.
        self._vc: dict[int, list[int]] = {}
        #: Every recorded access, open windows included.
        self.records: list[Access] = []
        #: Open windows by key (handle identity). A key collision after
        #: a leaked handle is garbage-collected only drops the *key*;
        #: the stale record stays in :attr:`records`, open forever —
        #: exactly the semantics of a sync that never ran.
        self.windows: dict[Any, Access] = {}
        #: Published snapshots keyed by handshake identity.
        self._published: dict[Any, list[int]] = {}

    # -- vector clocks -----------------------------------------------------

    def _clock(self, rank: int) -> list[int]:
        vc = self._vc.get(rank)
        if vc is None:
            vc = [0] * self.nprocs
            self._vc[rank] = vc
        return vc

    def _tick(self, rank: int) -> int:
        vc = self._clock(rank)
        vc[rank] += 1
        return vc[rank]

    def publish(self, key: Any, rank: int) -> None:
        """Record ``rank``'s snapshot for a later :meth:`acquire`."""
        self._published[key] = list(self._clock(rank))

    def acquire(self, key: Any, rank: int) -> None:
        """Join a published snapshot into ``rank``'s clock."""
        snap = self._published.pop(key, None)
        if snap is None:
            return
        vc = self._clock(rank)
        for i, v in enumerate(snap):
            if v > vc[i]:
                vc[i] = v

    def barrier_join(self, members: Any) -> None:
        """All-member clock join (a barrier orders everything across it)."""
        ranks = sorted(members)
        joined = [0] * self.nprocs
        for r in ranks:
            for i, v in enumerate(self._clock(r)):
                if v > joined[i]:
                    joined[i] = v
        for r in ranks:
            vc = list(joined)
            vc[r] += 1
            self._vc[r] = vc

    # -- recording ---------------------------------------------------------

    def read(self, rank: int, arr: np.ndarray, lo: int, hi: int,
             label: str) -> None:
        """Record one instantaneous read of ``arr``'s bytes [lo, hi)."""
        self._point(rank, arr, lo, hi, "read", label)

    def write(self, rank: int, arr: np.ndarray, lo: int, hi: int,
              label: str) -> None:
        """Record one instantaneous write of ``arr``'s bytes [lo, hi)."""
        self._point(rank, arr, lo, hi, "write", label)

    def _point(self, rank: int, arr: np.ndarray, lo: int, hi: int,
               kind: str, label: str) -> None:
        epoch = self._tick(rank)
        alo, ahi = _address_range(arr, lo, hi)
        rec = Access(lo=alo, hi=ahi, kind=kind, rank=rank, label=label,
                     rel_lo=lo, rel_hi=hi, vc=list(self._clock(rank)),
                     array=arr, closed=True, close_rank=rank,
                     close_epoch=epoch)
        self._insert(rec)

    def open_window(self, key: Any, rank: int, arr: np.ndarray,
                    lo: int, hi: int, kind: str, label: str) -> None:
        """Open an access window that a later sync will close."""
        self._tick(rank)
        alo, ahi = _address_range(arr, lo, hi)
        rec = Access(lo=alo, hi=ahi, kind=kind, rank=rank, label=label,
                     rel_lo=lo, rel_hi=hi, vc=list(self._clock(rank)),
                     array=arr)
        self.windows[key] = rec
        self._insert(rec)

    def close_window(self, key: Any, rank: int) -> None:
        """Close a window at ``rank``'s current sync point (no-op when
        the key is unknown — e.g. a window a weakened sync dropped)."""
        rec = self.windows.pop(key, None)
        if rec is None:
            return
        rec.closed = True
        rec.close_rank = rank
        rec.close_epoch = self._tick(rank)

    # -- the check ---------------------------------------------------------

    @staticmethod
    def _ordered(a: Access, b: Access) -> bool:
        """True when ``a`` happens-before ``b``."""
        return a.closed and b.vc[a.close_rank] >= a.close_epoch

    def _insert(self, rec: Access) -> None:
        stats = self.engine.stats
        for other in self.records:
            stats.sanitizer_checks += 1
            if not rec.overlaps(other):
                continue
            if rec.kind == "read" and other.kind == "read":
                continue
            if self._ordered(other, rec) or self._ordered(rec, other):
                continue
            self._race(other, rec)
        self.records.append(rec)

    def _race(self, first: Access, second: Access) -> None:
        kind = ("write-write"
                if first.kind == "write" and second.kind == "write"
                else "read-write")
        olo = max(first.lo, second.lo)
        ohi = min(first.hi, second.hi)
        error = RaceError(
            f"access sanitizer: {kind} race — {second.label} (rank "
            f"{second.rank}, {second.kind} of bytes [{second.rel_lo}, "
            f"{second.rel_hi})) is unordered against {first.label} "
            f"(rank {first.rank}, {first.kind} of bytes "
            f"[{first.rel_lo}, {first.rel_hi})); {ohi - olo} byte(s) "
            f"overlap",
            kind=kind, ranks=(first.rank, second.rank),
            labels=(first.label, second.label),
            overlap_nbytes=ohi - olo)
        if self.collect:
            self.races.append(error)
            return
        raise error
