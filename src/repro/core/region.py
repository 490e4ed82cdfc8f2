"""Per-rank directive region state: pending handles and sync carrying.

A ``comm_parameters`` region accumulates the handles its ``comm_p2p``
instances post, so synchronization can be *consolidated* — one backend
sync call covering all adjacent communication with independent buffers
(Section III-A). The ``place_sync`` keywords move that consolidated
sync:

* ``END_PARAM_REGION`` (default) — at region exit;
* ``BEGIN_NEXT_PARAM_REGION`` — carried, executed when the *next*
  region on this rank is entered;
* ``END_ADJ_PARAM_REGIONS`` — carried across a chain of adjacent
  regions that all specify it; the chain's sync executes when a region
  without it is reached (entry) or :func:`repro.core.directives.
  comm_flush` is called.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.clauses import SyncPlacement
from repro.core.lower.base import Backend, RecvHandle, SendHandle

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.process import Env

_SERVICE_KEY = "directive_regions"


@dataclass
class PendingComm:
    """Unsynchronized communication, grouped for one consolidated sync."""

    sends: list[SendHandle] = field(default_factory=list)
    recvs: list[RecvHandle] = field(default_factory=list)
    #: Local arrays involved, for the buffer-independence check.
    buffers: list[np.ndarray] = field(default_factory=list)
    #: Open ``window`` span ids (posted-but-unsynced intervals) when
    #: profiling; every covering window closes at this set's sync.
    window_sids: list[int] = field(default_factory=list)

    def __bool__(self) -> bool:
        return bool(self.sends or self.recvs)

    def absorb(self, other: "PendingComm") -> None:
        """Merge another pending set into this one."""
        self.sends.extend(other.sends)
        self.recvs.extend(other.recvs)
        self.buffers.extend(other.buffers)
        self.window_sids.extend(other.window_sids)
        other.window_sids.clear()

    def note_window(self, env: "Env") -> None:
        """Open a posted-but-unsynced window span (profiling only).

        Called after a directive instance posts into this set; compute
        spans falling inside the window are *realized* overlap.
        """
        profile = env.engine.profile
        if profile is not None and self and not self.window_sids:
            self.window_sids.append(
                profile.begin(env.rank, "window", env.now))

    def overlaps(self, arrays: list[np.ndarray]) -> bool:
        """True if any new array shares memory with a pending one."""
        for a in arrays:
            for b in self.buffers:
                if np.shares_memory(a, b):
                    return True
        return False

    def sync(self, env: "Env") -> None:
        """Issue one consolidated sync per backend and clear."""
        profile = env.engine.profile
        if profile is not None and self.window_sids:
            # The overlap window ends where the synchronization starts:
            # compute after this point is exposed, not overlapped.
            for sid in self.window_sids:
                profile.end(sid, env.now)
            self.window_sids.clear()
        if not self:
            self.buffers.clear()
            return
        by_backend: dict[int, tuple[Backend, list, list]] = {}
        for h in self.sends:
            entry = by_backend.setdefault(id(h.backend),
                                          (h.backend, [], []))
            entry[1].append(h)
        for h in self.recvs:
            entry = by_backend.setdefault(id(h.backend),
                                          (h.backend, [], []))
            entry[2].append(h)
        n_ops = len(self.sends) + len(self.recvs)
        sync_t0 = env.now
        # Two-phase across backends: publish every backend's outgoing
        # completions and notifies first, then block. Interleaving the
        # phases per backend can deadlock a consolidated sync that
        # spans targets — one rank waits for a notify its peer would
        # only publish after the peer's own receive-wait.
        for backend, sends, _recvs in by_backend.values():
            backend.sync_publish(sends)
        for backend, sends, recvs in by_backend.values():
            backend.sync_wait(sends, recvs)
        if profile is not None:
            # The handle identity gives the critical-path extraction
            # its cross-rank happens-before edges (sync -> delivery).
            profile.add(
                env.rank, "sync", sync_t0, env.now, ops=n_ops,
                backends=sorted(b.target.value
                                for b, _, _ in by_backend.values()),
                bytes=sum(h.nbytes for h in (*self.sends, *self.recvs)),
                send_keys=[(env.rank, h.dest, h.seq) for h in self.sends],
                recv_keys=[(h.source, env.rank, h.seq)
                           for h in self.recvs])
        self.sends.clear()
        self.recvs.clear()
        self.buffers.clear()
        # Consolidated-sync boundaries are the coordinated-checkpoint
        # points: everything this sync covered is quiescent here, so the
        # recovery runtime can snapshot registered state into a
        # consistent cut (see docs/RECOVERY.md).
        ctx = env.engine.recovery
        if ctx is not None:
            ctx.on_sync_boundary(env)


class RegionState:
    """One rank's directive runtime state."""

    def __init__(self) -> None:
        #: Innermost-last stack of active comm_parameters regions.
        self.stack: list = []
        #: Communication carried out of previous regions, not yet synced.
        self.carried = PendingComm()
        #: The placement policy that created the carry.
        self.carry_mode: SyncPlacement | None = None

    @classmethod
    def of(cls, env: "Env") -> "RegionState":
        """This rank's state record (created on first use)."""
        states = env.engine.services.setdefault(_SERVICE_KEY, {})
        st = states.get(env.rank)
        if st is None:
            st = cls()
            states[env.rank] = st
        return st

    def flush_carry(self, env: "Env") -> None:
        """Synchronize any carried communication now."""
        if self.carried:
            self.carried.sync(env)
        self.carry_mode = None

    def on_region_enter(self, env: "Env", place_sync: SyncPlacement) -> None:
        """Drain carried sync whose deferral ends at this region's entry."""
        if self.carry_mode is SyncPlacement.BEGIN_NEXT_PARAM_REGION:
            self.flush_carry(env)
        elif (self.carry_mode is SyncPlacement.END_ADJ_PARAM_REGIONS
              and place_sync is not SyncPlacement.END_ADJ_PARAM_REGIONS):
            # The adjacent chain ended at the previous region; its sync
            # point is here, before this region's communication.
            self.flush_carry(env)

    def on_region_exit(self, env: "Env", pending: PendingComm,
                       place_sync: SyncPlacement) -> None:
        """Apply the place_sync policy to the region's pending."""
        if place_sync is SyncPlacement.END_PARAM_REGION:
            # Consolidated sync now, covering any END_ADJ carry as well.
            self.carried.absorb(pending)
            self.flush_carry(env)
        elif place_sync is SyncPlacement.BEGIN_NEXT_PARAM_REGION:
            self.carried.absorb(pending)
            self.carry_mode = SyncPlacement.BEGIN_NEXT_PARAM_REGION
        elif place_sync is SyncPlacement.END_ADJ_PARAM_REGIONS:
            self.carried.absorb(pending)
            self.carry_mode = SyncPlacement.END_ADJ_PARAM_REGIONS
        else:  # pragma: no cover - enum is closed
            raise AssertionError(place_sync)
