"""Exposure and notification plumbing for the one-sided backends.

A one-sided translation has two problems a two-sided one does not:

1. **Exposure** (MPI one-sided only): the origin needs the target's
   buffer. Real generated code would create an RMA window; creating MPI
   windows is collective over a communicator, which a point-to-point
   directive reached by a subset of ranks cannot afford. We model the
   *dynamic-window* style instead: the receiving rank registers its
   ``rbuf`` when it reaches the directive; an origin arriving first
   blocks until the exposure exists (the access-epoch ordering a real
   window would impose).

2. **Notification**: a put moves data but tells the target nothing.
   The generated code a real compiler emits pairs the payload puts with
   a flag update the target waits on. We model that flag: at a sender's
   synchronization point, after its local flush, one 8-byte notify
   "put" per message is recorded with its visibility time; the
   receiver's synchronization blocks until the notifies for all its
   expected messages are visible.

Matching is by per-(sender, receiver) sequence number: the n-th
directive message from A to B pairs with the n-th expectation B posts
for A — well-defined because SPMD ranks execute directives in program
order (the same discipline MPI imposes on collectives).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.sim.engine import Engine

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.process import Env

_SERVICE_KEY = "onesided_exposure"


class ExposureService:
    """Engine-wide registry of exposures, notifications and sequence
    counters for the one-sided backends."""

    def __init__(self) -> None:
        #: (src, dst, seq) -> exposed target ndarray.
        self.exposed: dict[tuple[int, int, int], np.ndarray] = {}
        #: (src, dst, seq) -> waiter of an origin blocked on exposure.
        self.exposure_waiters: dict[tuple[int, int, int], object] = {}
        #: (src, dst, seq) -> visibility time of the sender's notify.
        self.notified: dict[tuple[int, int, int], float] = {}
        #: (src, dst, seq) -> waiter of a receiver blocked on a notify.
        self.notify_waiters: dict[tuple[int, int, int], object] = {}
        #: per-(src, dst) message sequence counters, per side.
        self.send_seq: dict[tuple[int, int], int] = {}
        self.recv_seq: dict[tuple[int, int], int] = {}
        #: (src, dst, seq) -> deferred-delivery commit callable (fault
        #: injection): the payload write parked until the receiver's
        #: synchronization consumes the matching notify.
        self.staged: dict[tuple[int, int, int], object] = {}

    @classmethod
    def attach(cls, engine: Engine) -> "ExposureService":
        """The engine-wide service instance (created on first use)."""
        svc = engine.services.get(_SERVICE_KEY)
        if svc is None:
            svc = cls()
            engine.services[_SERVICE_KEY] = svc
        return svc

    # -- sequencing -------------------------------------------------------

    def next_send_seq(self, src: int, dst: int) -> int:
        """Allocate the sender-side sequence number of a pair."""
        seq = self.send_seq.get((src, dst), 0)
        self.send_seq[(src, dst)] = seq + 1
        return seq

    def next_recv_seq(self, src: int, dst: int) -> int:
        """Allocate the receiver-side sequence number of a pair."""
        seq = self.recv_seq.get((src, dst), 0)
        self.recv_seq[(src, dst)] = seq + 1
        return seq

    # -- exposure (mpi1s) ---------------------------------------------------

    def expose(self, env: "Env", src: int, dst: int, seq: int,
               buf: np.ndarray) -> None:
        """The receiver exposes its buffer for one expected put."""
        key = (src, dst, seq)
        self.exposed[key] = buf
        waiter = self.exposure_waiters.pop(key, None)
        if waiter is not None:
            env.engine.wake(waiter, env.now)

    def await_exposure(self, env: "Env", src: int, dst: int,
                       seq: int) -> np.ndarray:
        """The origin obtains the exposed target buffer, blocking if the
        receiver has not reached the directive yet."""
        key = (src, dst, seq)
        buf = self.exposed.get(key)
        if buf is None:
            waiter = env.make_waiter(
                f"RMA exposure of message {seq} by rank {dst}")
            self.exposure_waiters[key] = waiter
            env.block()
            buf = self.exposed[key]
        del self.exposed[key]
        return buf

    # -- notification (both one-sided backends) -----------------------------

    def notify(self, env: "Env", src: int, dst: int, seq: int,
               visible_at: float) -> None:
        """Record the sender's flag update for one message."""
        key = (src, dst, seq)
        self.notified[key] = visible_at
        profile = env.engine.profile
        if profile is not None:
            # The flag update is what actually gates the receiver's
            # synchronization on the one-sided targets — the delivery
            # event critical-path edges follow.
            profile.add(dst, "notify", env.now, visible_at,
                        src=src, dst=dst, seq=seq, nbytes=8)
        waiter = self.notify_waiters.pop(key, None)
        if waiter is not None:
            env.engine.wake(waiter, visible_at)

    def stage(self, src: int, dst: int, seq: int, commit) -> None:
        """Park one message's deferred payload write (fault injection).

        ``commit`` runs when the receiver's synchronization consumes the
        matching notify — the point at which the translation *claims*
        the data is valid. A sync plan that never awaits the notify
        leaves the write uncommitted, which the fuzzer detects.
        """
        self.staged[(src, dst, seq)] = commit

    def _commit_staged(self, key: tuple[int, int, int]) -> None:
        commit = self.staged.pop(key, None)
        if commit is not None:
            commit()

    def await_notify(self, env: "Env", src: int, dst: int,
                     seq: int) -> float:
        """The receiver waits for one message's notify; returns its
        visibility time (the caller's clock already covers it)."""
        key = (src, dst, seq)
        t = self.notified.pop(key, None)
        if t is not None:
            env.advance_to(t)
            self._commit_staged(key)
            return t
        waiter = env.make_waiter(
            f"one-sided notify of message {seq} from rank {src}")
        self.notify_waiters[key] = waiter
        env.block()
        del self.notified[(src, dst, seq)]
        self._commit_staged(key)
        return env.now
