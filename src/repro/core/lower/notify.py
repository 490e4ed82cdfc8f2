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

import abc
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from repro.core.buffers import array_of
from repro.core.lower.base import Backend, RecvHandle, SendHandle
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

    def await_notify(self, env: "Env", src: int, dst: int,
                     seq: int) -> None:
        """The receiver waits for one message's notify, then commits
        the message's staged write, if any."""
        key = (src, dst, seq)
        if key in self.notified:
            env.advance_to(self.notified.pop(key))
        else:
            self.notify_waiters[key] = env.make_waiter(
                f"one-sided notify of message {seq} from rank {src}")
            env.block()
            del self.notified[key]
        commit = self.staged.pop(key, None)
        if commit is not None:
            commit()


class OneSidedBackend(Backend):
    """The put–flush–notify protocol of the one-sided targets.

    Posting a send allocates the pair's sequence number and issues the
    target's put, which writes the receiver's buffer at once or — under
    a bound fault plan — hands the write to the service to stage until
    the receiver consumes the notify. The put's target-side write and
    source read stay open sanitizer windows until the origin's flush.
    The sync publishes (flush, then one notify per message) and the
    receiver waits for the notify of every message it expects.

    A target subclass sets :attr:`tp` (the notify's transport) and the
    wording of its put windows, and supplies :meth:`_put`,
    :meth:`_flush` and, when the receiver must expose its buffer,
    :meth:`_expose`.
    """

    #: Sanitizer wording: ``the <put_name> of message #n into <peer> d's
    #: <dest_buffer>``.
    put_name = "put"
    peer = "rank"
    dest_buffer = "buffer"

    def __init__(self, env):
        super().__init__(env)
        self.svc = ExposureService.attach(env.engine)

    @abc.abstractmethod
    def _put(self, dest: int, seq: int, sbuf, rbuf, count: int,
             defer) -> tuple[float, np.ndarray, int]:
        """Issue one message's put; returns ``(completion time, the
        array it writes, nbytes)``. With ``defer`` set, the target-side
        write is not performed but passed to ``defer`` as a callable."""

    def _expose(self, source: int, seq: int, arr: np.ndarray) -> None:
        """The receiver's side of posting one expected message."""

    @abc.abstractmethod
    def _flush(self, sends: list[SendHandle]) -> None:
        """Complete this rank's outstanding puts (``sends`` is
        non-empty)."""

    def post_send(self, dest: int, sbuf, rbuf, count: int) -> SendHandle:
        env = self.env
        rank = env.rank
        seq = self.svc.next_send_seq(rank, dest)
        defer = (None if env.engine.faults is None
                 else partial(self.svc.stage, rank, dest, seq))
        completion, written, nbytes = self._put(dest, seq, sbuf, rbuf,
                                                count, defer)
        handle = SendHandle(backend=self, dest=dest, seq=seq,
                            nbytes=nbytes, payload=completion)
        san = env.engine.sanitizer
        if san is not None:
            # The put's target-side write and source-side read are both
            # live until the origin's flush (the directive contract: no
            # buffer may be touched before the guaranteeing sync).
            what = f"the {self.put_name} of message #{seq}"
            san.open_window(
                ("put", id(handle)), rank, written, 0, nbytes, "write",
                f"{what} into {self.peer} {dest}'s {self.dest_buffer}")
            san.open_window(
                ("put-src", id(handle)), rank, array_of(sbuf), 0, nbytes,
                "read", f"{what} to {self.peer} {dest} (source read)")
        return handle

    def post_recv(self, source: int, rbuf, count: int) -> RecvHandle:
        env = self.env
        env.engine.check_peer_alive(source)
        arr = array_of(rbuf)
        seq = self.svc.next_recv_seq(source, env.rank)
        self._expose(source, seq, arr)
        return RecvHandle(backend=self, source=source, seq=seq,
                          nbytes=count * arr.dtype.itemsize)

    def sync_publish(self, sends: list[SendHandle]) -> None:
        if not sends:
            return
        env = self.env
        san = env.engine.sanitizer
        # Complete the puts, then one notify per message (the flag put
        # the generated code pairs with the data).
        self._flush(sends)
        notify_visible = env.now + self.tp.wire_time(8)
        for h in sends:
            if san is not None:
                # Close at the flush, then publish the post-flush
                # snapshot with the notify: the receiver's acquire
                # orders the put before its post-sync accesses.
                san.close_window(("put", id(h)), env.rank)
                san.close_window(("put-src", id(h)), env.rank)
                san.publish(("notify", env.rank, h.dest, h.seq), env.rank)
            self.svc.notify(env, env.rank, h.dest, h.seq, notify_visible)

    def sync_wait(self, sends: list[SendHandle],
                  recvs: list[RecvHandle]) -> None:
        env = self.env
        san = env.engine.sanitizer
        for h in recvs:
            self.svc.await_notify(env, h.source, env.rank, h.seq)
            if san is not None:
                san.acquire(("notify", h.source, env.rank, h.seq),
                            env.rank)
