"""``TARGET_COMM_MPI_1SIDE``: MPI_Put + flush/notify synchronization.

Each directive message becomes an ``MPI_Put`` of the send buffer into
the receiver's exposed ``rbuf``. Window collectivity is avoided by the
dynamic-exposure model of :mod:`repro.core.lower.notify`: the receiver
registers its buffer when it reaches the directive; an origin arriving
first waits for the exposure (the access-epoch ordering a real window
imposes). Synchronization flushes the origin's outstanding puts and
posts one notify per message; the receiver's synchronization waits for
the notifies of everything it expects.
"""

from __future__ import annotations

import numpy as np

from repro.core.buffers import array_of
from repro.core.clauses import Target
from repro.core.lower.base import Backend, RecvHandle, SendHandle
from repro.core.lower.notify import ExposureService
from repro.errors import TruncationError
from repro.netmodel.base import MPI_1SIDED


class Mpi1sBackend(Backend):
    target = Target.MPI_1SIDE

    def __init__(self, env):
        super().__init__(env)
        # Reuse the MPI world's model if one exists so directive targets
        # are compared under identical machine assumptions.
        from repro import mpi
        self.comm = mpi.init(env)
        self.model = self.comm.world.model
        self.tp = self.model.transport(MPI_1SIDED)
        self.svc = ExposureService.attach(env.engine)

    def post_send(self, dest: int, sbuf, rbuf, count: int) -> SendHandle:
        self.env.engine.check_peer_alive(dest)
        src = array_of(sbuf)
        nbytes = count * src.dtype.itemsize
        seq = self.svc.next_send_seq(self.env.rank, dest)
        target_arr = self.svc.await_exposure(self.env, self.env.rank,
                                             dest, seq)
        san = self.env.engine.sanitizer
        if san is not None:
            # The exposure handshake is an acquire: the origin's access
            # epoch orders after the receiver's pre-exposure history.
            san.acquire(("expose", self.env.rank, dest, seq),
                        self.env.rank)
        if target_arr.nbytes < nbytes:
            raise TruncationError(
                f"MPI_Put of {nbytes} bytes exceeds the exposed "
                f"{target_arr.nbytes}-byte target buffer")
        post_t0 = self.env.now
        self.env.advance(self.tp.send_overhead(nbytes))
        dst_bytes = target_arr.reshape(-1).view(np.uint8)
        src_bytes = np.ascontiguousarray(src).reshape(-1).view(np.uint8)
        faults = self.env.engine.faults
        if faults is not None and faults.deferred_delivery:
            # The put reads the source now, but the target-side write is
            # parked until the receiver's sync consumes the notify.
            data = src_bytes[:nbytes].copy()

            def commit(dst_bytes=dst_bytes, data=data, nbytes=nbytes):
                dst_bytes[:nbytes] = data

            self.svc.stage(self.env.rank, dest, seq, commit)
        else:
            dst_bytes[:nbytes] = src_bytes[:nbytes]
        extra = (faults.message_delay(self.tp, self.env.rank, dest, nbytes)
                 if faults is not None else 0.0)
        completion = self.env.now + self.tp.wire_time(nbytes) + extra
        self.comm.world.stats.count_message(MPI_1SIDED, nbytes)
        profile = self.env.engine.profile
        if profile is not None:
            profile.add(dest, "message", post_t0, completion,
                        src=self.env.rank, dst=dest, seq=seq,
                        nbytes=nbytes, transport="mpi1s")
        handle = SendHandle(backend=self, dest=dest, seq=seq,
                            nbytes=nbytes, payload=completion)
        if san is not None:
            rank = self.env.rank
            # The put's target-side write and source-side read are both
            # live until the origin's flush (the directive contract: no
            # buffer may be touched before the guaranteeing sync).
            san.open_window(
                ("put", id(handle)), rank, target_arr, 0, nbytes,
                "write",
                f"the put of message #{seq} into rank {dest}'s buffer")
            san.open_window(
                ("put-src", id(handle)), rank, src, 0, nbytes, "read",
                f"the put of message #{seq} to rank {dest} (source "
                "read)")
        return handle

    def post_recv(self, source: int, rbuf, count: int) -> RecvHandle:
        self.env.engine.check_peer_alive(source)
        arr = array_of(rbuf)
        seq = self.svc.next_recv_seq(source, self.env.rank)
        san = self.env.engine.sanitizer
        if san is not None:
            # Publish the receiver's snapshot with the exposure: the
            # origin acquires it before writing the exposed buffer.
            san.publish(("expose", source, self.env.rank, seq),
                        self.env.rank)
        self.svc.expose(self.env, source, self.env.rank, seq, arr)
        return RecvHandle(backend=self, source=source, seq=seq,
                          nbytes=count * arr.dtype.itemsize)

    def sync_publish(self, sends: list[SendHandle]) -> None:
        env = self.env
        san = env.engine.sanitizer
        if sends:
            # Local flush of the access epoch, then one notify per
            # message (the flag put the generated code pairs with data).
            env.advance(self.model.fence_overhead)
            self.comm.world.stats.count_sync("flush")
            env.advance_to(max(h.payload for h in sends))
            notify_visible = env.now + self.tp.wire_time(8)
            for h in sends:
                if san is not None:
                    # Close at the flush, then publish the post-flush
                    # snapshot with the notify: the receiver's acquire
                    # orders the put before its post-sync accesses.
                    san.close_window(("put", id(h)), env.rank)
                    san.close_window(("put-src", id(h)), env.rank)
                    san.publish(("notify", env.rank, h.dest, h.seq),
                                env.rank)
                self.svc.notify(env, env.rank, h.dest, h.seq,
                                notify_visible)

    def sync_wait(self, sends: list[SendHandle],
                  recvs: list[RecvHandle]) -> None:
        env = self.env
        san = env.engine.sanitizer
        for h in recvs:
            self.svc.await_notify(env, h.source, env.rank, h.seq)
            if san is not None:
                san.acquire(("notify", h.source, env.rank, h.seq),
                            env.rank)
