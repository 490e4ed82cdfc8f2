"""``TARGET_COMM_MPI_1SIDE``: MPI_Put + flush/notify synchronization.

Each directive message becomes an ``MPI_Put`` of the send buffer into
the receiver's exposed ``rbuf``. Window collectivity is avoided by the
dynamic-exposure model of :mod:`repro.core.lower.notify`: the receiver
registers its buffer when it reaches the directive; an origin arriving
first waits for the exposure (the access-epoch ordering a real window
imposes). Synchronization flushes the origin's outstanding puts; the
notify protocol around it is :class:`~repro.core.lower.notify.
OneSidedBackend`'s.
"""

from __future__ import annotations

import numpy as np

from repro.core.buffers import array_of
from repro.core.clauses import Target
from repro.core.lower.notify import OneSidedBackend
from repro.errors import TruncationError
from repro.netmodel.base import MPI_1SIDED


class Mpi1sBackend(OneSidedBackend):
    target = Target.MPI_1SIDE

    def __init__(self, env):
        super().__init__(env)
        # Reuse the MPI world's model if one exists so directive targets
        # are compared under identical machine assumptions.
        from repro import mpi
        self.comm = mpi.init(env)
        self.model = self.comm.world.model
        self.tp = self.model.transport(MPI_1SIDED)

    def _put(self, dest, seq, sbuf, rbuf, count, defer):
        env = self.env
        env.engine.check_peer_alive(dest)
        src = array_of(sbuf)
        nbytes = count * src.dtype.itemsize
        target_arr = self.svc.await_exposure(env, env.rank, dest, seq)
        san = env.engine.sanitizer
        if san is not None:
            # The exposure handshake is an acquire: the origin's access
            # epoch orders after the receiver's pre-exposure history.
            san.acquire(("expose", env.rank, dest, seq), env.rank)
        if target_arr.nbytes < nbytes:
            raise TruncationError(
                f"MPI_Put of {nbytes} bytes exceeds the exposed "
                f"{target_arr.nbytes}-byte target buffer")
        post_t0 = env.now
        env.advance(self.tp.send_overhead(nbytes))
        dst_bytes = target_arr.reshape(-1).view(np.uint8)[:nbytes]
        src_bytes = np.ascontiguousarray(src).reshape(-1).view(np.uint8)
        if defer is None:
            dst_bytes[:] = src_bytes[:nbytes]
        else:
            # The put reads the source now; the target-side write waits.
            data = src_bytes[:nbytes].copy()

            def commit():
                dst_bytes[:] = data

            defer(commit)
        faults = env.engine.faults
        extra = (faults.message_delay(self.tp, env.rank, dest, nbytes)
                 if faults is not None else 0.0)
        completion = env.now + self.tp.wire_time(nbytes) + extra
        self.comm.world.stats.count_message(MPI_1SIDED, nbytes)
        profile = env.engine.profile
        if profile is not None:
            profile.add(dest, "message", post_t0, completion,
                        src=env.rank, dst=dest, seq=seq,
                        nbytes=nbytes, transport="mpi1s")
        return completion, target_arr, nbytes

    def _expose(self, source, seq, arr):
        san = self.env.engine.sanitizer
        if san is not None:
            # Publish the receiver's snapshot with the exposure: the
            # origin acquires it before writing the exposed buffer.
            san.publish(("expose", source, self.env.rank, seq),
                        self.env.rank)
        self.svc.expose(self.env, source, self.env.rank, seq, arr)

    def _flush(self, sends):
        self.env.advance(self.model.fence_overhead)
        self.comm.world.stats.count_sync("flush")
        self.env.advance_to(max(h.payload for h in sends))
