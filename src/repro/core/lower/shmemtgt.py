"""``TARGET_COMM_SHMEM``: typed shmem_put + quiet/notify.

Each directive message becomes a typed ``shmem_put`` whose variant is
chosen by the buffers' element storage size — the call-name/type
matching the paper's compiler performs ("data type selection is tightly
coupled with the communication call, in that the data type is embedded
in the name of the library call", Section III-A). The receive buffer
must be a symmetric data object; :func:`repro.core.buffers.resolve`
enforced that before lowering.

Synchronization: the origin's ``shmem_quiet`` completes its outstanding
puts, followed by one flag notify per message; receivers wait on their
notifies (the ``shmem_wait_until`` idiom of generated code).
"""

from __future__ import annotations

from repro import shmem
from repro.core.buffers import array_of
from repro.core.clauses import Target
from repro.core.lower.base import Backend, RecvHandle, SendHandle
from repro.core.lower.notify import ExposureService
from repro.errors import LoweringError
from repro.shmem.symheap import SymArray


class ShmemBackend(Backend):
    target = Target.SHMEM

    def __init__(self, env):
        super().__init__(env)
        self.sh = shmem.init(env)
        self.svc = ExposureService.attach(env.engine)

    @staticmethod
    def _put_spec(data) -> tuple[int | None, str]:
        """The size-matched typed-put call for a buffer (compile-time
        matching): ``(element size to enforce, call name)``."""
        size = data.dtype.itemsize
        if size == 8:
            return 8, ("shmem_double_put" if data.dtype.kind == "f"
                       else "shmem_put64")
        if size == 4:
            return 4, ("shmem_float_put" if data.dtype.kind == "f"
                       else "shmem_put32")
        # Composite or odd-width payloads move as raw bytes (putmem).
        return None, "shmem_putmem"

    def _typed_put(self, rbuf: SymArray, data, dest: int) -> float:
        """Dispatch to the size-matched typed put (compile-time matching)."""
        elem_size, name = self._put_spec(data)
        return self.sh._put(rbuf, data, dest, 0, elem_size, name)

    def post_send(self, dest: int, sbuf, rbuf, count: int) -> SendHandle:
        if not isinstance(rbuf, SymArray):
            raise LoweringError(
                "SHMEM target requires symmetric receive buffers")
        src = array_of(sbuf).reshape(-1)[:count]
        seq = self.svc.next_send_seq(self.env.rank, dest)
        faults = self.env.engine.faults
        if faults is not None and faults.deferred_delivery:
            # Deferred delivery: the typed put's target-side write is
            # parked until the receiver's sync consumes the notify.
            elem_size, name = self._put_spec(src)
            completion, commit = self.sh.put_staged(
                rbuf, src, dest, elem_size=elem_size, name=name)
            self.svc.stage(self.env.rank, dest, seq, commit)
        else:
            completion = self._typed_put(rbuf, src, dest)
        handle = SendHandle(backend=self, dest=dest, seq=seq,
                            nbytes=count * src.dtype.itemsize,
                            payload=completion)
        san = self.env.engine.sanitizer
        if san is not None:
            rank = self.env.rank
            # The put writes the destination PE's mirror directly; both
            # that write and the source read stay live until the
            # origin's quiet (same-origin puts to one address are
            # unordered without it — the OpenSHMEM memory model).
            san.open_window(
                ("put", id(handle)), rank, rbuf.mirror_on(dest), 0,
                handle.nbytes, "write",
                f"the shmem put of message #{seq} into PE {dest}'s "
                "symmetric buffer")
            san.open_window(
                ("put-src", id(handle)), rank, array_of(sbuf), 0,
                handle.nbytes, "read",
                f"the shmem put of message #{seq} to PE {dest} "
                "(source read)")
        return handle

    def post_recv(self, source: int, rbuf, count: int) -> RecvHandle:
        self.env.engine.check_peer_alive(source)
        arr = array_of(rbuf)
        seq = self.svc.next_recv_seq(source, self.env.rank)
        return RecvHandle(backend=self, source=source, seq=seq,
                          nbytes=count * arr.dtype.itemsize)

    def sync_publish(self, sends: list[SendHandle]) -> None:
        env = self.env
        san = env.engine.sanitizer
        if sends:
            self.sh.quiet()
            notify_visible = env.now + self.sh._tp.wire_time(8)
            for h in sends:
                if san is not None:
                    # quiet completes this origin's puts; the notify
                    # publishes the post-quiet snapshot the receiver
                    # acquires below.
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
