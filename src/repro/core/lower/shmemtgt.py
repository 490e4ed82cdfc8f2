"""``TARGET_COMM_SHMEM``: typed shmem_put + quiet/notify.

Each directive message becomes a typed ``shmem_put`` whose variant is
chosen by the buffers' element storage size — the call-name/type
matching the paper's compiler performs ("data type selection is tightly
coupled with the communication call, in that the data type is embedded
in the name of the library call", Section III-A). The receive buffer
must be a symmetric data object; :func:`repro.core.buffers.resolve`
enforced that before lowering.

Synchronization: the origin's ``shmem_quiet`` completes its outstanding
puts; the notify protocol around it (one flag notify per message, the
receiver waiting on its notifies — the ``shmem_wait_until`` idiom of
generated code) is :class:`~repro.core.lower.notify.OneSidedBackend`'s.
"""

from __future__ import annotations

from repro import shmem
from repro.core.buffers import array_of
from repro.core.clauses import Target
from repro.core.lower.notify import OneSidedBackend
from repro.errors import LoweringError
from repro.shmem.symheap import SymArray


class ShmemBackend(OneSidedBackend):
    target = Target.SHMEM
    put_name = "shmem put"
    peer = "PE"
    dest_buffer = "symmetric buffer"

    def __init__(self, env):
        super().__init__(env)
        self.sh = shmem.init(env)
        self.tp = self.sh._tp

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

    def _put(self, dest, seq, sbuf, rbuf, count, defer):
        if not isinstance(rbuf, SymArray):
            raise LoweringError(
                "SHMEM target requires symmetric receive buffers")
        src = array_of(sbuf).reshape(-1)[:count]
        elem_size, name = self._put_spec(src)
        completion = self.sh._put(rbuf, src, dest, 0, elem_size, name,
                                  defer)
        # The put writes the destination PE's mirror directly; same-
        # origin puts to one address are unordered until the quiet (the
        # OpenSHMEM memory model).
        return completion, rbuf.mirror_on(dest), count * src.dtype.itemsize

    def _flush(self, sends):
        self.sh.quiet()
