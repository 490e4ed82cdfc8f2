"""Lowering: directives -> executable communication on a chosen target.

Each :class:`~repro.core.lower.base.Backend` implements the translation
of one ``target`` keyword:

* :class:`~repro.core.lower.mpi2s.Mpi2sBackend` —
  ``TARGET_COMM_MPI_2SIDE`` (default): non-blocking ``MPI_Isend`` /
  ``MPI_Irecv`` pairs, consolidated into one ``MPI_Waitall``;
* :class:`~repro.core.lower.mpi1s.Mpi1sBackend` —
  ``TARGET_COMM_MPI_1SIDE``: ``MPI_Put`` into dynamically exposed
  target memory, flushed at synchronization points;
* :class:`~repro.core.lower.shmemtgt.ShmemBackend` —
  ``TARGET_COMM_SHMEM``: size-matched typed ``shmem_put`` calls into
  symmetric buffers, completed by ``shmem_quiet``.

Both one-sided backends share the put–flush–notify protocol of
:class:`~repro.core.lower.notify.OneSidedBackend`.
"""

from repro.core.lower.base import Backend, RecvHandle, SendHandle, get_backend

__all__ = ["Backend", "RecvHandle", "SendHandle", "get_backend"]
