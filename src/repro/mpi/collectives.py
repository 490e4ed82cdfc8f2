"""Collectives built from real point-to-point trees.

Rather than charging an opaque analytic cost, each collective executes
an actual algorithm (binomial trees, pairwise exchange) over the
two-sided machinery, so its virtual cost *emerges* from the p2p model —
and its data movement is real and testable. Collective traffic flows on
a separate matching channel (``"coll"``) so it can never match user
wildcard receives, with per-(group, rank) sequence numbers as tags
(legal because MPI requires all members to call collectives in the same
order).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.errors import MPIError
from repro.mpi.comm import Comm

_OPS = {
    "sum": np.add,
    "prod": np.multiply,
    "max": np.maximum,
    "min": np.minimum,
}


def _as_array(buf: Any, what: str) -> np.ndarray:
    if not isinstance(buf, np.ndarray):
        raise MPIError(f"{what} must be a numpy array, "
                       f"got {type(buf).__name__}")
    return buf


def _coll_send(comm: Comm, buf: np.ndarray, dest: int, tag: int):
    return comm._post_send(buf, dest, tag, pooled=True, channel="coll")


def _coll_recv_blocking(comm: Comm, buf: np.ndarray, source: int,
                        tag: int) -> None:
    op = comm._post_recv(buf, source, tag, pooled=True, channel="coll")
    if op.completion is None:
        op.waiter = comm.env.make_waiter(
            f"collective recv from {source} tag {tag}")
        comm.env.block()
    else:
        comm.env.advance_to(op.completion)
    op.commit()


def _coll_send_blocking(comm: Comm, buf: np.ndarray, dest: int,
                        tag: int) -> None:
    op = _coll_send(comm, buf, dest, tag)
    if op.completion is None:
        op.waiter = comm.env.make_waiter(
            f"collective send to {dest} tag {tag}")
        comm.env.block()
    else:
        comm.env.advance_to(op.completion)


def barrier(comm: Comm) -> None:
    """Synchronize all members (dissemination-barrier cost model)."""
    comm.world.stats.count_sync("barrier")
    comm.world.barrier_for(comm.group).join(comm.env)


def bcast(comm: Comm, buf: np.ndarray, root: int = 0) -> None:
    """Binomial-tree broadcast of ``buf`` from ``root``, in place."""
    buf = _as_array(buf, "bcast buffer")
    size, rank = comm.size, comm.rank
    if not 0 <= root < size:
        raise MPIError(f"invalid root {root}")
    tag = comm.world.next_coll_tag(comm.group.gid, comm.env.rank)
    # Rotate so the root is virtual rank 0, then run the standard
    # binomial tree: receive once from the parent (the lowest set bit),
    # forward to children at every lower bit position.
    vrank = (rank - root) % size
    mask = 1
    while mask < size:
        if vrank & mask:
            parent = ((vrank ^ mask) + root) % size
            _coll_recv_blocking(comm, buf, parent, tag)
            break
        mask <<= 1
    mask >>= 1
    while mask > 0:
        if vrank + mask < size:
            child = (vrank + mask + root) % size
            _coll_send_blocking(comm, buf, child, tag)
        mask >>= 1


def reduce(comm: Comm, sendbuf: np.ndarray, recvbuf: np.ndarray | None,
           op: str = "sum", root: int = 0) -> None:
    """Binomial-tree reduction to ``root``.

    ``recvbuf`` is required (and written) only at the root.
    """
    sendbuf = _as_array(sendbuf, "reduce send buffer")
    if op not in _OPS:
        raise MPIError(f"unknown reduction op {op!r}; "
                       f"choose from {sorted(_OPS)}")
    size, rank = comm.size, comm.rank
    if not 0 <= root < size:
        raise MPIError(f"invalid root {root}")
    tag = comm.world.next_coll_tag(comm.group.gid, comm.env.rank)
    vrank = (rank - root) % size
    acc = sendbuf.copy()
    tmp = np.empty_like(sendbuf)
    mask = 1
    while mask < size:
        if vrank & mask:
            parent = ((vrank & ~mask) + root) % size
            _coll_send_blocking(comm, acc, parent, tag)
            break
        child = vrank | mask
        if child < size:
            _coll_recv_blocking(comm, tmp, (child + root) % size, tag)
            acc = _OPS[op](acc, tmp)
        mask <<= 1
    if rank == root:
        if recvbuf is None:
            raise MPIError("reduce root needs a recvbuf")
        recvbuf = _as_array(recvbuf, "reduce recv buffer")
        recvbuf[...] = acc.reshape(recvbuf.shape)


def allreduce(comm: Comm, sendbuf: np.ndarray, recvbuf: np.ndarray,
              op: str = "sum") -> None:
    """Reduce to rank 0 then broadcast (reduce+bcast composition)."""
    recvbuf = _as_array(recvbuf, "allreduce recv buffer")
    if comm.rank == 0:
        reduce(comm, sendbuf, recvbuf, op, root=0)
    else:
        reduce(comm, sendbuf, None, op, root=0)
    bcast(comm, recvbuf, root=0)


def gather(comm: Comm, sendbuf: np.ndarray, recvbuf: np.ndarray | None,
           root: int = 0) -> None:
    """Linear gather: each rank's contribution lands at its slot of the
    root's ``recvbuf`` (shape ``(size,) + sendbuf.shape``)."""
    sendbuf = _as_array(sendbuf, "gather send buffer")
    size, rank = comm.size, comm.rank
    if not 0 <= root < size:
        raise MPIError(f"invalid root {root}")
    tag = comm.world.next_coll_tag(comm.group.gid, comm.env.rank)
    if rank == root:
        if recvbuf is None:
            raise MPIError("gather root needs a recvbuf")
        recvbuf = _as_array(recvbuf, "gather recv buffer")
        if recvbuf.shape[0] != size:
            raise MPIError(
                f"gather recvbuf first dimension must be {size}, "
                f"got {recvbuf.shape}")
        recvbuf[root][...] = sendbuf.reshape(recvbuf[root].shape)
        for peer in range(size):
            if peer != root:
                _coll_recv_blocking(comm, recvbuf[peer], peer, tag)
    else:
        _coll_send_blocking(comm, sendbuf, root, tag)


def scatter(comm: Comm, sendbuf: np.ndarray | None, recvbuf: np.ndarray,
            root: int = 0) -> None:
    """Linear scatter: slot ``i`` of the root's ``sendbuf`` to rank i."""
    recvbuf = _as_array(recvbuf, "scatter recv buffer")
    size, rank = comm.size, comm.rank
    if not 0 <= root < size:
        raise MPIError(f"invalid root {root}")
    tag = comm.world.next_coll_tag(comm.group.gid, comm.env.rank)
    if rank == root:
        if sendbuf is None:
            raise MPIError("scatter root needs a sendbuf")
        sendbuf = _as_array(sendbuf, "scatter send buffer")
        if sendbuf.shape[0] != size:
            raise MPIError(
                f"scatter sendbuf first dimension must be {size}, "
                f"got {sendbuf.shape}")
        recvbuf[...] = sendbuf[root].reshape(recvbuf.shape)
        for peer in range(size):
            if peer != root:
                _coll_send_blocking(comm, sendbuf[peer], peer, tag)
    else:
        _coll_recv_blocking(comm, recvbuf, root, tag)


def gatherv(comm: Comm, sendbuf: np.ndarray,
            recvbuf: np.ndarray | None, counts: list[int] | None,
            root: int = 0) -> None:
    """Variable-count gather (``MPI_Gatherv``).

    Rank ``i`` contributes ``counts[i]`` elements; the root's flat
    ``recvbuf`` receives them back-to-back at the standard
    displacements (prefix sums of ``counts``).
    """
    sendbuf = _as_array(sendbuf, "gatherv send buffer")
    size, rank = comm.size, comm.rank
    if not 0 <= root < size:
        raise MPIError(f"invalid root {root}")
    tag = comm.world.next_coll_tag(comm.group.gid, comm.env.rank)
    if rank == root:
        if recvbuf is None or counts is None:
            raise MPIError("gatherv root needs recvbuf and counts")
        recvbuf = _as_array(recvbuf, "gatherv recv buffer")
        if len(counts) != size:
            raise MPIError(
                f"gatherv needs {size} counts, got {len(counts)}")
        if sum(counts) > recvbuf.size:
            raise MPIError(
                f"gatherv counts sum to {sum(counts)}, recvbuf holds "
                f"{recvbuf.size}")
        flat = recvbuf.reshape(-1)
        offset = 0
        for peer in range(size):
            n = counts[peer]
            if peer == root:
                flat[offset:offset + n] = sendbuf.reshape(-1)[:n]
            elif n > 0:
                _coll_recv_blocking(comm, flat[offset:offset + n],
                                    peer, tag)
            offset += n
    else:
        if sendbuf.size > 0:
            _coll_send_blocking(comm, np.ascontiguousarray(
                sendbuf.reshape(-1)), root, tag)


def scatterv(comm: Comm, sendbuf: np.ndarray | None,
             counts: list[int] | None, recvbuf: np.ndarray,
             root: int = 0) -> None:
    """Variable-count scatter (``MPI_Scatterv``)."""
    recvbuf = _as_array(recvbuf, "scatterv recv buffer")
    size, rank = comm.size, comm.rank
    if not 0 <= root < size:
        raise MPIError(f"invalid root {root}")
    tag = comm.world.next_coll_tag(comm.group.gid, comm.env.rank)
    if rank == root:
        if sendbuf is None or counts is None:
            raise MPIError("scatterv root needs sendbuf and counts")
        sendbuf = _as_array(sendbuf, "scatterv send buffer")
        if len(counts) != size:
            raise MPIError(
                f"scatterv needs {size} counts, got {len(counts)}")
        flat = sendbuf.reshape(-1)
        offset = 0
        for peer in range(size):
            n = counts[peer]
            chunk = flat[offset:offset + n]
            if peer == root:
                recvbuf.reshape(-1)[:n] = chunk
            elif n > 0:
                _coll_send_blocking(comm, np.ascontiguousarray(chunk),
                                    peer, tag)
            offset += n
    else:
        if recvbuf.size > 0:
            _coll_recv_blocking(comm, recvbuf.reshape(-1), root, tag)


def allgather(comm: Comm, sendbuf: np.ndarray, recvbuf: np.ndarray) -> None:
    """Gather to rank 0, then broadcast the assembled buffer."""
    recvbuf = _as_array(recvbuf, "allgather recv buffer")
    gather(comm, sendbuf, recvbuf if comm.rank == 0 else None, root=0)
    bcast(comm, recvbuf, root=0)


def alltoall(comm: Comm, sendbuf: np.ndarray, recvbuf: np.ndarray) -> None:
    """Pairwise-exchange all-to-all.

    ``sendbuf``/``recvbuf`` have shape ``(size,) + block``; slot ``j`` of
    this rank's sendbuf goes to slot ``rank`` of rank ``j``'s recvbuf.
    """
    sendbuf = _as_array(sendbuf, "alltoall send buffer")
    recvbuf = _as_array(recvbuf, "alltoall recv buffer")
    size, rank = comm.size, comm.rank
    if sendbuf.shape[0] != size or recvbuf.shape[0] != size:
        raise MPIError(
            f"alltoall buffers must have first dimension {size}")
    tag = comm.world.next_coll_tag(comm.group.gid, comm.env.rank)
    recvbuf[rank][...] = sendbuf[rank]
    reqs = []
    for peer in range(size):
        if peer == rank:
            continue
        op = comm._post_recv(recvbuf[peer], peer, tag, pooled=True,
                             channel="coll")
        reqs.append(op)
    for shift in range(1, size):
        peer = (rank + shift) % size
        sop = _coll_send(comm, sendbuf[peer], peer, tag)
        if sop.completion is None:
            sop.waiter = comm.env.make_waiter(f"alltoall send to {peer}")
            comm.env.block()
        else:
            comm.env.advance_to(sop.completion)
    for op in reqs:
        if op.completion is None:
            op.waiter = comm.env.make_waiter("alltoall recv")
            comm.env.block()
        else:
            comm.env.advance_to(op.completion)
