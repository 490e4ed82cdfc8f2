"""Communicators and the per-engine MPI world.

Each simulated rank calls :func:`init` once to obtain its ``COMM_WORLD``
handle. A :class:`Comm` is a per-rank view of a :class:`CommGroup`
(ordered member list with a group id); the :class:`World` holds the
shared state — matching queues, the machine model, group registry and
collective helpers — in ``engine.services``.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from typing import Any

import numpy as np

from repro.errors import MPIError
from repro.mpi import matching
from repro.mpi.constants import ANY_SOURCE, ANY_TAG, PROC_NULL
from repro.mpi.datatypes import Datatype, type_from_buffer
from repro.mpi.request import NullRequest, RecvOp, Request, SendOp
from repro.mpi.status import Status
from repro.netmodel.base import MPI_2SIDED, MachineModel
from repro.netmodel.gemini import gemini_model
from repro.sim.engine import Engine
from repro.sim.process import Env
from repro.sim.sync import Rendezvous

_SERVICE_KEY = "mpi_world"


class CommGroup:
    """An ordered set of global ranks with a group id."""

    def __init__(self, gid: int, members: Sequence[int]):
        self.gid = gid
        self.members = tuple(members)
        self._local = {g: i for i, g in enumerate(self.members)}
        if len(self._local) != len(self.members):
            raise MPIError(f"duplicate ranks in group: {members}")

    def local_rank(self, global_rank: int) -> int:
        """Translate a global rank into this group."""
        try:
            return self._local[global_rank]
        except KeyError:
            raise MPIError(
                f"rank {global_rank} is not in group {self.gid}") from None

    def global_rank(self, local_rank: int) -> int:
        """Translate a group-local rank to its global rank."""
        if not 0 <= local_rank < len(self.members):
            raise MPIError(
                f"local rank {local_rank} out of range for group of size "
                f"{len(self.members)}")
        return self.members[local_rank]

    @property
    def size(self) -> int:
        """Number of group members."""
        return len(self.members)


class World:
    """Shared MPI state for one engine."""

    def __init__(self, engine: Engine, model: MachineModel):
        self.engine = engine
        self.model = model
        self.stats = engine.stats
        # Matching queues keyed by (gid, channel, destination global rank).
        self.posted_recvs: dict[tuple[int, str, int], list[RecvOp]] = {}
        self.unexpected: dict[tuple[int, str, int], list[SendOp]] = {}
        # Blocking probes parked until a matching send arrives:
        # key -> list of (source, tag, waiter).
        self.probe_waiters: dict[tuple[int, str, int], list] = {}
        self._gid_counter = itertools.count(1)
        self.world_group = CommGroup(0, range(engine.nprocs))
        # Collective machinery, lazily created per group.
        self._barriers: dict[int, Rendezvous] = {}
        # Split/dup coordination: contributions keyed by (gid, episode).
        self._split_contrib: dict[tuple[int, int], dict[int, tuple]] = {}
        self._split_result: dict[tuple[int, int], dict[int, CommGroup]] = {}
        self._split_seq: dict[tuple[int, int], int] = {}
        # Per-(gid, rank) collective sequence numbers (tags for trees).
        self.coll_seq: dict[tuple[int, int], int] = {}
        # Member-tuple -> CommGroup registry (non-collective groups).
        self._member_groups: dict[tuple[int, ...], CommGroup] = {}

    @classmethod
    def attach(cls, engine: Engine, model: MachineModel | None) -> "World":
        """The engine's world (created by the first caller)."""
        world = engine.services.get(_SERVICE_KEY)
        if world is None:
            world = cls(engine, model or gemini_model())
            engine.services[_SERVICE_KEY] = world
        elif model is not None and model is not world.model:
            raise MPIError(
                "mpi.init called with a different model than the one the "
                "world was created with; pass the model on every rank or "
                "on none")
        return world

    def new_gid(self) -> int:
        """Allocate a fresh group id."""
        return next(self._gid_counter)

    def group_for(self, members: tuple[int, ...]) -> CommGroup:
        """A deterministic group for a fixed member tuple.

        Unlike ``Split`` this is not collective: any member may resolve
        the group at any time (the registry is engine-global, so every
        rank sees the same gid for the same member tuple). Used by the
        collective-directive lowering, where only group members reach
        the directive.
        """
        registry = self._member_groups
        group = registry.get(members)
        if group is None:
            group = CommGroup(self.new_gid(), members)
            registry[members] = group
        return group

    def barrier_for(self, group: CommGroup) -> Rendezvous:
        """The group's reusable barrier (created on first use)."""
        bar = self._barriers.get(group.gid)
        if bar is None:
            bar = Rendezvous(group.members, cost_fn=self.model.barrier_cost,
                             name=f"mpi-barrier-gid{group.gid}")
            self._barriers[group.gid] = bar
        return bar

    def next_coll_tag(self, gid: int, global_rank: int) -> int:
        """Per-rank collective sequence number; equal across ranks when
        collectives are called in the same order (MPI's requirement)."""
        key = (gid, global_rank)
        seq = self.coll_seq.get(key, 0)
        self.coll_seq[key] = seq + 1
        return seq


def init(env: Env, model: MachineModel | None = None) -> "Comm":
    """Return this rank's ``COMM_WORLD`` (creating the world if needed).

    The first caller fixes the machine model (default: the calibrated
    :func:`~repro.netmodel.gemini_model`).
    """
    world = World.attach(env.engine, model)
    return Comm(world, world.world_group, env)


class Comm:
    """A per-rank communicator handle (mpi4py-flavoured API).

    Buffer arguments are numpy arrays, optionally wrapped as
    ``(array, count)`` or ``(array, count, datatype)`` to send a prefix
    or to attach an explicit (e.g. derived) datatype.
    """

    def __init__(self, world: World, group: CommGroup, env: Env):
        self.world = world
        self.group = group
        self.env = env
        self.rank = group.local_rank(env.rank)
        self.size = group.size

    # ------------------------------------------------------------------
    # Helpers

    def _global(self, local_rank: int) -> int:
        return self.group.global_rank(local_rank)

    def _resolve_buffer(self, buf: Any) -> tuple[np.ndarray, int, Datatype]:
        """Normalize a buffer spec to (array, nbytes, datatype)."""
        datatype: Datatype | None = None
        count: int | None = None
        if isinstance(buf, tuple):
            if len(buf) == 2:
                buf, count = buf
            elif len(buf) == 3:
                buf, count, datatype = buf
            else:
                raise MPIError(
                    f"buffer spec must be array, (array, count) or "
                    f"(array, count, datatype); got tuple of {len(buf)}")
        if np.isscalar(buf):
            raise MPIError(
                "buffers must be numpy arrays (scalars are immutable; "
                "wrap them in a 0-d or 1-element array)")
        if not isinstance(buf, np.ndarray):
            raise MPIError(
                f"buffers must be numpy arrays, got {type(buf).__name__}")
        if datatype is None:
            datatype = type_from_buffer(buf)
        datatype.check_usable()
        if count is None:
            nbytes = buf.nbytes
        else:
            if count < 0:
                raise MPIError(f"count must be >= 0, got {count}")
            nbytes = count * datatype.size
            if nbytes > buf.nbytes:
                raise MPIError(
                    f"count {count} x {datatype.size}B exceeds the "
                    f"{buf.nbytes}-byte buffer")
        return np.ascontiguousarray(buf), nbytes, datatype

    def _check_peer(self, rank: int, what: str) -> None:
        if rank != PROC_NULL and not 0 <= rank < self.size:
            raise MPIError(
                f"{what} rank {rank} out of range for communicator of "
                f"size {self.size}")

    def _check_tag(self, tag: int, *, wildcard_ok: bool) -> None:
        if tag == ANY_TAG and wildcard_ok:
            return
        if tag < 0:
            raise MPIError(f"invalid tag {tag}")

    def _fill_status(self, status: Status | None, op: RecvOp) -> None:
        if status is None:
            return
        status.source = self.group.local_rank(op.status_source)
        status.tag = op.status_tag
        status.nbytes = op.status_nbytes

    # ------------------------------------------------------------------
    # Point-to-point: posting

    def _post_send(self, buf: Any, dest: int, tag: int, *,
                   pooled: bool, channel: str = "p2p") -> SendOp | None:
        self._check_peer(dest, "destination")
        self._check_tag(tag, wildcard_ok=False)
        if dest == PROC_NULL:
            return None
        self.env.engine.check_peer_alive(self._global(dest))
        arr, nbytes, _ = self._resolve_buffer(buf)
        data = arr.tobytes()[:nbytes]
        tp = self.world.model.transport(MPI_2SIDED)
        eager = tp.is_eager(nbytes)
        # Sender-side software overhead.
        self.env.advance(tp.send_overhead(nbytes) if eager else tp.o_send)
        if not pooled:
            self.env.advance(self.world.model.request_alloc_overhead)
        op = SendOp(gid=self.group.gid, channel=channel, src=self.env.rank,
                    dst=self._global(dest), tag=tag, data=data,
                    post_time=self.env.now, eager=eager, kind=MPI_2SIDED)
        if eager:
            op.completion = self.env.now  # buffered; sender is done
        matching.post_send(self.world, self.env, op)
        return op

    def _post_recv(self, buf: Any, source: int, tag: int, *,
                   pooled: bool, channel: str = "p2p") -> RecvOp | None:
        if source != ANY_SOURCE:
            self._check_peer(source, "source")
        self._check_tag(tag, wildcard_ok=True)
        if source == PROC_NULL:
            return None
        if source != ANY_SOURCE:
            self.env.engine.check_peer_alive(self._global(source))
        raw = buf[0] if isinstance(buf, tuple) else buf
        if not (isinstance(raw, np.ndarray) and raw.flags.c_contiguous
                and raw.flags.writeable):
            raise MPIError(
                "receive buffers must be writeable C-contiguous numpy "
                "arrays (delivery is in place)")
        arr, nbytes, _ = self._resolve_buffer(buf)
        if not pooled:
            self.env.advance(self.world.model.request_alloc_overhead)
        src_global = (ANY_SOURCE if source == ANY_SOURCE
                      else self._global(source))
        op = RecvOp(gid=self.group.gid, channel=channel,
                    dst=self.env.rank, source=src_global, tag=tag,
                    buf=arr, post_time=self.env.now)
        matching.post_recv(self.world, self.env, op)
        return op

    # ------------------------------------------------------------------
    # Point-to-point: blocking

    def Send(self, buf: Any, dest: int, tag: int = 0) -> None:
        """Blocking send. Eager messages return once buffered; larger
        (rendezvous) messages block until the matching receive is posted
        and the transfer completes."""
        op = self._post_send(buf, dest, tag, pooled=True)
        if op is None:
            return
        if op.completion is None:
            op.waiter = self.env.make_waiter(
                f"MPI_Send to rank {dest} tag {tag} "
                f"({op.nbytes}B, rendezvous)")
            self.env.block()
        else:
            self.env.advance_to(op.completion)

    def Recv(self, buf: Any, source: int = ANY_SOURCE, tag: int = ANY_TAG,
             status: Status | None = None) -> None:
        """Blocking receive into ``buf``."""
        op = self._post_recv(buf, source, tag, pooled=True)
        if op is None:
            return
        if op.completion is None:
            op.waiter = self.env.make_waiter(
                f"MPI_Recv from "
                f"{'ANY' if source == ANY_SOURCE else source} tag "
                f"{'ANY' if tag == ANY_TAG else tag}")
            self.env.block()
        else:
            self.env.advance_to(op.completion)
        op.commit()
        self._fill_status(status, op)

    def Sendrecv_replace(self, buf: np.ndarray, dest: int, source: int,
                         sendtag: int = 0, recvtag: int = ANY_TAG,
                         status: Status | None = None) -> None:
        """Combined send+receive using one buffer (the outgoing data is
        staged internally, as ``MPI_Sendrecv_replace`` does)."""
        if not isinstance(buf, np.ndarray):
            raise MPIError("Sendrecv_replace needs a numpy array")
        staged = np.ascontiguousarray(buf).copy()
        self.Sendrecv(staged, dest, buf, source, sendtag, recvtag,
                      status)

    def Sendrecv(self, sendbuf: Any, dest: int, recvbuf: Any, source: int,
                 sendtag: int = 0, recvtag: int = ANY_TAG,
                 status: Status | None = None) -> None:
        """Combined send+receive; deadlock-free like the real thing."""
        rop = self._post_recv(recvbuf, source, recvtag, pooled=True)
        sop = self._post_send(sendbuf, dest, sendtag, pooled=True)
        for op, what in ((sop, "sendrecv.send"), (rop, "sendrecv.recv")):
            if op is None:
                continue
            if op.completion is None:
                op.waiter = self.env.make_waiter(what)
                self.env.block()
            else:
                self.env.advance_to(op.completion)
        if rop is not None:
            rop.commit()
            self._fill_status(status, rop)

    # ------------------------------------------------------------------
    # Point-to-point: non-blocking

    def Isend(self, buf: Any, dest: int, tag: int = 0, *,
              pooled: bool = False) -> Request:
        """Non-blocking send. ``pooled=True`` is the directive backend's
        path: it skips the user-level request-allocation overhead."""
        op = self._post_send(buf, dest, tag, pooled=pooled)
        if op is None:
            return NullRequest("send", self.env.now)
        return Request(op, "send")

    def Irecv(self, buf: Any, source: int = ANY_SOURCE,
              tag: int = ANY_TAG, *, pooled: bool = False) -> Request:
        """Non-blocking receive."""
        op = self._post_recv(buf, source, tag, pooled=pooled)
        if op is None:
            return NullRequest("recv", self.env.now)
        return Request(op, "recv")

    # ------------------------------------------------------------------
    # Completion

    def _wait_quiet(self, request: Request) -> None:
        """Wait without charging per-call overhead (Waitall's inner loop)."""
        if request.done:
            return
        op = request.op
        if op.completion is None:
            op.waiter = self.env.make_waiter(
                f"completion of {request.side} {op!r}")
            self.env.block()
        else:
            self.env.advance_to(op.completion)
        if isinstance(op, RecvOp):
            op.commit()
        request.done = True

    def Wait(self, request: Request, status: Status | None = None) -> None:
        """Wait for one request; charges the per-call MPI_Wait overhead."""
        self.env.advance(self.world.model.wait_overhead)
        self.world.stats.count_sync("wait")
        self._wait_quiet(request)
        if request.side == "recv" and isinstance(request.op, RecvOp):
            self._fill_status(status, request.op)

    def Waitall(self, requests: Sequence[Request],
                statuses: list[Status] | None = None) -> None:
        """Wait for all requests with one consolidated call.

        Cost: ``waitall_base + per_request * n`` — the synchronization
        the directive translation consolidates adjacent communication
        into (and the paper's Figure 4 ablation measures).
        """
        self.env.advance(self.world.model.waitall_cost(len(requests)))
        self.world.stats.count_sync("waitall")
        for i, req in enumerate(requests):
            self._wait_quiet(req)
            if statuses is not None and req.side == "recv" \
                    and isinstance(req.op, RecvOp):
                self._fill_status(statuses[i], req.op)

    # ------------------------------------------------------------------
    # Persistent operations (MPI_Send_init / MPI_Recv_init / MPI_Start)

    def Send_init(self, buf: Any, dest: int, tag: int = 0):
        """Create an inactive persistent send request.

        Pays the request-allocation overhead once, here; each
        :meth:`Start` is then on the pooled (cheap) path — the
        amortization persistent operations exist for.
        """
        from repro.mpi.request import PersistentRequest
        self._check_peer(dest, "destination")
        self._check_tag(tag, wildcard_ok=False)
        self.env.advance(self.world.model.request_alloc_overhead)
        return PersistentRequest(self, "send", buf, dest, tag)

    def Recv_init(self, buf: Any, source: int, tag: int = 0):
        """Create an inactive persistent receive request."""
        from repro.mpi.request import PersistentRequest
        if source != ANY_SOURCE:
            self._check_peer(source, "source")
        self._check_tag(tag, wildcard_ok=True)
        self.env.advance(self.world.model.request_alloc_overhead)
        return PersistentRequest(self, "recv", buf, source, tag)

    def Start(self, preq) -> Request:
        """Activate a persistent request; returns the episode's Request
        (also available as ``preq.active``)."""
        from repro.mpi.request import PersistentRequest
        if not isinstance(preq, PersistentRequest):
            raise MPIError("Start needs a persistent request")
        if preq.active is not None and not preq.active.done:
            raise MPIError(
                "persistent request started while still active")
        if preq.side == "send":
            req = self.Isend(preq.buf, preq.peer, preq.tag, pooled=True)
        else:
            req = self.Irecv(preq.buf, preq.peer, preq.tag, pooled=True)
        preq.active = req
        return req

    def Waitany(self, requests: Sequence[Request],
                status: Status | None = None) -> int:
        """Wait for (at least) one request; returns its index.

        Prefers an already-complete request; otherwise waits for the
        earliest completion among those already matched, else blocks on
        the first pending one (a deterministic simplification of MPI's
        "some request" semantics).
        """
        if not requests:
            raise MPIError("Waitany needs at least one request")
        self.env.advance(self.world.model.wait_overhead)
        self.world.stats.count_sync("waitany")
        live = [(i, r) for i, r in enumerate(requests) if not r.done]
        if not live:
            raise MPIError("Waitany: all requests already consumed")
        ready = [(r.op.completion, i) for i, r in live
                 if r.op.completion is not None]
        if ready:
            _, idx = min(ready)
        else:
            idx = live[0][0]
        req = requests[idx]
        self._wait_quiet(req)
        if req.side == "recv" and isinstance(req.op, RecvOp):
            self._fill_status(status, req.op)
        return idx

    def Testall(self, requests: Sequence[Request]) -> bool:
        """True (consuming the requests) iff all are complete now."""
        self.env.advance(self.world.model.wait_overhead)
        self.world.stats.count_sync("testall")
        now = self.env.now
        if all(r.done or (r.op.completion is not None
                          and r.op.completion <= now)
               for r in requests):
            for r in requests:
                self._wait_quiet(r)
            return True
        self.env.yield_()
        return False

    def Test(self, request: Request) -> bool:
        """Non-blocking completion check; polls cost the wait overhead."""
        self.env.advance(self.world.model.wait_overhead)
        self.world.stats.count_sync("test")
        op = request.op
        if op.completion is not None and op.completion <= self.env.now:
            if isinstance(op, RecvOp):
                op.commit()
            request.done = True
            return True
        self.env.yield_()
        return False

    # ------------------------------------------------------------------
    # Probe

    def Probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
              status: Status | None = None) -> None:
        """Blocking probe: returns once a matching message is pending
        (without receiving it). The classic dynamic-size idiom::

            st = mpi.Status()
            comm.Probe(source, tag, st)
            buf = np.zeros(st.Get_count(mpi.DOUBLE))
            comm.Recv(buf, st.source, st.tag)
        """
        src_global = (ANY_SOURCE if source == ANY_SOURCE
                      else self._global(source))
        s = matching.probe_unexpected(
            self.world, self.group.gid, "p2p", self.env.rank,
            src_global, tag)
        if s is None:
            waiter = self.env.make_waiter(
                f"MPI_Probe source="
                f"{'ANY' if source == ANY_SOURCE else source} tag="
                f"{'ANY' if tag == ANY_TAG else tag}")
            key = (self.group.gid, "p2p", self.env.rank)
            self.world.probe_waiters.setdefault(key, []).append(
                (src_global, tag, waiter))
            got = self.env.block()
            s = got.payload
        else:
            # Cover the message's arrival time: a probe cannot report a
            # message before it exists on the wire.
            tp = self.world.model.transport(MPI_2SIDED)
            self.env.advance_to(s.post_time + tp.wire_time(s.nbytes))
        if status is not None:
            status.source = self.group.local_rank(s.src)
            status.tag = s.tag
            status.nbytes = s.nbytes

    def Iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
               status: Status | None = None) -> bool:
        """True if a matching message is in the unexpected queue."""
        src_global = (ANY_SOURCE if source == ANY_SOURCE
                      else self._global(source))
        s = matching.probe_unexpected(
            self.world, self.group.gid, "p2p", self.env.rank,
            src_global, tag)
        if s is None:
            self.env.yield_()
            return False
        if status is not None:
            status.source = self.group.local_rank(s.src)
            status.tag = s.tag
            status.nbytes = s.nbytes
        return True

    # ------------------------------------------------------------------
    # Communicator management

    def Dup(self) -> "Comm":
        """Collective duplicate: same members, fresh matching space."""
        return self.Split(color=0, key=self.rank)

    def Split(self, color: int, key: int = 0) -> "Comm":
        """Collective split into sub-communicators by color, ordered by
        (key, rank). All members must call it (it synchronizes)."""
        world, group = self.world, self.group
        episode = world._split_seq.get((group.gid, self.env.rank), 0)
        world._split_seq[(group.gid, self.env.rank)] = episode + 1
        ckey = (group.gid, episode)
        contrib = world._split_contrib.setdefault(ckey, {})
        contrib[self.rank] = (color, key)
        world.barrier_for(group).join(self.env)
        if ckey not in world._split_result:
            # First rank past the barrier computes the partition once.
            by_color: dict[int, list[tuple[int, int, int]]] = {}
            for local, (c, k) in contrib.items():
                by_color.setdefault(c, []).append(
                    (k, local, group.global_rank(local)))
            result: dict[int, CommGroup] = {}
            for c in sorted(by_color):
                members = [g for _, _, g in sorted(by_color[c])]
                result[c] = CommGroup(world.new_gid(), members)
            world._split_result[ckey] = result
            del world._split_contrib[ckey]
        new_group = world._split_result[ckey][color]
        return Comm(world, new_group, self.env)

    # ------------------------------------------------------------------
    # Collectives live in collectives.py; bound here for a familiar API.

    def Barrier(self) -> None:
        """Synchronize all members (see :mod:`repro.mpi.collectives`)."""
        from repro.mpi.collectives import barrier
        barrier(self)

    def Bcast(self, buf: Any, root: int = 0) -> None:
        """Binomial-tree broadcast from ``root``, in place."""
        from repro.mpi.collectives import bcast
        bcast(self, buf, root)

    def Reduce(self, sendbuf: Any, recvbuf: Any, op: str = "sum",
               root: int = 0) -> None:
        """Binomial-tree reduction to ``root``."""
        from repro.mpi.collectives import reduce
        reduce(self, sendbuf, recvbuf, op, root)

    def Allreduce(self, sendbuf: Any, recvbuf: Any, op: str = "sum") -> None:
        """Reduction whose result lands on every member."""
        from repro.mpi.collectives import allreduce
        allreduce(self, sendbuf, recvbuf, op)

    def Gather(self, sendbuf: Any, recvbuf: Any, root: int = 0) -> None:
        """Collect each member's buffer into the root's slots."""
        from repro.mpi.collectives import gather
        gather(self, sendbuf, recvbuf, root)

    def Scatter(self, sendbuf: Any, recvbuf: Any, root: int = 0) -> None:
        """Distribute slot ``i`` of the root's buffer to rank ``i``."""
        from repro.mpi.collectives import scatter
        scatter(self, sendbuf, recvbuf, root)

    def Gatherv(self, sendbuf: Any, recvbuf: Any,
                counts: list[int] | None, root: int = 0) -> None:
        """Variable-count gather (``MPI_Gatherv``)."""
        from repro.mpi.collectives import gatherv
        gatherv(self, sendbuf, recvbuf, counts, root)

    def Scatterv(self, sendbuf: Any, counts: list[int] | None,
                 recvbuf: Any, root: int = 0) -> None:
        """Variable-count scatter (``MPI_Scatterv``)."""
        from repro.mpi.collectives import scatterv
        scatterv(self, sendbuf, counts, recvbuf, root)

    def Allgather(self, sendbuf: Any, recvbuf: Any) -> None:
        """Gather whose result lands on every member."""
        from repro.mpi.collectives import allgather
        allgather(self, sendbuf, recvbuf)

    def Alltoall(self, sendbuf: Any, recvbuf: Any) -> None:
        """Pairwise block exchange among all members."""
        from repro.mpi.collectives import alltoall
        alltoall(self, sendbuf, recvbuf)

    def __repr__(self) -> str:
        return (f"<Comm gid={self.group.gid} rank={self.rank}/"
                f"{self.size}>")
