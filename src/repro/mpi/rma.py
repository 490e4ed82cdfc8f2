"""One-sided communication: RMA windows (``MPI_Win``).

Supports the paper's ``TARGET_COMM_MPI_1SIDE`` translation: ``MPI_Put``
into a window plus fence (active-target) or lock/unlock (passive-target)
synchronization.

Modelling notes: a put's payload is written into the target memory at
call time, but its *completion time* (when the data is guaranteed
visible) is ``post + wire_time``; synchronization calls advance the
clock to cover all pending completions. Programs that read window
memory without an intervening synchronization would observe data
"early" — exactly the class of race that is erroneous under the MPI RMA
memory model, so correct programs cannot tell the difference.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.errors import MPIError
from repro.mpi.comm import Comm
from repro.netmodel.base import MPI_1SIDED
from repro.sim.sync import Rendezvous


class Win:
    """An RMA window over one array per member rank.

    Create collectively with :meth:`create`; every member passes its
    local exposure array (same dtype; sizes may differ, as in MPI).
    """

    _SERVICE_KEY = "mpi_rma_windows"

    def __init__(self, comm: Comm, shared: dict[str, Any], wid: int):
        self.comm = comm
        self._shared = shared
        self.wid = wid
        self._lock_target: int | None = None
        self._lock_pending: list[float] = []
        # PSCW state (generalized active target).
        self._access_group: list[int] | None = None
        self._access_pending: dict[int, list[float]] = {}
        self._exposure_group: list[int] | None = None

    # ------------------------------------------------------------------

    @classmethod
    def create(cls, comm: Comm, local: np.ndarray) -> "Win":
        """Collective window creation exposing ``local``."""
        if not isinstance(local, np.ndarray) or not local.flags.c_contiguous:
            raise MPIError("window memory must be a C-contiguous numpy array")
        engine = comm.env.engine
        registry = engine.services.setdefault(cls._SERVICE_KEY, {})
        # One shared record per (group, per-rank creation sequence).
        seq_key = ("winseq", comm.group.gid, comm.env.rank)
        seq = registry.get(seq_key, 0)
        registry[seq_key] = seq + 1
        key = ("win", comm.group.gid, seq)
        shared = registry.get(key)
        if shared is None:
            shared = {
                "memory": {},          # global rank -> exposure array
                "pending": [],         # completion times, current epoch
                "epoch_release": {},   # epoch -> release time
                "bar": Rendezvous(comm.group.members,
                                  cost_fn=comm.world.model.barrier_cost,
                                  name=f"win-fence-{key}"),
                "epoch_of": {},        # global rank -> local epoch counter
            }
            registry[key] = shared
        shared["memory"][comm.env.rank] = local
        win = cls(comm, shared, wid=seq)
        # Window creation is collective and synchronizing.
        shared["bar"].join(comm.env)
        return win

    # ------------------------------------------------------------------

    def _target_memory(self, target_rank: int) -> np.ndarray:
        g = self.comm.group.global_rank(target_rank)
        try:
            return self._shared["memory"][g]
        except KeyError:
            raise MPIError(
                f"rank {target_rank} exposed no memory in window "
                f"{self.wid}") from None

    def Put(self, origin: np.ndarray, target_rank: int,
            target_offset: int = 0) -> None:
        """One-sided put of ``origin`` into the target's window memory.

        ``target_offset`` is in elements of the target array's dtype.
        """
        if not isinstance(origin, np.ndarray):
            raise MPIError("Put origin must be a numpy array")
        mem = self._target_memory(target_rank)
        flat = mem.reshape(-1)
        n = origin.size
        if target_offset < 0 or target_offset + n > flat.size:
            raise MPIError(
                f"Put of {n} elements at offset {target_offset} exceeds "
                f"target window of {flat.size} elements")
        if origin.dtype != mem.dtype:
            raise MPIError(
                f"Put dtype mismatch: origin {origin.dtype}, "
                f"window {mem.dtype}")
        tp = self.comm.world.model.transport(MPI_1SIDED)
        env = self.comm.env
        post_t0 = env.now
        env.advance(tp.send_overhead(origin.nbytes))
        flat[target_offset:target_offset + n] = origin.reshape(-1)
        completion = env.now + tp.wire_time(origin.nbytes)
        self._shared["pending"].append(completion)
        if self._lock_target is not None:
            self._lock_pending.append(completion)
        if self._access_group is not None:
            if target_rank not in self._access_group:
                raise MPIError(
                    f"Put to rank {target_rank} outside the Start "
                    f"access group {self._access_group}")
            self._access_pending.setdefault(target_rank,
                                            []).append(completion)
        self.comm.world.stats.count_message(MPI_1SIDED, origin.nbytes)
        profile = env.engine.profile
        if profile is not None:
            dst = self.comm.group.global_rank(target_rank)
            profile.add(dst, "message", post_t0, completion, src=env.rank,
                        dst=dst, nbytes=origin.nbytes, transport="mpi1s")

    def Get(self, origin: np.ndarray, target_rank: int,
            target_offset: int = 0) -> None:
        """One-sided get from the target's window memory into ``origin``."""
        if not isinstance(origin, np.ndarray) or not origin.flags.writeable:
            raise MPIError("Get origin must be a writeable numpy array")
        mem = self._target_memory(target_rank)
        flat = mem.reshape(-1)
        n = origin.size
        if target_offset < 0 or target_offset + n > flat.size:
            raise MPIError(
                f"Get of {n} elements at offset {target_offset} exceeds "
                f"target window of {flat.size} elements")
        tp = self.comm.world.model.transport(MPI_1SIDED)
        env = self.comm.env
        env.advance(tp.send_overhead(origin.nbytes))
        origin.reshape(-1)[...] = flat[target_offset:target_offset + n]
        # A get is a round trip: request out, payload back.
        completion = env.now + tp.latency(8) + tp.wire_time(origin.nbytes)
        self._shared["pending"].append(completion)
        if self._lock_target is not None:
            self._lock_pending.append(completion)
        self.comm.world.stats.count_message(MPI_1SIDED, origin.nbytes)

    # ------------------------------------------------------------------
    # Active-target synchronization

    def Fence(self) -> None:
        """Collective fence: all members' RMA in the closing epoch is
        complete everywhere when this returns."""
        comm, env = self.comm, self.comm.env
        env.advance(comm.world.model.fence_overhead)
        comm.world.stats.count_sync("fence")
        my_epoch = self._shared["epoch_of"].get(env.rank, 0)
        self._shared["epoch_of"][env.rank] = my_epoch + 1
        t = self._shared["bar"].join(env)
        releases = self._shared["epoch_release"]
        if my_epoch not in releases:
            # First member past the barrier settles the epoch: everything
            # posted before the barrier must be visible.
            pending = self._shared["pending"]
            releases[my_epoch] = max([t] + pending)
            self._shared["pending"] = []
        env.advance_to(releases[my_epoch])

    # ------------------------------------------------------------------
    # Generalized active target (PSCW: Post/Start/Complete/Wait)

    def _pscw(self) -> dict:
        return self._shared.setdefault("pscw", {
            "posted": {},            # (target, origin) -> post time
            "start_waiters": {},     # (target, origin) -> waiter
            "completed": {},         # (origin, target) -> flush time
            "wait_waiters": {},      # (origin, target) -> waiter
        })

    def Post(self, origins: list[int]) -> None:
        """Expose this rank's window to the listed origin ranks."""
        if self._exposure_group is not None:
            raise MPIError("window already has an exposure epoch open")
        state = self._pscw()
        env = self.comm.env
        me = self.comm.rank
        self._exposure_group = list(origins)
        for origin in origins:
            key = (me, origin)
            state["posted"][key] = env.now
            waiter = state["start_waiters"].pop(key, None)
            if waiter is not None:
                env.engine.wake(waiter, env.now)
        self.comm.world.stats.count_sync("win_post")

    def Start(self, targets: list[int]) -> None:
        """Open an access epoch to the listed targets; blocks until
        each has posted."""
        if self._access_group is not None:
            raise MPIError("window already has an access epoch open")
        state = self._pscw()
        env = self.comm.env
        me = self.comm.rank
        for target in targets:
            key = (target, me)
            if key not in state["posted"]:
                waiter = env.make_waiter(
                    f"MPI_Win_post by rank {target}")
                state["start_waiters"][key] = waiter
                env.block()
            del state["posted"][key]
        self._access_group = list(targets)
        self._access_pending = {}
        self.comm.world.stats.count_sync("win_start")

    def Complete(self) -> None:
        """Close the access epoch: flush this origin's puts per target
        and notify the targets."""
        if self._access_group is None:
            raise MPIError("Complete without a matching Start")
        state = self._pscw()
        env = self.comm.env
        me = self.comm.rank
        env.advance(self.comm.world.model.fence_overhead)
        for target in self._access_group:
            pending = self._access_pending.get(target, [])
            flush = max(pending, default=env.now)
            flush = max(flush, env.now)
            key = (me, target)
            state["completed"][key] = flush
            waiter = state["wait_waiters"].pop(key, None)
            if waiter is not None:
                env.engine.wake(waiter, flush)
        self._access_group = None
        self._access_pending = {}
        self.comm.world.stats.count_sync("win_complete")

    def Wait(self) -> None:
        """Close the exposure epoch: block until every origin in the
        posted group completed; all their RMA is then visible here."""
        if self._exposure_group is None:
            raise MPIError("Wait without a matching Post")
        state = self._pscw()
        env = self.comm.env
        me = self.comm.rank
        for origin in self._exposure_group:
            key = (origin, me)
            t = state["completed"].pop(key, None)
            if t is None:
                waiter = env.make_waiter(
                    f"MPI_Win_complete by rank {origin}")
                state["wait_waiters"][key] = waiter
                env.block()
                del state["completed"][key]
            else:
                env.advance_to(t)
        self._exposure_group = None
        self.comm.world.stats.count_sync("win_wait")

    # ------------------------------------------------------------------
    # Passive-target synchronization

    def Lock(self, target_rank: int) -> None:
        """Begin a passive-target access epoch on one target."""
        if self._lock_target is not None:
            raise MPIError(
                f"window already locked on target {self._lock_target}")
        self._target_memory(target_rank)  # validates the rank
        self._lock_target = target_rank
        self._lock_pending = []

    def Unlock(self, target_rank: int) -> None:
        """End the passive epoch: local+remote completion of its RMA."""
        if self._lock_target != target_rank:
            raise MPIError(
                f"Unlock({target_rank}) without matching Lock "
                f"(locked: {self._lock_target})")
        env = self.comm.env
        env.advance(self.comm.world.model.fence_overhead)
        self.comm.world.stats.count_sync("unlock")
        if self._lock_pending:
            env.advance_to(max(self._lock_pending))
        self._lock_target = None
        self._lock_pending = []
