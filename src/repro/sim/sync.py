"""Generic collective synchronization over the engine primitives.

:class:`Rendezvous` is a reusable "everyone arrives, everyone leaves
together" point with a pluggable cost function; :mod:`repro.mpi`'s
``Barrier`` and :mod:`repro.shmem`'s ``barrier_all`` are thin wrappers
over it. Supporting a subset of ranks (``members``) lets communicator
sub-groups and LSMS process groups synchronize independently.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from repro.errors import SimStateError
from repro.sim.process import Env


class Rendezvous:
    """A reusable collective sync point for a fixed member set.

    The release time of each episode is ``max(arrival times) + cost(n)``,
    the standard dissemination-barrier abstraction: nobody leaves before
    the last arrival, and the barrier itself costs ``cost(n)`` seconds.
    Episodes are numbered by a generation counter so the same object can
    be reused in a loop (each generation must complete before the next
    can begin, which the SPMD structure guarantees).
    """

    def __init__(self, members: Sequence[int],
                 cost_fn: Callable[[int], float] | None = None,
                 name: str = "rendezvous"):
        if len(members) == 0:
            raise ValueError("rendezvous needs at least one member")
        if len(set(members)) != len(members):
            raise ValueError(f"duplicate ranks in members: {members}")
        self.members = frozenset(members)
        self.cost_fn = cost_fn or (lambda n: 0.0)
        self.name = name
        self._generation = 0
        self._arrivals: dict[int, float] = {}
        self._waiters: list = []
        #: Open profiling span ids of the current episode's members.
        self._span_sids: list[int] = []

    def join(self, env: Env) -> float:
        """Arrive at the sync point; returns the common release time.

        Blocks until every member has arrived. The caller's clock is at
        the release time when this returns.
        """
        rank = env.rank
        if rank not in self.members:
            raise SimStateError(
                f"rank {rank} is not a member of {self.name} "
                f"(members: {sorted(self.members)})")
        if rank in self._arrivals:
            raise SimStateError(
                f"rank {rank} joined {self.name} generation "
                f"{self._generation} twice")
        self._arrivals[rank] = env.now
        profile = env.engine.profile
        if profile is not None:
            self._span_sids.append(profile.begin(
                rank, "barrier", env.now, name=self.name,
                gen=self._generation))
        if len(self._arrivals) < len(self.members):
            waiter = env.make_waiter(
                f"{self.name} (gen {self._generation}, "
                f"{len(self.members) - len(self._arrivals)} more to arrive)")
            self._waiters.append(waiter)
            env.block()
            return env.now
        # Last to arrive: compute the release time and wake everyone.
        release = max(self._arrivals.values()) + self.cost_fn(len(self.members))
        sanitizer = env.engine.sanitizer
        if sanitizer is not None:
            # A barrier orders everything across it for its members:
            # join all member clocks (single-threaded, so mutating the
            # blocked members' clocks here is race-free).
            sanitizer.barrier_join(self.members)
        if profile is not None:
            # The episode's critical arriver: everyone else's wait ends
            # because of it (the cross-rank happens-before edge the
            # critical-path extraction follows).
            critical = max(self._arrivals,
                           key=lambda r: (self._arrivals[r], r))
            for sid in self._span_sids:
                profile.end(sid, release, critical_rank=critical)
            self._span_sids.clear()
        for waiter in self._waiters:
            env.engine.wake(waiter, release)
        self._waiters.clear()
        self._arrivals.clear()
        self._generation += 1
        env.advance_to(release)
        return release
