"""Backend protocol shared by the three translation targets.

A backend translates one directive *message* (one buffer pair of a
``comm_p2p`` instance) into library operations, returning handles the
region machinery synchronizes later — possibly consolidated across many
adjacent instances, per the ``place_sync`` policy. Backends are per-rank
objects cached on the engine; :func:`get_backend` is the factory the
directive runtime uses.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.core.clauses import Target
from repro.errors import LoweringError

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.process import Env

_SERVICE_KEY = "directive_backends"


@dataclass
class SendHandle:
    """One posted outgoing message awaiting synchronization."""

    backend: "Backend"
    dest: int               # global rank
    seq: int
    nbytes: int
    payload: Any = None     # backend-specific (e.g. an MPI Request)


@dataclass
class RecvHandle:
    """One expected incoming message awaiting synchronization."""

    backend: "Backend"
    source: int             # global rank
    seq: int
    nbytes: int
    payload: Any = None


class Backend(abc.ABC):
    """Translation target for directive messages (one instance per rank)."""

    #: The target keyword this backend implements.
    target: Target

    def __init__(self, env: "Env"):
        self.env = env

    @abc.abstractmethod
    def post_send(self, dest: int, sbuf, rbuf, count: int) -> SendHandle:
        """Initiate the transfer of ``count`` elements of ``sbuf`` toward
        ``dest``'s ``rbuf`` counterpart. Non-blocking in spirit: returns
        once the transfer is in flight locally."""

    @abc.abstractmethod
    def post_recv(self, source: int, rbuf, count: int) -> RecvHandle:
        """Declare the expectation of ``count`` elements into ``rbuf``
        from ``source``. Non-blocking."""

    @abc.abstractmethod
    def sync_publish(self, sends: list[SendHandle]) -> None:
        """Phase 1 of a consolidated sync: complete outgoing transfers
        (flush/quiet) and publish their notifies.

        Must never block on a *peer's* synchronization — a consolidated
        sync spanning several backends publishes every backend's
        notifies first, so no rank can wait in phase 2 for a notify
        another rank would only publish after its own phase-2 wait.
        The static verifier's deadlock model relies on this order (a
        one-sided sync "flushes outgoing puts and notifies before
        waiting on incoming notifies")."""

    @abc.abstractmethod
    def sync_wait(self, sends: list[SendHandle],
                  recvs: list[RecvHandle]) -> None:
        """Phase 2 of a consolidated sync: block until every given
        handle's transfer is complete on this rank."""


def get_backend(env: "Env", target: Target) -> Backend:
    """This rank's backend for ``target`` (created once, then cached)."""
    cache: dict[tuple[int, Target], Backend]
    cache = env.engine.services.setdefault(_SERVICE_KEY, {})
    key = (env.rank, target)
    backend = cache.get(key)
    if backend is None:
        # Imports here to avoid a cycle (backends import this module).
        from repro.core.lower.mpi1s import Mpi1sBackend
        from repro.core.lower.mpi2s import Mpi2sBackend
        from repro.core.lower.shmemtgt import ShmemBackend
        factories = {
            Target.MPI_2SIDE: Mpi2sBackend,
            Target.MPI_1SIDE: Mpi1sBackend,
            Target.SHMEM: ShmemBackend,
        }
        factory = factories.get(target)
        if factory is None:
            raise LoweringError(f"no backend for target {target}")
        backend = factory(env)
        cache[key] = backend
    return backend
