"""The user-facing directives: ``comm_parameters`` and ``comm_p2p``.

Runtime embedding of the paper's pragmas as context managers::

    prev = (env.rank - 1 + env.size) % env.size
    nxt = (env.rank + 1) % env.size
    with comm_p2p(env, sender=prev, receiver=nxt,
                  sbuf=buf1, rbuf=buf2):
        pass   # body runs overlapped with the transfer

    with comm_parameters(env, sender=from_rank, receiver=to_rank,
                         sendwhen=env.rank == from_rank,
                         receivewhen=env.rank == to_rank,
                         place_sync="END_PARAM_REGION"):
        with comm_p2p(env, sbuf=scalars, rbuf=scalars, count=1):
            pass
        with comm_p2p(env, sbuf=[vr, rhotot], rbuf=[vr, rhotot],
                      count=size1):
            pass

Semantics implemented from Sections III-A/III-B:

* clause values are the per-rank evaluations of the paper's clause
  expressions; ``sender`` = the rank that sends *to me*, ``receiver`` =
  the rank I send to; ranks are world ranks;
* on entry a ``comm_p2p`` posts its non-blocking communication (sends
  if ``sendwhen``, receives if ``receivewhen``); the body then executes
  *overlapped* with the transfers;
* inside a ``comm_parameters`` region, synchronization of adjacent
  instances with independent buffers is consolidated into one backend
  sync placed per ``place_sync``; an instance whose buffers overlap
  pending communication forces the pending sync first;
* a standalone ``comm_p2p`` synchronizes at its own exit.

Each directive resolves its clause *names* through the memoised plan of
:mod:`repro.core.clauses` (legality, required clauses, which merged
clause comes from the region); each execution then evaluates only the
clause values.
"""

from __future__ import annotations

from typing import Any

from repro.core import buffers as bufmod
from repro.core.clauses import (
    DEFAULT_TARGET,
    SyncPlacement,
    check_names,
    merged_view,
    normalize,
)
from repro.core.lower.base import get_backend
from repro.core.region import PendingComm, RegionState
from repro.errors import ClauseError, DirectiveError
from repro.sim.process import Env


class CommParameters:
    """An active ``comm_parameters`` region on one rank."""

    def __init__(self, env: Env, **clauses: Any):
        self.env = env
        self.names = frozenset(clauses)
        check_names("parameters", self.names)
        self.clauses = normalize(clauses)
        self.pending = PendingComm()
        self._state: RegionState | None = None
        #: comm_p2p executions inside this region entry, checked against
        #: max_comm_iter (which sizes the generated sync bookkeeping).
        self.instance_count = 0

    def note_instance(self) -> None:
        """Count one comm_p2p execution against max_comm_iter."""
        self.instance_count += 1
        limit = self.clauses.get("max_comm_iter")
        if limit is not None and self.instance_count > limit:
            raise ClauseError(
                f"comm_p2p executed {self.instance_count} times in a "
                f"region declaring max_comm_iter({limit}); the generated "
                "synchronization bookkeeping would overflow "
                "(Section III-B)")

    @property
    def place_sync(self) -> SyncPlacement:
        """The region's sync placement (defaulted)."""
        return self.clauses.get("place_sync",
                                SyncPlacement.END_PARAM_REGION)

    def __enter__(self) -> "CommParameters":
        self._state = RegionState.of(self.env)
        self._state.on_region_enter(self.env, self.place_sync)
        self._state.stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        state = self._state
        assert state is not None
        if state.stack and state.stack[-1] is self:
            state.stack.pop()
        else:  # pragma: no cover - misuse guard
            raise DirectiveError(
                "comm_parameters regions must be exited in LIFO order")
        if exc_type is not None:
            # Do not synchronize on the error path; drop the pending
            # handles so the error propagates undisturbed.
            return
        state.on_region_exit(self.env, self.pending, self.place_sync)


class CommP2P:
    """One ``comm_p2p`` directive instance on one rank."""

    def __init__(self, env: Env, **clauses: Any):
        self.env = env
        self.names = frozenset(clauses)
        check_names("p2p", self.names)
        self.clauses = normalize(clauses)
        self._standalone_pending: PendingComm | None = None

    # -- protocol -----------------------------------------------------------

    def __enter__(self) -> "CommP2P":
        env = self.env
        state = RegionState.of(env)
        region = state.stack[-1] if state.stack else None
        if region is None:
            merged = merged_view(self.names, self.clauses)
        else:
            merged = merged_view(self.names, self.clauses, region.names,
                                 region.clauses)

        # Absent when clauses: every process reaching the directive
        # sends and receives. An explicit None is given, and falsy.
        sends_here = bool(merged.get("sendwhen", True))
        recvs_here = bool(merged.get("receivewhen", True))
        target = merged.get("target", DEFAULT_TARGET)
        sbufs, rbufs, sarrays, rarrays, count = bufmod.resolve(
            target, merged["sbuf"], merged["rbuf"], merged.get("count"))

        backend = get_backend(env, target)
        if region is not None:
            region.note_instance()
            pending = region.pending
        else:
            pending = self._standalone_pending = PendingComm()

        # Adjacent-directive independence (Section III-A): an instance
        # whose buffers overlap pending communication cannot share its
        # consolidated sync — the pending communication completes first.
        # Only the buffers of roles this rank actually plays are live
        # here: a pure sender's rbuf (or vice versa) is untouched by
        # its communication.
        local_arrays = ((sarrays if sends_here else [])
                        + (rarrays if recvs_here else []))
        # All unsynchronized communication on this rank is pending, not
        # just the innermost region's: carried sync from earlier
        # regions (place_sync deferral) and enclosing regions of a
        # nested chain hold live handles too. The downgrade CI020
        # promises must flush every aliasing set, or the deferred
        # delivery races with this directive's transfer.
        if state.carried.overlaps(local_arrays):
            state.flush_carry(env)
        for enclosing in state.stack:
            if (enclosing.pending is not pending
                    and enclosing.pending.overlaps(local_arrays)):
                enclosing.pending.sync(env)
        if pending.overlaps(local_arrays):
            pending.sync(env)

        # Both ranks are checked before anything is posted: a bad
        # receiver must not leave this rank's receives orphaned.
        if recvs_here:
            src = self._check_rank(merged["sender"], "sender")
        if sends_here:
            dst = self._check_rank(merged["receiver"], "receiver")
        profile = env.engine.profile
        post_t0 = env.now
        my_sends = []
        my_recvs = []
        # Receives are declared before sends so self-transfers and
        # one-sided exposure always find the destination ready.
        if recvs_here:
            for rb in rbufs:
                my_recvs.append(backend.post_recv(src, rb, count))
        if sends_here:
            for sb, rb in zip(sbufs, rbufs):
                my_sends.append(backend.post_send(dst, sb, rb, count))

        pending.sends.extend(my_sends)
        pending.recvs.extend(my_recvs)
        pending.buffers.extend(local_arrays)
        if profile is not None and (my_sends or my_recvs):
            label = profile.current_label(env.rank)
            profile.add(
                env.rank, "post", post_t0, env.now, target=target.value,
                count=count, sends=len(my_sends), recvs=len(my_recvs),
                bytes=sum(h.nbytes for h in (*my_sends, *my_recvs)),
                **({} if label is None else {"label": label}))
            pending.note_window(env)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            return
        if self._standalone_pending is not None:
            # Standalone instance: synchronize at its own exit.
            self._standalone_pending.sync(self.env)

    def _check_rank(self, value: Any, clause: str) -> int:
        if not isinstance(value, int) or isinstance(value, bool):
            raise ClauseError(
                f"{clause} must evaluate to a process id, got {value!r}")
        if not 0 <= value < self.env.size:
            raise ClauseError(
                f"{clause} evaluates to rank {value}, outside the "
                f"0..{self.env.size - 1} world")
        return value


def comm_parameters(env: Env, **clauses: Any) -> CommParameters:
    """Open a ``comm_parameters`` region (use as a context manager)."""
    return CommParameters(env, **clauses)


def comm_p2p(env: Env, **clauses: Any) -> CommP2P:
    """One point-to-point directive instance (use as a context manager).

    The body of the ``with`` block is the computation that may overlap
    the communication at run time (Section III-A).
    """
    return CommP2P(env, **clauses)


def comm_flush(env: Env) -> None:
    """Force any carried synchronization (deferred by
    ``BEGIN_NEXT_PARAM_REGION`` / ``END_ADJ_PARAM_REGIONS``) to execute
    now. Needed when a deferral chain reaches the end of the program."""
    RegionState.of(env).flush_carry(env)
