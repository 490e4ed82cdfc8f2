"""Runtime fault injector — the compiled form of a FaultPlan.

One injector is bound to one :class:`repro.sim.engine.Engine` run. The
engine consults it at two points:

* ``message_delay(tp, src, dst, nbytes)`` — called by the simulated
  communication libraries when a message's delivery time is computed
  (MPI match completion, one-sided put, SHMEM put). Returns extra
  delivery latency derived from the plan's jitter / reorder / drop
  knobs. Delay only: queue order is never permuted, so MPI's
  same-``(source, dest, tag)`` non-overtaking rule holds by
  construction.

* ``on_dispatch(engine, proc)`` — called by the scheduler just before
  a READY process is handed the baton. May answer ``("stall", d)`` or
  ``("crash",)`` per the plan's scheduled rank events. Crashing only
  ever happens to a READY process: a BLOCKED process always has a
  pending wake, so killing at dispatch leaves no orphaned waiters.

Determinism: every random draw comes from a per-``(src, dst)``
:func:`repro.util.rng.stream_rng` stream keyed by the plan seed, so a
message's perturbation depends only on the seed and its position in its
channel's history — never on host thread scheduling. Replaying a seed
replays the run bit-identically.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.util.rng import stream_rng

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.plan import FaultPlan
    from repro.netmodel.base import TransportParams
    from repro.sim.engine import Engine, Proc


class FaultInjector:
    """Per-run state machine consulted by the engine (see module docs)."""

    def __init__(self, plan: "FaultPlan") -> None:
        self.plan = plan
        self.deferred_delivery = plan.deferred_delivery
        self._perturbs_timing = plan.perturbs_timing
        self._engine: "Engine | None" = None
        self._rngs: dict[tuple[int, int], object] = {}
        self._stall_fired: set[int] = set()
        self._crash_fired: set[int] = set()

    # -- lifecycle ----------------------------------------------------------

    def bind(self, engine: "Engine") -> None:
        """Reset per-run state and record the seed for replay."""
        self._engine = engine
        self._rngs.clear()
        self._stall_fired.clear()
        self._crash_fired.clear()
        engine.stats.fault_seed = self.plan.seed

    def _rng(self, src: int, dst: int):
        rng = self._rngs.get((src, dst))
        if rng is None:
            rng = stream_rng(self.plan.seed, src, dst)
            self._rngs[(src, dst)] = rng
        return rng

    # -- message-timing perturbation ---------------------------------------

    def message_delay(self, tp: "TransportParams", src: int, dst: int,
                      nbytes: int) -> float:
        """Extra delivery latency for one message on channel src->dst."""
        if not self._perturbs_timing:
            return 0.0
        plan = self.plan
        rng = self._rng(src, dst)
        stats = self._engine.stats if self._engine is not None else None
        extra = 0.0
        if plan.delay_jitter > 0:
            jitter = rng.random() * plan.delay_jitter
            if jitter > 0:
                extra += jitter
                if stats is not None:
                    stats.count_fault("jitter")
        if plan.reorder_prob > 0 and rng.random() < plan.reorder_prob:
            extra += plan.reorder_factor * tp.wire_time(nbytes)
            if stats is not None:
                stats.count_fault("reorder")
        if plan.drop_prob > 0:
            extra += self._drop_delay(tp, src, dst, nbytes, rng, stats)
        return extra

    def _drop_delay(self, tp: "TransportParams", src: int, dst: int,
                    nbytes: int, rng, stats) -> float:
        """Total retransmission delay for one message's drop attempts.

        Without a recovery context the plan's flat
        ``max_retransmits`` × ``retransmit_cost`` model applies. With
        one, the per-target :class:`repro.recovery.RetryPolicy` owns
        delivery: bounded retries with exponential backoff plus
        deterministic jitter, each retry counted in
        ``SimStats.retries`` and recorded as a ``retry`` span so
        recovery work is visible in the profile.
        """
        engine = self._engine
        ctx = engine.recovery if engine is not None else None
        policy = ctx.retry_for(tp) if ctx is not None else None
        plan = self.plan
        extra = 0.0
        if policy is None:
            for _ in range(plan.max_retransmits):
                if rng.random() >= plan.drop_prob:
                    break
                extra += tp.retransmit_cost(nbytes)
                if stats is not None:
                    stats.count_fault("drop")
            return extra
        profile = engine.profile if engine is not None else None
        now = engine._current.now if engine._current is not None else 0.0
        for attempt in range(policy.max_retries):
            if rng.random() >= plan.drop_prob:
                break
            cost = policy.attempt_cost(tp, nbytes, attempt, rng)
            if profile is not None:
                profile.add(dst, "retry", now + extra, now + extra + cost,
                            src=src, dst=dst, attempt=attempt,
                            nbytes=nbytes, transport=tp.name)
            extra += cost
            if stats is not None:
                stats.count_fault("drop")
                stats.retries += 1
        return extra

    # -- scheduled rank events ---------------------------------------------

    def on_dispatch(self, engine: "Engine",
                    proc: "Proc") -> tuple | None:
        """Rank-event decision for a READY process about to run.

        Returns ``("crash",)``, ``("stall", duration)`` or ``None``.
        Each scheduled event fires at most once, the first time its rank
        is dispatched at or after the event's virtual time.
        """
        plan = self.plan
        for crash in plan.crashes:
            if (crash.rank == proc.rank and proc.rank not in self._crash_fired
                    and proc.now >= crash.at):
                self._crash_fired.add(proc.rank)
                return ("crash",)
        for i, stall in enumerate(plan.stalls):
            if (stall.rank == proc.rank and i not in self._stall_fired
                    and proc.now >= stall.at):
                self._stall_fired.add(i)
                return ("stall", stall.duration)
        return None
