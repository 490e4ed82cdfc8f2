"""Declarative, seed-deterministic fault plans.

A :class:`FaultPlan` describes one adversarial schedule: how message
delivery timing is perturbed (jitter, reordering pressure, drops with
retransmission cost) and which ranks are stalled or killed, all derived
deterministically from one seed. Plans are immutable values — the same
plan replayed against the same program produces the bit-identical run,
which is what makes fuzzer failures debuggable.

The perturbations deliberately stay inside the legal envelope of the
modelled networks: extra *delay* is always legal (wires are slow), and
reordering is expressed as adversarial delay rather than queue
permutation so MPI's same-``(source, dest, tag)`` non-overtaking rule
is never violated. A correct program must therefore produce identical
*data* under any plan; only virtual times may change.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.faults.inject import FaultInjector


@dataclass(frozen=True)
class RankStall:
    """Freeze one rank for ``duration`` virtual seconds.

    Fires once: the first time ``rank`` is selected to run at or after
    virtual time ``at``, its clock jumps by ``duration`` before it runs
    (an OS-noise / page-fault / GC-pause stand-in).
    """

    rank: int
    at: float
    duration: float

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError(f"stall rank must be >= 0, got {self.rank}")
        if self.at < 0 or self.duration < 0:
            raise ValueError("stall at/duration must be >= 0")


@dataclass(frozen=True)
class RankCrash:
    """Kill one rank: the first time ``rank`` is selected to run at or
    after virtual time ``at``, it is removed from the run permanently.

    Messages the rank posted before dying stay in flight; survivors that
    later touch the dead rank get a
    :class:`repro.errors.RankFailedError`.
    """

    rank: int
    at: float = 0.0

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError(f"crash rank must be >= 0, got {self.rank}")
        if self.at < 0:
            raise ValueError("crash time must be >= 0")


@dataclass(frozen=True)
class FaultPlan:
    """One seed-deterministic adversarial schedule.

    All randomness is drawn from per-``(source, dest)`` streams keyed by
    ``seed`` (see :func:`repro.util.rng.stream_rng`), so the
    perturbation a message experiences depends only on the seed and its
    channel's message history — never on host scheduling.
    """

    #: Seed of every random stream the plan uses; recorded in
    #: :class:`repro.sim.stats.SimStats` for replay.
    seed: int = 0
    #: Maximum extra per-message wire delay, seconds (uniform draw in
    #: ``[0, delay_jitter]``). ``0`` disables jitter.
    delay_jitter: float = 0.0
    #: Probability a message is singled out for adversarial extra delay
    #: large enough for unrelated later messages to overtake it.
    reorder_prob: float = 0.0
    #: The singled-out message is delayed by this multiple of its own
    #: wire time.
    reorder_factor: float = 4.0
    #: Per-attempt probability a message is dropped and retransmitted,
    #: each drop costing :meth:`TransportParams.retransmit_cost`.
    drop_prob: float = 0.0
    #: Drop attempts are capped here: the message always gets through in
    #: the end (we model lossy-but-reliable transport cost, not loss).
    max_retransmits: int = 3
    #: Scheduled one-shot rank stalls.
    stalls: tuple[RankStall, ...] = ()
    #: Scheduled rank kills.
    crashes: tuple[RankCrash, ...] = ()

    def __post_init__(self) -> None:
        for attr in ("delay_jitter", "reorder_factor"):
            if getattr(self, attr) < 0:
                raise ValueError(f"{attr} must be >= 0")
        for attr in ("reorder_prob", "drop_prob"):
            if not 0.0 <= getattr(self, attr) <= 1.0:
                raise ValueError(f"{attr} must be in [0, 1]")
        if self.max_retransmits < 0:
            raise ValueError("max_retransmits must be >= 0")
        # Normalize sequence fields so plans are hashable values.
        object.__setattr__(self, "stalls", tuple(self.stalls))
        object.__setattr__(self, "crashes", tuple(self.crashes))

    @classmethod
    def jitter(cls, seed: int, delay_jitter: float = 1e-5,
               reorder_prob: float = 0.25,
               drop_prob: float = 0.05) -> "FaultPlan":
        """The fuzzer's stock timing-perturbation plan for one seed."""
        return cls(seed=seed, delay_jitter=delay_jitter,
                   reorder_prob=reorder_prob, drop_prob=drop_prob)

    @classmethod
    def neutral(cls, seed: int = 0) -> "FaultPlan":
        """No perturbations, but deferred delivery active — isolates
        the deferred-delivery mechanism from timing noise."""
        return cls(seed=seed)

    @property
    def perturbs_timing(self) -> bool:
        """True when any message-timing perturbation is active."""
        return (self.delay_jitter > 0 or self.reorder_prob > 0
                or self.drop_prob > 0)

    def compile(self) -> FaultInjector:
        """Build the runtime injector the engine consults."""
        return FaultInjector(self)
