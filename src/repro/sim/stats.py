"""Aggregate counters for a simulated run.

The communication libraries increment these as they execute; benchmark
reports read them to show *why* one variant beats another (message
counts, bytes moved, synchronization calls generated) — the quantities
the paper's Section IV discusses alongside the timings.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field


@dataclass
class SimStats:
    """Counters accumulated over one :meth:`repro.sim.Engine.run`."""

    #: Point-to-point messages fully transferred, by library kind
    #: (``"mpi2s"``, ``"mpi1s"``, ``"shmem"``).
    messages: Counter = field(default_factory=Counter)
    #: Payload bytes transferred, by library kind.
    bytes: Counter = field(default_factory=Counter)
    #: Synchronization calls executed (``"wait"``, ``"waitall"``,
    #: ``"barrier"``, ``"quiet"``, ``"fence"`` ...).
    sync_calls: Counter = field(default_factory=Counter)
    #: Datatype-engine activity (``"struct_created"``, ``"struct_reused"``,
    #: ``"pack"``, ``"unpack"``).
    datatype_ops: Counter = field(default_factory=Counter)
    #: Modelled compute seconds, summed over all ranks.
    compute_seconds: float = 0.0
    #: Scheduler context switches — baton transfers to a rank, whether
    #: dispatched from the scheduler thread or handed off rank-to-rank
    #: (a proxy for simulation cost, not a modelled quantity).
    switches: int = 0
    #: Ready-heap pushes and pops performed by the scheduler.
    heap_ops: int = 0
    #: Yields satisfied on the fast path (the rank stayed the earliest
    #: runnable one, so no context switch happened).
    fast_yields: int = 0
    #: Baton transfers passed directly rank-to-rank, without bouncing
    #: through the scheduler thread (run-to-block batching).
    direct_handoffs: int = 0
    #: Host wall-clock seconds spent inside the scheduler (the whole
    #: dispatch loop, including rank execution); ``perfbench`` reports
    #: it as the ``sim.engine.dispatch_s`` layer.
    dispatch_wall_seconds: float = 0.0
    #: Injected fault events, by kind (``"jitter"``, ``"reorder"``,
    #: ``"drop"``, ``"stall"``, ``"crash"``).
    faults: Counter = field(default_factory=Counter)
    #: Seed of the bound :class:`repro.faults.FaultPlan`, recorded so a
    #: failure report is replayable; ``None`` when no plan was bound.
    fault_seed: int | None = None
    #: Pairwise access comparisons performed by the armed sanitizer
    #: (``Engine(sanitize=True)``); zero means it never ran — a clean
    #: sanitized run must show a positive count to prove coverage.
    sanitizer_checks: int = 0

    # -- recovery counters (populated when a RecoveryContext is bound;
    # aggregated across restart attempts by repro.recovery.manager) ----
    #: Rank failures detected (eager deadline detection or quiescence).
    failures_detected: int = 0
    #: Bounded retransmissions performed by the reliable transport.
    retries: int = 0
    #: Coordinated checkpoints taken at sync boundaries.
    checkpoints_taken: int = 0
    #: Engine restarts performed by the recovery runtime.
    restarts: int = 0
    #: Virtual seconds spent recovering: failure-detection deadlines,
    #: work redone since the last consistent cut, and restart overhead.
    recovery_wall_s: float = 0.0

    def add_recovery(self, other: "SimStats") -> None:
        """Fold another run's recovery counters into this one.

        The recovery manager calls this to accumulate the counters of
        failed attempts into the final (surviving) run's stats.
        """
        self.failures_detected += other.failures_detected
        self.retries += other.retries
        self.checkpoints_taken += other.checkpoints_taken
        self.restarts += other.restarts
        self.recovery_wall_s += other.recovery_wall_s

    def count_fault(self, kind: str, n: int = 1) -> None:
        """Record ``n`` injected fault events of one kind."""
        self.faults[kind] += n

    def count_message(self, kind: str, nbytes: int) -> None:
        """Record one completed transfer of ``nbytes``."""
        self.messages[kind] += 1
        self.bytes[kind] += nbytes

    def count_sync(self, kind: str) -> None:
        """Record one synchronization call."""
        self.sync_calls[kind] += 1

    def count_datatype(self, kind: str) -> None:
        """Record one datatype-engine operation."""
        self.datatype_ops[kind] += 1

    @property
    def total_messages(self) -> int:
        """Messages across all transports."""
        return sum(self.messages.values())

    @property
    def total_bytes(self) -> int:
        """Bytes across all transports."""
        return sum(self.bytes.values())

    @property
    def total_sync_calls(self) -> int:
        """Synchronization calls of every kind."""
        return sum(self.sync_calls.values())

    def summary(self) -> str:
        """One-paragraph human-readable summary."""
        parts = [
            f"messages={self.total_messages}",
            f"bytes={self.total_bytes}",
            f"sync_calls={self.total_sync_calls}",
            f"compute={self.compute_seconds:.6g}s",
            f"switches={self.switches}",
            f"fast_yields={self.fast_yields}",
            f"direct_handoffs={self.direct_handoffs}",
            f"heap_ops={self.heap_ops}",
            f"dispatch_wall={self.dispatch_wall_seconds:.3g}s",
        ]
        if self.fault_seed is not None:
            parts.append(f"fault_seed={self.fault_seed}")
            parts.append(f"faults={sum(self.faults.values())}")
        if self.sanitizer_checks:
            parts.append(f"sanitizer_checks={self.sanitizer_checks}")
        if (self.failures_detected or self.retries
                or self.checkpoints_taken or self.restarts):
            parts.append(f"failures_detected={self.failures_detected}")
            parts.append(f"retries={self.retries}")
            parts.append(f"checkpoints={self.checkpoints_taken}")
            parts.append(f"restarts={self.restarts}")
            parts.append(f"recovery_wall={self.recovery_wall_s:.3g}s")
        return ", ".join(parts)
