"""The recovery runtime: detect → revoke → recover → restart.

:func:`run_with_recovery` is the managed-run entry point the paper's
thesis points at: the application states its communication intent, and
the *runtime* owns delivery and recovery. One logical run may span
several engine attempts:

1. The engine runs with a bound :class:`RecoveryContext`: dropped
   messages are retransmitted under per-target bounded-retry policies,
   registered state is checkpointed at consolidated-sync boundaries,
   and a survivor touching a dead peer waits out the failure detector's
   deadline before the failure surfaces (ULFM semantics: the error is
   *raised*, not hung on).
2. A surfaced :class:`~repro.errors.RankFailedError` — or a degraded
   completion — revokes the world: the attempt is abandoned (in-flight
   windows die with it, which is what keeps the checkpoint cut clean).
3. The configured policy rebuilds the world: **shrink** re-runs the
   program over the survivor set (partner functions re-evaluate at the
   new ``env.size`` — the pattern catalog re-maps itself); **respawn**
   replaces dead ranks with fresh spares and restarts the full world
   from the last consistent checkpoint cut, transferring the dead
   rank's snapshots to its spare.
4. The crash events that already fired are stripped from the fault
   plan (a fault kills a rank once; its replacement is a new process),
   and the run restarts. Bounded by ``max_recoveries``.

Every episode is recorded in :class:`~repro.recovery.policy.
RecoveryStats` (surfaced on ``RunResult.recovery`` and folded into
``SimStats``), and — under ``profile=True`` — the attempts are stitched
into one continuous profile with ``recovery`` spans bridging them, so
`repro-trace` shows the failure, the lost work and the restart on one
timeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable

from repro.errors import RankFailedError, ReproError
from repro.recovery.checkpoint import Checkpoint, CheckpointStore
from repro.recovery.policy import (
    SHRINK,
    RecoveryConfig,
    RecoveryEpisode,
    RecoveryStats,
)
from repro.sim.engine import Engine, RunResult


class RecoveryError(ReproError):
    """The recovery runtime could not bring the run to completion."""


@dataclass
class RecoveryContext:
    """Per-attempt binding between one engine run and the recovery
    runtime. The engine, fault injector and region machinery consult it
    (``engine.recovery``); the manager creates a fresh one per attempt
    around the shared :class:`CheckpointStore`."""

    config: RecoveryConfig
    store: CheckpointStore
    #: Consistent cut this attempt restarts from (-1 = fresh start).
    restore_cut: int = -1
    #: 0-based attempt number within the logical run.
    attempt: int = 0
    _engine: Any = field(default=None, repr=False)
    #: rank -> name -> live object (auto-checkpointed at sync points).
    _registered: dict[int, dict[str, Any]] = field(default_factory=dict)
    #: rank -> next cut id.
    _cuts: dict[int, int] = field(default_factory=dict)

    # -- engine-facing surface ------------------------------------------

    def bind(self, engine: Any) -> None:
        """Reset per-run state (called by ``Engine.run``)."""
        self._engine = engine
        self._registered.clear()
        self._cuts.clear()

    @property
    def detect_deadline(self) -> float:
        """Failure detector's deadline (virtual seconds)."""
        return self.config.detect_deadline

    def retry_for(self, tp: Any):
        """Bounded-retry policy for one transport (by kind name)."""
        return self.config.retry_for(tp.name)

    # -- checkpointing ---------------------------------------------------

    def register_state(self, rank: int, state: dict[str, Any]) -> None:
        """Add named live objects to a rank's auto-checkpointed set."""
        self._registered.setdefault(rank, {}).update(state)

    def on_sync_boundary(self, env: Any) -> None:
        """Coordinated checkpoint hook: called as a consolidated sync
        returns (the happens-before-proven quiescent point)."""
        if not self.config.checkpoint:
            return
        state = self._registered.get(env.rank)
        if not state:
            return
        self._save(env, state)

    def take_checkpoint(self, env: Any, state: dict[str, Any]) -> int:
        """Program-placed checkpoint of explicit state; returns cut id."""
        return self._save(env, state)

    def _save(self, env: Any, state: dict[str, Any]) -> int:
        rank = env.rank
        cut = self._cuts.get(rank, 0)
        self.store.save(rank, cut, env.now, state)
        self._cuts[rank] = cut + 1
        engine = env.engine
        engine.stats.checkpoints_taken += 1
        if engine.profile is not None:
            engine.profile.instant(rank, "checkpoint", env.now, cut=cut)
        return cut

    def restore_for(self, env: Any) -> Checkpoint | None:
        """The rank's snapshot at this attempt's restore cut, if any.

        A rank that restores resumes cut numbering *after* the restored
        cut, so its next checkpoint extends the same timeline instead
        of colliding with history. Ranks that re-execute from scratch
        instead re-number from 0 and overwrite their (deterministic,
        identical) old snapshots.
        """
        if self.restore_cut < 0:
            return None
        cp = self.store.get(env.rank, self.restore_cut)
        if cp is not None:
            self._cuts[env.rank] = cp.cut + 1
            engine = env.engine
            if engine.profile is not None:
                engine.profile.instant(env.rank, "restore", env.now,
                                       cut=cp.cut)
        return cp


# ---------------------------------------------------------------------------
# Fault-plan surgery between attempts


def _strip_fired(plan: Any, fired: set[int]) -> Any:
    """Remove crash events that already killed their rank (respawn)."""
    if plan is None:
        return None
    crashes = tuple(c for c in plan.crashes if c.rank not in fired)
    return replace(plan, crashes=crashes)


def _remap_plan(plan: Any, survivors: list[int], new_world: int) -> Any:
    """Re-target pending rank events onto the shrunk world.

    Survivor ``survivors[i]`` becomes rank ``i``; events naming dead or
    dropped ranks vanish with them.
    """
    if plan is None:
        return None
    new_rank = {old: new for new, old in enumerate(survivors[:new_world])}
    crashes = tuple(replace(c, rank=new_rank[c.rank])
                    for c in plan.crashes if c.rank in new_rank)
    stalls = tuple(replace(s, rank=new_rank[s.rank])
                   for s in plan.stalls if s.rank in new_rank)
    return replace(plan, crashes=crashes, stalls=stalls)


# ---------------------------------------------------------------------------
# Profile stitching


def _merge_profiles(segments: list[tuple[Any, float, int]],
                    bridges: list[dict[str, Any]],
                    finish_times: list[float]) -> Any:
    """Stitch per-attempt profiles into one recovered-run timeline.

    Each attempt's spans shift by its base offset and gain an
    ``attempt`` attribute; one ``recovery`` span bridges each abort to
    the following restart so the episode is visible in the Chrome
    export.
    """
    from repro.profiling.spans import Profile

    merged = Profile()
    for prof, base, attempt in segments:
        for span in prof:
            t1 = span.t1 if span.t1 is not None else span.t0
            merged.add(span.rank, span.kind, span.t0 + base, t1 + base,
                       **dict(span.attrs, attempt=attempt))
    for bridge in bridges:
        merged.add(0, "recovery", bridge["t0"], bridge["t1"],
                   **{k: v for k, v in bridge.items()
                      if k not in ("t0", "t1")})
    merged.finish(finish_times)
    return merged


# ---------------------------------------------------------------------------
# The managed run


def run_with_recovery(prog: Callable[..., Any], nprocs: int, *,
                      faults: Any = None,
                      config: RecoveryConfig | None = None,
                      watchdog: Any = None,
                      profile: bool = False,
                      max_time: float | None = None) -> RunResult:
    """Run ``prog`` over ``nprocs`` ranks, surviving injected faults.

    Returns the final (successful) attempt's :class:`RunResult` with
    cumulative recovery counters folded into ``result.stats``, the
    episode log on ``result.recovery``, and — under ``profile=True`` —
    the stitched multi-attempt profile on ``result.profile``.

    Raises :class:`RecoveryError` when ``max_recoveries`` is exhausted
    or shrink cannot reach a valid world size.
    """
    if config is None:
        config = RecoveryConfig()
    if faults is not None and not hasattr(faults, "crashes"):
        raise RecoveryError(
            "run_with_recovery needs the declarative FaultPlan (not a "
            "compiled injector): recovery rewrites the plan between "
            "attempts")
    store = CheckpointStore()
    rstats = RecoveryStats()
    plan = faults
    world = nprocs
    restore_cut = -1
    base = 0.0
    attempt = 0
    segments: list[tuple[Any, float, int]] = []
    bridges: list[dict[str, Any]] = []
    prior_stats: list[Any] = []

    while True:
        ctx = RecoveryContext(config=config, store=store,
                              restore_cut=restore_cut, attempt=attempt)
        eng = Engine(world, faults=plan, watchdog=watchdog,
                     profile=profile, max_time=max_time, recovery=ctx)
        failure: RankFailedError | None = None
        result: RunResult | None = None
        try:
            result = eng.run(prog)
        except RankFailedError as exc:
            failure = exc
        fired = set(eng.failed_ranks)
        if failure is None and not fired:
            break  # clean completion
        # The world is revoked: close this attempt's books.
        if failure is not None:
            abort_time = max((p.now for p in eng.procs), default=0.0)
            if profile and eng.profile is not None:
                eng.profile.finish([p.now for p in eng.procs])
        else:
            # Degraded completion: survivors finished without touching
            # the dead ranks, but the logical run still lost them —
            # recover so the application gets its full answer.
            abort_time = result.makespan if result is not None else 0.0
            eng.stats.failures_detected += len(fired)
        if profile and eng.profile is not None:
            segments.append((eng.profile, base, attempt))
        prior_stats.append(eng.stats)
        if attempt >= config.max_recoveries:
            raise RecoveryError(
                f"gave up after {attempt} recovery episode(s): rank(s) "
                f"{sorted(fired)} still failing under policy "
                f"{config.policy!r}") from failure

        survivors = [r for r in range(world) if r not in fired]
        if config.policy == SHRINK:
            new_world = config.shrink_world(len(survivors))
            if new_world < config.min_world or new_world < 1:
                raise RecoveryError(
                    f"shrink cannot reach a valid world size from "
                    f"{len(survivors)} survivor(s)") from failure
            # Old-world cuts are meaningless after re-mapping.
            store.clear()
            restore_cut = -1
            restore_time = 0.0
            plan = _remap_plan(plan, survivors, new_world)
        else:  # respawn: spares rejoin with state transfer
            new_world = world
            restore_cut = store.latest_consistent_cut(range(world))
            restore_time = (store.cut_time(restore_cut, range(world))
                            if restore_cut >= 0 else 0.0)
            plan = _strip_fired(plan, fired)

        lost = max(0.0, abort_time - restore_time)
        episode_s = lost + config.restart_cost
        episode = RecoveryEpisode(
            index=attempt + 1, policy=config.policy,
            failed_ranks=tuple(sorted(fired)), abort_time=abort_time,
            restore_cut=restore_cut, restore_time=restore_time,
            world_after=new_world, recovery_s=episode_s)
        rstats.episodes.append(episode)
        rstats.restarts += 1
        bridges.append({
            "t0": base + abort_time,
            "t1": base + abort_time + config.restart_cost,
            "policy": config.policy, "episode": episode.index,
            "failed_ranks": tuple(sorted(fired)),
            "restore_cut": restore_cut, "world_after": new_world,
        })
        # Episode cost rides on the *next* attempt's stats so the final
        # fold sees it exactly once.
        base += abort_time + config.restart_cost
        world = new_world
        attempt += 1

    # Fold every failed attempt's counters into the surviving run's.
    stats = result.stats
    for s in prior_stats:
        stats.add_recovery(s)
    stats.restarts += rstats.restarts
    stats.recovery_wall_s += sum(e.recovery_s for e in rstats.episodes)
    rstats.failures_detected = stats.failures_detected
    rstats.retries = stats.retries
    rstats.checkpoints_taken = stats.checkpoints_taken
    rstats.restarts = stats.restarts
    rstats.recovery_wall_s = stats.recovery_wall_s
    rstats.final_world = world
    result.recovery = rstats
    if profile and result.profile is not None and segments:
        finish = [base + t for t in result.finish_times]
        result.profile = _merge_profiles(
            segments + [(result.profile, base, attempt)], bridges, finish)
    return result
