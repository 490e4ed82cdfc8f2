"""Chaos soak: crash + drop + stall plans against the recovery runtime.

Where :mod:`repro.faults.fuzz` attacks the *sync plan* (is the data
valid once synchronization ran?), the chaos soak attacks the *recovery
runtime* (:mod:`repro.recovery`): seed-deterministic plans that crash
one or two ranks mid-run — on top of message drops and a scheduled
stall — are thrown at registry patterns' texts, replayed through the
program simulator on every lowering target, under both ULFM-style
policies. Each run must

* **complete** (the recovery loop converges within its episode budget),
* **be bit-exact**: respawn reproduces the unfaulted baseline at the
  original world size; shrink reproduces the unfaulted baseline at the
  *final* (shrunk) world size — the pattern texts derive all
  partners from ``rank``/``nprocs``, so re-running at the survivor
  count *is* the ULFM re-map,
* **bound its retries**: every retransmission attempt recorded in the
  profile stays under the policy's ``max_retries``.

Every failure is addressable by ``(pattern, target, policy, seed)`` and
replays bit-identically. ``python -m repro.faults.chaos`` runs the
sweep and can emit a recovery-stats JSON artifact for CI.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.faults.fuzz import FUZZ_TARGETS, FUZZ_WATCHDOG, _diff
from repro.faults.plan import FaultPlan, RankCrash, RankStall
from repro.patterns.catalog import PatternSpec, get_pattern
from repro.recovery import (
    POLICIES,
    RecoveryConfig,
    RecoveryError,
    RetryPolicy,
    run_with_recovery,
)
from repro.sim import Engine
from repro.util.rng import stream_rng

#: The registry patterns the soak recovers. Their texts compute every
#: partner from ``rank``/``nprocs``, which is what makes shrink's
#: re-map a plain re-run at the survivor count.
SOAK_NAMES = ("ring", "evenodd", "halo2d", "butterfly", "fanout")

SOAK_CASES = tuple(get_pattern(name) for name in SOAK_NAMES)

#: Retry policy the soak runs under; ``max_retries`` is the bound the
#: retry-span assertion checks.
SOAK_RETRY = RetryPolicy(max_retries=4, backoff=2.0, jitter_frac=0.5)


@dataclass(frozen=True)
class ChaosFailure:
    """One soak failure, addressable for bit-identical replay."""

    pattern: str
    target: str
    policy: str
    seed: int
    detail: str

    def __str__(self) -> str:
        return (f"FAIL {self.pattern} on {self.target} under "
                f"{self.policy} at seed {self.seed}: {self.detail}\n"
                f"  replay: chaos_one({self.pattern!r}, {self.target!r}, "
                f"{self.policy!r}, seed={self.seed})")


def chaos_plan(case: PatternSpec, target: str, seed: int,
               makespan: float, nfail: int) -> FaultPlan:
    """The seed-deterministic crash+drop+stall plan for one triple.

    Crash ranks and times are drawn from a stream keyed by the case,
    target and seed (independent of the per-channel message streams, so
    the same seed still perturbs message timing its own way). Crash
    times land inside the unfaulted makespan so they actually fire.
    """
    rng = stream_rng(seed, 101, SOAK_NAMES.index(case.name),
                     FUZZ_TARGETS.index(target), nfail)
    ranks = rng.choice(case.nprocs, size=nfail, replace=False)
    crashes = tuple(
        RankCrash(rank=int(r), at=float(rng.uniform(0.0, makespan)))
        for r in sorted(int(x) for x in ranks))
    stall_rank = int(rng.integers(case.nprocs))
    stalls = (RankStall(rank=stall_rank,
                        at=float(rng.uniform(0.0, makespan)),
                        duration=makespan * 0.25),)
    return FaultPlan(seed=seed, delay_jitter=1e-5, drop_prob=0.1,
                     stalls=stalls, crashes=crashes)


def chaos_one(pattern: str, target: str, policy: str, seed: int,
              nfail: int = 1, watchdog=FUZZ_WATCHDOG,
              baselines: dict | None = None) -> ChaosFailure | None:
    """Run one (pattern, target, policy, seed) soak; None means passed.

    ``baselines`` maps world size -> unfaulted result values for this
    (pattern, target); pass a shared dict when sweeping seeds so each
    reference world is simulated once.
    """
    case = SOAK_CASES[SOAK_NAMES.index(pattern)]
    main = case.main(target)
    if baselines is None:
        baselines = {}

    def baseline(world: int):
        if world not in baselines:
            baselines[world] = Engine(world).run(main).values
        return baselines[world]

    ref = Engine(case.nprocs).run(main)
    baselines.setdefault(case.nprocs, ref.values)
    plan = chaos_plan(case, target, seed, ref.makespan, nfail)
    config = RecoveryConfig(policy=policy, retry=SOAK_RETRY,
                            valid_world=case.valid_world)
    try:
        res = run_with_recovery(main, case.nprocs,
                                faults=plan, config=config,
                                watchdog=watchdog, profile=True)
    except RecoveryError as exc:
        return ChaosFailure(pattern, target, policy, seed,
                            f"recovery gave up: {exc}")
    except Exception as exc:  # noqa: BLE001 - any escape is a finding
        return ChaosFailure(pattern, target, policy, seed,
                            f"raised {type(exc).__name__}: {exc}")
    # Bounded retries: no recorded attempt may reach the policy's cap.
    over = [s for s in res.profile.of_kind("retry")
            if s.attrs.get("attempt", 0) >= SOAK_RETRY.max_retries]
    if over:
        return ChaosFailure(pattern, target, policy, seed,
                            f"{len(over)} retry span(s) at or past "
                            f"max_retries={SOAK_RETRY.max_retries}")
    # Bit-exact payloads against the policy's reference world.
    world = res.recovery.final_world
    detail = _diff(baseline(world), res.values)
    if detail is not None:
        return ChaosFailure(pattern, target, policy, seed,
                            f"world {world}: {detail}")
    return None


def chaos_soak(patterns: Iterable[str] = SOAK_NAMES,
               targets: Iterable[str] = FUZZ_TARGETS,
               policies: Iterable[str] = POLICIES,
               seeds: Iterable[int] = range(50),
               nfail: int = 1,
               watchdog=FUZZ_WATCHDOG,
               progress: Callable[[str], None] | None = None,
               stats: dict | None = None) -> list[ChaosFailure]:
    """Sweep seeds over (pattern, target, policy); returns all failures.

    ``stats``, when given, is filled with one record per combination
    (runs / failures) — the recovery-stats artifact the CI job uploads.
    """
    seeds = list(seeds)
    failures: list[ChaosFailure] = []
    for pattern in patterns:
        for target in targets:
            baselines: dict = {}
            for policy in policies:
                bad = 0
                for seed in seeds:
                    failure = chaos_one(pattern, target, policy, seed,
                                        nfail=nfail, watchdog=watchdog,
                                        baselines=baselines)
                    if failure is not None:
                        failures.append(failure)
                        bad += 1
                if stats is not None:
                    key = f"{pattern}/{target}/{policy}"
                    stats[key] = {"runs": len(seeds), "failures": bad,
                                  "nfail": nfail}
                if progress is not None:
                    progress(f"{pattern:>9s} x {target:<22s} x "
                             f"{policy:<7s} {len(seeds) - bad}/"
                             f"{len(seeds)} seeds ok")
    return failures


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: ``python -m repro.faults.chaos``."""
    parser = argparse.ArgumentParser(
        description="chaos-soak the recovery runtime")
    parser.add_argument("--patterns", nargs="*", default=list(SOAK_NAMES),
                        choices=list(SOAK_NAMES))
    parser.add_argument("--targets", nargs="*", default=list(FUZZ_TARGETS),
                        choices=list(FUZZ_TARGETS))
    parser.add_argument("--policies", nargs="*", default=list(POLICIES),
                        choices=list(POLICIES))
    parser.add_argument("--seeds", type=int, default=50,
                        help="seeds per combination (default 50)")
    parser.add_argument("--nfail", type=int, default=1,
                        help="ranks crashed per run (default 1)")
    parser.add_argument("--stats-out", metavar="PATH",
                        help="write the recovery-stats artifact here")
    args = parser.parse_args(argv)

    stats: dict = {}
    failures = chaos_soak(args.patterns, args.targets, args.policies,
                          range(args.seeds), nfail=args.nfail,
                          progress=lambda line: print(line, flush=True),
                          stats=stats)
    if args.stats_out:
        artifact = {
            "seeds": args.seeds, "nfail": args.nfail,
            "combinations": stats,
            "failures": [vars(f) for f in failures],
        }
        with open(args.stats_out, "w", encoding="utf-8") as f:
            json.dump(artifact, f, indent=2, sort_keys=True)
            f.write("\n")
    for failure in failures:
        print(failure, file=sys.stderr)
    print(f"chaos soak: {len(failures)} failure(s) over "
          f"{len(args.patterns) * len(args.targets) * len(args.policies)}"
          f" combination(s) x {args.seeds} seed(s)")
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
