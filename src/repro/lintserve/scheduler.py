"""Work-sharded lint driver: files × targets fanned over a pool.

The unit of memoization is deliberately smaller than a file: one
file's lint decomposes into a target-independent **structure** unit,
one **verify** unit per swept lowering target, and (under
``--advise``) one **advisor** unit — the decomposition
:func:`repro.core.analysis.lint.lint_program` itself is built from.
Each unit is a pure function of (source text, nprocs, extra vars,
target), so units memoize independently: a 1000-file tree at three
targets is ~4000 cache entries, and an incremental re-lint re-executes
only the units of files that changed.

The unit of *execution* is one file's pending units
(:func:`run_file_units`): they share one parse and one sync plan, as
``lint_program`` shares them, and the pool fans those per-file tasks.

Scheduling is deterministic-by-construction: units are *generated* in
file order, *executed* in any order (``ProcessPoolExecutor.map`` over
the cache misses), and *merged* strictly in generation order by
:mod:`repro.lintserve.merge` — completion order never influences the
report, which is what keeps ``--jobs N`` output byte-identical to the
sequential path.

Every executed unit's wall time rides along in its result dict (and
in the cache); the run's stats sum them as ``executed_wall_s``.
"""

from __future__ import annotations

import time
from concurrent.futures import Executor, ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.core.analysis.lint import (
    LintReport,
    advise_diagnostics,
    structure_report,
    verify_target_diagnostics,
)
from repro.core.analysis.syncopt import plan_synchronization
from repro.core.clauses import Target
from repro.core.pragma import parse_program
from repro.errors import ReproError
from repro.lintserve.cache import ResultCache
from repro.lintserve.merge import (
    assemble_file_report,
    serialize_diagnostics,
    serialize_structure,
)

__all__ = ["LintServiceStats", "UnitSpec", "lint_sources", "pool_map",
           "run_file_units"]


@dataclass(frozen=True)
class UnitSpec:
    """One shardable quantum of lint work (picklable, hashable)."""

    path: str            # display path (not part of the cache key)
    kind: str            # "structure" | "verify" | "advise"
    target: str          # target value for verify units, else ""
    source: str          # the file's text (workers never touch disk)
    nprocs: int
    extra_vars: tuple[tuple[str, int], ...]
    swept: tuple[str, ...]

    @property
    def name(self) -> str:
        """The unit's slot in its file's result map."""
        return f"verify:{self.target}" if self.kind == "verify" \
            else self.kind

    def payload(self) -> tuple:
        """The cache-key payload: every input the unit depends on.

        The path is deliberately excluded — a renamed-but-unchanged
        file must hit. ``swept`` participates only where it matters
        (the advisor picks its target from the sweep).
        """
        if self.kind == "verify":
            return (self.source, self.nprocs, self.extra_vars,
                    self.target)
        if self.kind == "advise":
            return (self.source, self.nprocs, self.extra_vars,
                    self.swept)
        return (self.source, self.nprocs, self.extra_vars)


def run_file_units(specs: Sequence[UnitSpec]) -> list[dict]:
    """Execute one file's pending units (in a pool worker or inline).

    ``specs`` share (source, nprocs, extra vars, sweep), so they run
    against one parse and one sync plan, as in ``lint_program``. Each
    result carries the wall time since the previous one, so the first
    unit's ``wall_s`` includes the shared parse and plan.

    A parse failure is a *result*, not an exception — every unit of a
    broken file reports the same ``parse_error`` and the merge turns
    it into the CI000 report, exactly like the sequential CLI.
    """
    t_prev = time.perf_counter()
    first = specs[0]
    extra_vars = dict(first.extra_vars) or None
    swept = [Target.parse(t) for t in first.swept]
    try:
        program = parse_program(first.source)
    except ReproError as exc:
        line = getattr(exc, "line", None) or 0
        error = {"line": line, "message": str(exc)}
        program = None
    else:
        plan = plan_synchronization(program)
    results: list[dict] = []
    for spec in specs:
        out: dict
        if program is None:
            out = {"parse_error": dict(error)}
        elif spec.kind == "structure":
            report = structure_report(program, spec.nprocs, extra_vars,
                                      spec.path, targets=swept,
                                      plan=plan)
            out = serialize_structure(report)
        elif spec.kind == "verify":
            diags = verify_target_diagnostics(
                program, spec.nprocs, extra_vars,
                Target.parse(spec.target), plan=plan)
            out = {"diagnostics": serialize_diagnostics(diags)}
        elif spec.kind == "advise":
            diags = advise_diagnostics(program, spec.nprocs, extra_vars,
                                       swept)
            out = {"diagnostics": serialize_diagnostics(diags)}
        else:
            raise ValueError(f"unknown unit kind {spec.kind!r}")
        now = time.perf_counter()
        out["wall_s"] = now - t_prev
        t_prev = now
        results.append(out)
    return results


def file_units(path: str, source: str, nprocs: int,
               extra_vars: dict[str, int] | None,
               swept: Sequence[Target],
               advise: bool) -> list[UnitSpec]:
    """The unit decomposition of one file, in merge order."""
    vars_t = tuple(sorted((extra_vars or {}).items()))
    swept_t = tuple(t.value for t in swept)
    units = [UnitSpec(path, "structure", "", source, nprocs, vars_t,
                      swept_t)]
    units.extend(UnitSpec(path, "verify", value, source, nprocs,
                          vars_t, swept_t) for value in swept_t)
    if advise:
        units.append(UnitSpec(path, "advise", "", source, nprocs,
                              vars_t, swept_t))
    return units


@dataclass
class LintServiceStats:
    """One run's scheduling/memoization counters (``--stats-out``)."""

    files: int = 0
    units_total: int = 0
    units_from_cache: int = 0
    units_executed: int = 0
    jobs: int = 1
    wall_s: float = 0.0
    #: Sum of executed units' own wall times (the work the pool did).
    executed_wall_s: float = 0.0
    cache: dict | None = None

    @property
    def hit_rate(self) -> float:
        """Fraction of units served from the cache."""
        return (self.units_from_cache / self.units_total
                if self.units_total else 0.0)

    def as_dict(self) -> dict:
        """JSON form for ``--stats-out`` and daemon responses."""
        out = {
            "files": self.files,
            "units_total": self.units_total,
            "units_from_cache": self.units_from_cache,
            "units_executed": self.units_executed,
            "hit_rate": round(self.hit_rate, 4),
            "jobs": self.jobs,
            "wall_s": round(self.wall_s, 6),
            "executed_wall_s": round(self.executed_wall_s, 6),
        }
        if self.cache is not None:
            out["cache"] = self.cache
        return out


def pool_map(fn: Callable, items: Sequence, jobs: int,
             executor: Executor | None = None) -> list:
    """Order-preserving parallel map with sequential fallback.

    ``jobs <= 1`` (and the empty/singleton case) runs inline — no pool
    spin-up for work that cannot amortize it. A caller-owned
    ``executor`` (the daemon's warm pool) is reused, not shut down.
    """
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    chunksize = max(1, len(items) // (jobs * 4))
    if executor is not None:
        return list(executor.map(fn, items, chunksize=chunksize))
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items, chunksize=chunksize))


def lint_sources(sources: Sequence[tuple[str, str]], *,
                 nprocs: int = 8,
                 extra_vars: dict[str, int] | None = None,
                 targets: Iterable[Target] | None = None,
                 advise: bool = False,
                 jobs: int = 1,
                 cache: ResultCache | None = None,
                 executor: Executor | None = None
                 ) -> tuple[list[LintReport], LintServiceStats]:
    """Lint ``(path, source)`` pairs through the sharded/memoized path.

    Returns the reports in input order plus the run's scheduling
    stats. With ``cache`` set, units hit the on-disk store before the
    pool; with ``jobs > 1`` the remaining units fan over a
    ``ProcessPoolExecutor`` (or the caller's warm ``executor``).
    """
    t_start = time.perf_counter()
    swept = list(targets) if targets else list(Target)
    stats = LintServiceStats(files=len(sources), jobs=max(1, jobs))

    units: list[UnitSpec] = []
    for path, source in sources:
        units.extend(file_units(path, source, nprocs, extra_vars,
                                swept, advise))
    stats.units_total = len(units)

    results: dict[UnitSpec, dict] = {}
    pending: list[UnitSpec] = []
    keys: dict[UnitSpec, str] = {}
    for spec in units:
        if cache is not None:
            key = cache.key(spec.kind, spec.payload())
            keys[spec] = key
            hit = cache.get(key)
            if hit is not None:
                results[spec] = hit
                continue
        pending.append(spec)

    stats.units_from_cache = len(results)
    stats.units_executed = len(pending)
    by_file: dict[tuple, list[UnitSpec]] = {}
    for spec in pending:
        by_file.setdefault((spec.source, spec.nprocs, spec.extra_vars,
                            spec.swept), []).append(spec)
    groups = list(by_file.values())
    for group, outs in zip(groups, pool_map(run_file_units, groups,
                                            jobs, executor)):
        results.update(zip(group, outs))
    for spec in pending:
        result = results[spec]
        stats.executed_wall_s += result.get("wall_s", 0.0)
        if cache is not None:
            cache.put(keys[spec], result)

    reports: list[LintReport] = []
    for path, source in sources:
        file_specs = file_units(path, source, nprocs, extra_vars,
                                swept, advise)
        named = {spec.name: results[spec] for spec in file_specs}
        reports.append(
            assemble_file_report(path, named, swept, advise))
    stats.wall_s = time.perf_counter() - t_start
    if cache is not None:
        stats.cache = cache.stats()
    return reports, stats
