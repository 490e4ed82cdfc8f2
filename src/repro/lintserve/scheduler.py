"""Work-sharded lint driver: one task and one cache entry per file.

The unit of memoization and of execution is one file: its lint is a
pure function of (source text, nprocs, extra vars, swept targets,
advise), the :class:`FileTask`. A task parses the source once, plans
its synchronization once, runs the verifier once for the whole target
sweep (one rank walk serves every target) and fills the file's result
*slots* — the decomposition
:func:`repro.core.analysis.lint.lint_program` itself is built from:
the target-independent ``structure`` slot, one ``verify:<target>``
slot per swept target and, under ``--advise``, the ``advise`` slot.
The slot map is what a worker returns, what the cache stores under
the task's key and what :mod:`repro.lintserve.merge` assembles, so a
1000-file tree is 1000 cache entries and an incremental re-lint
re-executes only the files that changed. Files with the same task in
one call (a copied file) run once and are stored once.

Scheduling is deterministic-by-construction: tasks are *generated* in
file order, *executed* in any order (``ProcessPoolExecutor.map`` over
the cache misses), and *merged* strictly in file order by
:mod:`repro.lintserve.merge` — completion order never influences the
report, which is what keeps ``--jobs N`` output byte-identical for
every ``N``.

Every executed slot's wall time rides along in its result dict (and
in the cache); the run's stats sum them as ``executed_wall_s`` and
count ``units_*`` in slots.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

from repro.core.analysis.lint import (
    LintReport,
    advise_diagnostics,
    structure_report,
)
from repro.core.analysis.syncopt import plan_synchronization
from repro.core.analysis.verify import verify_all_targets
from repro.core.clauses import Target
from repro.core.pragma import parse_program
from repro.errors import ReproError
from repro.lintserve.cache import ResultCache
from repro.lintserve.merge import (
    assemble_file_report,
    serialize_diagnostics,
    serialize_structure,
)

__all__ = ["FileTask", "LintServiceStats", "lint_sources", "pool_map",
           "run_file_units"]


class FileTask(NamedTuple):
    """One file's lint inputs: the pool task and the cache-key payload.

    The display path is deliberately absent — a renamed-but-unchanged
    file must hit.
    """

    source: str          # the file's text (workers never touch disk)
    nprocs: int
    extra_vars: tuple[tuple[str, int], ...]
    swept: tuple[str, ...]
    advise: bool


def run_file_units(task: FileTask) -> dict[str, dict]:
    """Lint one file (in a pool worker or inline) into its slot map.

    One parse, one sync plan and one verifier sweep serve every slot,
    as in ``lint_program``. Each slot carries its share of the file's
    wall time: ``structure`` the parse, plan and per-directive checks,
    each ``verify:<target>`` an equal share of the one sweep, and
    ``advise`` the advisor.

    A parse failure is a *result*, not an exception: the map holds
    only a ``structure`` slot with the ``parse_error``, which the
    merge turns into the CI000 report.
    """
    t_start = time.perf_counter()
    extra_vars = dict(task.extra_vars) or None
    swept = [Target.parse(t) for t in task.swept]
    try:
        program = parse_program(task.source)
    except ReproError as exc:
        line = getattr(exc, "line", None) or 0
        return {"structure": {
            "parse_error": {"line": line, "message": str(exc)},
            "wall_s": time.perf_counter() - t_start}}
    plan = plan_synchronization(program)
    out = {"structure": serialize_structure(structure_report(
        program, task.nprocs, extra_vars, targets=swept, plan=plan))}
    t_verify = time.perf_counter()
    out["structure"]["wall_s"] = t_verify - t_start
    verdicts = verify_all_targets(program, nprocs=task.nprocs,
                                  extra_vars=extra_vars, plan=plan,
                                  targets=swept)
    t_done = time.perf_counter()
    share = (t_done - t_verify) / len(swept)
    for target in swept:
        out[f"verify:{target.value}"] = {
            "diagnostics": serialize_diagnostics(
                verdicts[target].diagnostics),
            "wall_s": share}
    if task.advise:
        diags = advise_diagnostics(program, task.nprocs, extra_vars,
                                   swept)
        out["advise"] = {"diagnostics": serialize_diagnostics(diags),
                         "wall_s": time.perf_counter() - t_done}
    return out


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
        """JSON form for ``--stats-out``."""
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


def pool_map(fn: Callable, items: Sequence, jobs: int) -> list:
    """Order-preserving parallel map with sequential fallback.

    ``jobs <= 1`` (and the empty/singleton case) runs inline — no pool
    spin-up for work that cannot amortize it.
    """
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    chunksize = max(1, len(items) // (jobs * 4))
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items, chunksize=chunksize))


def lint_sources(sources: Sequence[tuple[str, str]], *,
                 nprocs: int = 8,
                 extra_vars: dict[str, int] | None = None,
                 targets: Iterable[Target] | None = None,
                 advise: bool = False,
                 jobs: int = 1,
                 cache: ResultCache | None = None
                 ) -> tuple[list[LintReport], LintServiceStats]:
    """Lint ``(path, source)`` pairs: the CLI's one lint path.

    Returns the reports in input order plus the run's scheduling
    stats. With ``cache`` set, each distinct file task does one lookup
    before the pool and, on a miss, one store after it; with
    ``jobs > 1`` the missed tasks fan over a ``ProcessPoolExecutor``,
    otherwise they run inline.
    """
    t_start = time.perf_counter()
    swept = list(targets) if targets else list(Target)
    vars_t = tuple(sorted((extra_vars or {}).items()))
    swept_t = tuple(t.value for t in swept)
    stats = LintServiceStats(files=len(sources), jobs=max(1, jobs))

    tasks = [FileTask(source, nprocs, vars_t, swept_t, advise)
             for _path, source in sources]
    results: dict[FileTask, dict[str, dict]] = {}
    pending: list[FileTask] = []
    keys: dict[FileTask, str] = {}
    for task in dict.fromkeys(tasks):
        if cache is not None:
            keys[task] = key = cache.key(task)
            hit = cache.get(key)
            if hit is not None:
                results[task] = hit
                continue
        pending.append(task)
    executed = set(pending)

    for task, slots in zip(pending, pool_map(run_file_units, pending,
                                             jobs)):
        results[task] = slots
        stats.executed_wall_s += sum(slot["wall_s"]
                                     for slot in slots.values())
        if cache is not None:
            cache.put(keys[task], slots)

    # structure, one verify:<target> per swept target, advise
    n_slots = 1 + len(swept) + int(advise)
    stats.units_total = n_slots * len(sources)
    reports: list[LintReport] = []
    for (path, _source), task in zip(sources, tasks):
        if task in executed:
            stats.units_executed += n_slots
        reports.append(assemble_file_report(path, results[task], swept,
                                            advise))
    stats.units_from_cache = stats.units_total - stats.units_executed
    stats.wall_s = time.perf_counter() - t_start
    if cache is not None:
        stats.cache = cache.stats()
    return reports, stats
