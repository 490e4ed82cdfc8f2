"""Work-sharded lint driver: one task and one cache entry per file.

The unit of memoization and of execution is one file: its lint is a
pure function of (source text, nprocs, extra vars, swept targets,
advise), the :class:`FileTask`. :func:`lint_file` parses the source
once and runs :func:`~repro.core.analysis.lint.lint_program`, the one
composition of the lint passes, on it. The finished report, in the
JSON form of :mod:`repro.lintserve.merge`, is what a worker returns
and what the cache stores under the task's key, so a 1000-file tree
is 1000 cache entries and an incremental re-lint re-executes only the
files that changed. Files with the same task in one call (a copied
file) run once and are stored once.

Scheduling is deterministic-by-construction: tasks are *generated* in
file order, *executed* in any order (``ProcessPoolExecutor.map`` over
the cache misses), and every report is rebuilt from its entry
strictly in file order, on a cache hit and on a miss alike —
completion order never influences the output, which is what keeps
``--jobs N`` output byte-identical for every ``N``.

Each entry carries its task's wall time (also in the cache); the
run's stats sum the executed ones as ``executed_wall_s`` and count
``units_*`` in input files.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

from repro.core.analysis.codes import make
from repro.core.analysis.lint import LintReport, lint_program
from repro.core.clauses import Target
from repro.core.pragma import parse_program
from repro.errors import ReproError
from repro.lintserve.cache import ResultCache
from repro.lintserve.merge import report_from_dict, report_to_dict

__all__ = ["FileTask", "LintServiceStats", "lint_file", "lint_sources",
           "pool_map"]


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


def lint_file(task: FileTask) -> dict:
    """Lint one file (in a pool worker or inline) into its cache entry.

    The entry holds the ``lint_program`` report as
    :func:`~repro.lintserve.merge.report_to_dict` serializes it
    (``report``) and the task's wall time (``wall_s``). A source the
    parser rejects gives a report with one CI000 diagnostic at the
    parser's line.
    """
    t_start = time.perf_counter()
    try:
        program = parse_program(task.source)
    except ReproError as exc:
        report = LintReport()
        report.diagnostics.append(make(
            "CI000", getattr(exc, "line", None) or 0, str(exc)))
    else:
        report = lint_program(
            program, task.nprocs, dict(task.extra_vars) or None,
            targets=[Target.parse(t) for t in task.swept],
            advise=task.advise)
    return {"report": report_to_dict(report),
            "wall_s": time.perf_counter() - t_start}


@dataclass
class LintServiceStats:
    """One run's scheduling/memoization counters (``--stats-out``)."""

    files: int = 0
    units_total: int = 0
    units_from_cache: int = 0
    units_executed: int = 0
    jobs: int = 1
    wall_s: float = 0.0
    #: Sum of the executed files' own wall times (the pool's work).
    executed_wall_s: float = 0.0
    cache: dict | None = None

    @property
    def hit_rate(self) -> float:
        """Fraction of input files served from the cache."""
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
    entries: dict[FileTask, dict] = {}
    pending: list[FileTask] = []
    keys: dict[FileTask, str] = {}
    for task in dict.fromkeys(tasks):
        if cache is not None:
            keys[task] = key = cache.key(task)
            hit = cache.get(key)
            if hit is not None:
                entries[task] = hit
                continue
        pending.append(task)

    for task, entry in zip(pending, pool_map(lint_file, pending, jobs)):
        entries[task] = entry
        stats.executed_wall_s += entry["wall_s"]
        if cache is not None:
            cache.put(keys[task], entry)

    executed = set(pending)
    stats.units_total = len(sources)
    stats.units_executed = sum(task in executed for task in tasks)
    stats.units_from_cache = stats.units_total - stats.units_executed
    reports = [report_from_dict(path, entries[task]["report"])
               for (path, _source), task in zip(sources, tasks)]
    stats.wall_s = time.perf_counter() - t_start
    if cache is not None:
        stats.cache = cache.stats()
    return reports, stats
