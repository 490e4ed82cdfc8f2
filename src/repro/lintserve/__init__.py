"""Sharded, memoized lint service — verification as infrastructure.

The paper's directive toolchain is only useful at scale if whole-tree
verification is cheap enough to run on every commit. Verification
cost is per file and embarrassingly parallel, so
this package is the one path every ``repro-lint`` invocation lints
its files through:

* :mod:`~repro.lintserve.scheduler` runs
  :func:`~repro.core.analysis.lint.lint_program` once per file,
  fanning the files over a ``ProcessPoolExecutor`` (``--jobs N``;
  inline at the default ``N = 1``), and returns the reports in file
  order, so the output is byte-identical whatever the job count;
* :mod:`~repro.lintserve.cache` memoizes each file's finished report
  on disk, keyed by content hash + an analysis-version salt, so
  re-lints of an unchanged tree cost one hash lookup per file
  (``--cache-dir``);
* :mod:`~repro.lintserve.merge` is the report's exact JSON round
  trip, the form workers return and the cache stores.

The differential-oracle sweep (``repro-gen --jobs``) reuses the same
pool helper. See ``docs/LINTSERVE.md`` for the architecture and the CI
topology built on top.
"""

from repro.lintserve.cache import (
    ResultCache,
    analysis_salt,
    unit_key,
)
from repro.lintserve.scheduler import (
    FileTask,
    LintServiceStats,
    lint_sources,
    pool_map,
)

__all__ = [
    "FileTask",
    "LintServiceStats",
    "ResultCache",
    "analysis_salt",
    "lint_sources",
    "pool_map",
    "unit_key",
]
