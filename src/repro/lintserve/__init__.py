"""Sharded, memoized lint service — verification as infrastructure.

The paper's directive toolchain is only useful at scale if whole-tree
verification is cheap enough to run on every commit. Verification
cost is per (program, nprocs, target) and embarrassingly parallel, so
this package turns the one-shot ``repro-lint`` CLI into a service:

* :mod:`~repro.lintserve.scheduler` fans per-file lint tasks over a
  ``ProcessPoolExecutor`` and merges results deterministically —
  ``--jobs N`` output is byte-identical to the sequential path;
* :mod:`~repro.lintserve.cache` memoizes each file's result on disk,
  keyed by content hash + an analysis-version salt, so re-lints of an
  unchanged tree cost one hash lookup per file (``--cache-dir``);
* :mod:`~repro.lintserve.merge` owns result (de)serialization and the
  byte-identical report assembly both of the above rely on;
* :mod:`~repro.lintserve.daemon` keeps a warm pool + cache behind a
  unix socket for editor/CI reuse (``--serve``).

The differential-oracle sweep (``repro-gen --jobs/--cache-dir``)
reuses the same pool helper and cache store. See ``docs/LINTSERVE.md``
for the architecture and the CI topology built on top.
"""

from repro.lintserve.cache import (
    MemoryCache,
    ResultCache,
    analysis_salt,
    unit_key,
)
from repro.lintserve.daemon import (
    LintDaemon,
    LintRequest,
    execute_request,
    request_over_socket,
)
from repro.lintserve.merge import assemble_file_report
from repro.lintserve.scheduler import (
    FileTask,
    LintServiceStats,
    lint_sources,
    pool_map,
)

__all__ = [
    "FileTask",
    "LintDaemon",
    "LintRequest",
    "LintServiceStats",
    "MemoryCache",
    "ResultCache",
    "analysis_salt",
    "assemble_file_report",
    "execute_request",
    "lint_sources",
    "pool_map",
    "request_over_socket",
    "unit_key",
]
