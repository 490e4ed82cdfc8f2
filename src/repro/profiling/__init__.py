"""Span-based profiling of simulated runs (``repro.profiling``).

The simulator's one event stream: this package records **spans** —
begin/end intervals in virtual time carrying directive, sync-plan and
message identity — and builds the analyses the paper's performance
story needs on top of them (the communication matrix,
:func:`repro.sim.comm_matrix`, reads the same spans):

* :mod:`repro.profiling.spans` — the :class:`Profile` recorder the
  engine and the communication libraries emit into
  (``Engine(profile=True)`` / ``RunResult.profile``);
* :mod:`repro.profiling.metrics` — per-rank / per-directive aggregation
  (bytes, message counts, time in post/compute/sync, realized-overlap
  ratio, forfeited-overlap seconds);
* :mod:`repro.profiling.chrome` — Chrome trace-event JSON exporter
  (loadable in Perfetto / ``chrome://tracing``);
* :mod:`repro.profiling.critpath` — critical-path extraction over the
  dynamic happens-before edges (reusing the verifier's
  :mod:`repro.core.analysis.hb` graph machinery);
* :mod:`repro.profiling.cli` — the ``repro-trace`` command line tool.

See ``docs/PROFILING.md`` for the span schema and metric definitions.
"""

from repro.profiling.spans import Profile, Span
from repro.profiling.metrics import ProfileMetrics, RankMetrics, aggregate
from repro.profiling.chrome import chrome_trace, export_chrome
from repro.profiling.critpath import CriticalPath, critical_path

__all__ = [
    "Profile",
    "Span",
    "ProfileMetrics",
    "RankMetrics",
    "aggregate",
    "chrome_trace",
    "export_chrome",
    "CriticalPath",
    "critical_path",
]
