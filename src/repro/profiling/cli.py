"""``repro-trace``: profile a simulated run and analyse its spans.

Three ways to obtain a profiled run:

* a **pragma source file** (the translator's input format), replayed
  through :func:`repro.core.analysis.progsim.simulate_program`::

      repro-trace examples/pragmas/slow/early_sync.c --critical-path

* a **communication pattern** from the catalog: its pragma text,
  replayed exactly like a source file at the text's world size and
  bindings::

      repro-trace --pattern halo2d --target shmem --metrics

* the **WL-LSMS application** (directive variant, quick
  configuration)::

      repro-trace --app wllsms --export-chrome wllsms.json

Actions (combinable; ``--metrics`` is the default):

* ``--metrics`` — the per-rank / per-directive aggregation table,
  including the realized-overlap ratio and forfeited-overlap seconds;
* ``--critical-path`` — the longest dependency chain through the run
  with its per-kind breakdown, plus the forfeited-overlap figure to
  cross-check against ``repro-lint``'s CI101/CI102 estimated saving;
* ``--export-chrome FILE`` — trace-event JSON loadable in Perfetto or
  ``chrome://tracing``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Sequence

from repro.core.cli import TARGET_ALIASES, var_binding
from repro.patterns.catalog import PATTERNS
from repro.profiling.chrome import export_chrome
from repro.profiling.critpath import critical_path
from repro.profiling.metrics import aggregate
from repro.profiling.spans import Profile


def _profile_program(program: Any, nprocs: int, target: str,
                     extra_vars: dict[str, int]) -> Profile:
    from repro.core.analysis.progsim import simulate_program

    outcome = simulate_program(program, nprocs=nprocs,
                               target=TARGET_ALIASES[target],
                               extra_vars=extra_vars, profile=True)
    assert outcome.profile is not None
    return outcome.profile


def _read_source(path: str) -> Any:
    from repro.core.pragma import parse_program

    try:
        with open(path, "r", encoding="utf-8") as f:
            return parse_program(f.read())
    except OSError as exc:
        raise SystemExit(f"repro-trace: cannot read {path}: {exc}")


def _profile_app(nprocs: int | None, target: str) -> Profile:
    from repro.apps.wllsms.app import AppConfig, run_app

    config = AppConfig(n_lsms=2, group_size=4, t=32, tc=4, wl_steps=2,
                       variant="directive",
                       target=TARGET_ALIASES[target].value, profile=True)
    if nprocs is not None and nprocs != config.nprocs:
        raise SystemExit(
            f"repro-trace: the quick WL-LSMS configuration runs on "
            f"{config.nprocs} ranks; --nprocs cannot override it")
    result = run_app(config)
    assert result.profile is not None
    return result.profile


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point for ``repro-trace``; returns the exit status."""
    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description="Profile a simulated run: span metrics, "
                    "critical path, Chrome trace export.")
    parser.add_argument("source", nargs="?", default=None,
                        help="annotated pragma source file to replay")
    parser.add_argument("--pattern", choices=sorted(PATTERNS),
                        help="profile a catalog communication pattern")
    parser.add_argument("--app", choices=["wllsms"],
                        help="profile an application (quick config)")
    parser.add_argument("--target", choices=sorted(TARGET_ALIASES),
                        default="mpi2s",
                        help="lowering target (default: mpi2s)")
    parser.add_argument("--nprocs", type=int, default=None,
                        help="simulated world size (defaults: 8 for "
                             "sources, per-pattern otherwise)")
    parser.add_argument("--var", action="append", default=[],
                        type=var_binding, metavar="NAME=VALUE",
                        help="bind a free clause variable (repeatable)")
    parser.add_argument("--metrics", action="store_true",
                        help="print the per-rank/per-directive table "
                             "(default action)")
    parser.add_argument("--critical-path", action="store_true",
                        help="print the longest dependency chain")
    parser.add_argument("--export-chrome", metavar="FILE", default=None,
                        help="write trace-event JSON for Perfetto")
    args = parser.parse_args(argv)

    sources = [s for s in (args.source, args.pattern, args.app)
               if s is not None]
    if len(sources) != 1:
        parser.error("exactly one of a source file, --pattern or --app "
                     "is required")
    if args.nprocs is not None and args.nprocs < 1:
        parser.error("--nprocs must be positive")

    extra_vars = dict(args.var)
    if args.pattern is not None:
        spec = PATTERNS[args.pattern]
        profile = _profile_program(spec.program(),
                                   args.nprocs or spec.nprocs, args.target,
                                   {**spec.bindings, **extra_vars})
    elif args.app is not None:
        profile = _profile_app(args.nprocs, args.target)
    else:
        profile = _profile_program(_read_source(args.source),
                                   args.nprocs or 8, args.target,
                                   extra_vars)

    did_something = False
    if args.export_chrome is not None:
        export_chrome(profile, args.export_chrome)
        print(f"wrote {args.export_chrome} "
              f"({len(profile)} spans, {profile.nranks} ranks)")
        did_something = True
    if args.critical_path:
        print(critical_path(profile).render())
        did_something = True
    if args.metrics or not did_something:
        if did_something:
            print()
        print(aggregate(profile).render())
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
