"""CLI: translate pragma-annotated source (the compiler as a tool).

Usage::

    python -m repro.core.pragma INPUT.c [--target mpi2s|mpi1s|shmem]
                                        [--fortran]

Reads C-like source containing ``#pragma comm_parameters`` /
``#pragma comm_p2p`` directives and prints the translated source.

A second console entry point, ``repro-lint`` (:func:`main_lint`), runs
every static analysis over one or more files: the sync plan, each
directive's pattern, SPMD matching (CI004-006) and overlap legality
(CI010), and the whole-program verifier (deadlock, stale-read and
consolidation proofs — see ``docs/LINT.md``). It renders text, JSON
or SARIF 2.1.0 and exits 1 when any error-severity diagnostic is
produced (``--fail-on warning`` widens the gate to warnings).
``--advise`` additionally runs the CI1xx performance advisor, and
``--fix`` / ``--fix-dry-run`` run the proof-carrying auto-fix engine
(every rewrite must re-verify CI0xx-clean on all lowering targets and
must not regress the modeled time before it is accepted).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.core.analysis import (
    FixResult,
    fix_source,
    lint_program,
    render_json,
    render_sarif,
)
from repro.core.analysis.lint import LintReport
from repro.core.clauses import Target
from repro.core.cli import TARGET_ALIASES, var_binding
from repro.core.codegen import generate_c, generate_fortran
from repro.core.pragma import parse_program
from repro.errors import ReproError
from repro.lintserve import ResultCache, lint_sources


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.core.pragma",
        description="Translate comm-directive pragmas to library calls.")
    parser.add_argument("input", help="annotated C-like source file")
    parser.add_argument("--target", choices=sorted(TARGET_ALIASES),
                        default="mpi2s",
                        help="default translation target (a directive's "
                             "own target clause still wins)")
    parser.add_argument("--fortran", action="store_true",
                        help="emit the Fortran skeleton instead of C")
    args = parser.parse_args(argv)

    try:
        with open(args.input, encoding="utf-8") as fh:
            source = fh.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        program = parse_program(source)
        if args.fortran:
            print(generate_fortran(program, TARGET_ALIASES[args.target]))
        else:
            print(generate_c(program, TARGET_ALIASES[args.target]))
    except ReproError as exc:
        print(f"translation error: {exc}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# repro-lint


def _catalog_reports(targets: list[Target] | None = None,
                     advise: bool = False,
                     fixes: dict[str, FixResult] | None = None
                     ) -> list[LintReport]:
    """Lint every pattern catalog entry's pragma text.

    Each text is linted at its registry world size with its registry
    bindings. When ``fixes`` is given, each entry is also run through
    the proof-carrying fix engine (dry-run: catalog texts have no file
    to write back to) and the resulting ledger is stored under the
    entry's ``catalog:<name>`` path.
    """
    from repro.patterns.catalog import PATTERNS

    reports: list[LintReport] = []
    for name, spec in sorted(PATTERNS.items()):
        reports.append(lint_program(
            spec.program(), nprocs=spec.nprocs, extra_vars=spec.bindings,
            path=f"catalog:{name}", targets=targets, advise=advise))
        if fixes is not None:
            fixes[f"catalog:{name}"] = fix_source(
                spec.source, nprocs=spec.nprocs, extra_vars=spec.bindings)
    return reports


def render_reports(reports: list[LintReport], fmt: str,
                   fixes: dict[str, FixResult] | None = None) -> str:
    """Render lint reports exactly as the CLI prints them.

    The single formatting authority: every ``--jobs`` / ``--cache-dir``
    combination emits this string (trailing newline included), which
    is what "byte-identical output" means mechanically.
    """
    if fmt == "json":
        return render_json(reports, fixes=fixes or None) + "\n"
    if fmt == "sarif":
        return render_sarif(reports) + "\n"
    chunks = []
    for report in reports:
        header = f"== {report.path}" if report.path else "== <input>"
        body = report.render()
        if fixes and report.path in fixes:
            body = f"{body}\n{_render_fix(fixes[report.path])}"
        chunks.append(f"{header}\n{body}")
    return "\n\n".join(chunks) + "\n"


def main_lint(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Statically verify comm-directive pragma sources: "
                    "deadlock freedom, stale-read freedom, and "
                    "consolidation safety across all lowering targets.")
    parser.add_argument("inputs", nargs="*",
                        help="annotated C-like source files")
    parser.add_argument("--format", choices=("text", "json", "sarif"),
                        default="text", help="output format")
    parser.add_argument("--nprocs", type=int, default=8,
                        help="world size the programs are unrolled for "
                             "(default 8)")
    parser.add_argument("--var", action="append", default=[],
                        type=var_binding, metavar="NAME=VALUE",
                        help="bind a free clause-expression name "
                             "(repeatable)")
    parser.add_argument("--catalog", action="store_true",
                        help="also lint the built-in pattern catalog's "
                             "pragma texts (each at its own world size "
                             "and bindings)")
    parser.add_argument("--target", choices=sorted(TARGET_ALIASES),
                        default=None,
                        help="restrict the verifier sweep to one "
                             "lowering target (default: all three)")
    parser.add_argument("--advise", action="store_true",
                        help="also run the CI1xx performance advisor "
                             "(net-model estimated savings)")
    parser.add_argument("--fix", action="store_true",
                        help="apply advisor rewrites that pass both "
                             "proof gates, writing files in place "
                             "(implies --advise)")
    parser.add_argument("--fix-dry-run", action="store_true",
                        help="run the proof-carrying fix engine but "
                             "only report the ledger (implies --advise)")
    parser.add_argument("--fail-on", choices=("error", "warning"),
                        default="error",
                        help="severity threshold for a non-zero exit: "
                             "'error' (default) exits 1 on errors "
                             "only; 'warning' also fails "
                             "warning-severity findings (CI gating)")
    service = parser.add_argument_group(
        "sharded lint service (repro.lintserve; docs/LINTSERVE.md)")
    service.add_argument("--jobs", type=int, default=None, metavar="N",
                         help="fan per-file lint tasks over N "
                              "worker processes (default 1: inline); "
                              "output is byte-identical for every N")
    service.add_argument("--cache-dir", metavar="DIR", default=None,
                         help="memoize per-file results on disk "
                              "(keyed by content hash + "
                              "analysis-version salt); "
                              "re-lints of unchanged files cost one "
                              "hash lookup")
    service.add_argument("--stats-out", metavar="FILE", default=None,
                         help="write scheduler/cache statistics JSON "
                              "(files, hit rate, wall times)")
    args = parser.parse_args(argv)
    if not args.inputs and not args.catalog:
        parser.print_usage(sys.stderr)
        print("repro-lint: error: no inputs (give files or --catalog)",
              file=sys.stderr)
        return 2
    extra_vars = dict(args.var)
    do_fix = args.fix or args.fix_dry_run
    advise = args.advise or do_fix
    targets = [TARGET_ALIASES[args.target]] if args.target else None

    # Every input is read before anything is linted, printed or
    # rewritten: a missing file is a usage error with no side effects.
    sources: list[tuple[str, str]] = []
    for path in args.inputs:
        try:
            with open(path, encoding="utf-8") as fh:
                sources.append((path, fh.read()))
        except OSError as exc:
            print(f"repro-lint: error: {exc}", file=sys.stderr)
            return 2
    cache = (ResultCache(args.cache_dir)
             if args.cache_dir is not None else None)
    jobs = args.jobs if args.jobs is not None else 1
    reports, stats = lint_sources(
        sources, nprocs=args.nprocs, extra_vars=extra_vars or None,
        targets=targets, advise=advise, jobs=jobs, cache=cache)

    fixes: dict[str, FixResult] = {}
    if do_fix:
        # One proof and one write per distinct path, however often it
        # is named.
        for path, source in dict(sources).items():
            try:
                parse_program(source)
            except ReproError:
                continue  # the report already carries CI000
            result = fix_source(source, nprocs=args.nprocs,
                                extra_vars=extra_vars or None)
            fixes[path] = result
            if args.fix and result.changed:
                try:
                    with open(path, "w", encoding="utf-8") as fh:
                        fh.write(result.source)
                except OSError as exc:
                    print(f"repro-lint: error: {exc}", file=sys.stderr)
                    return 2
                print(f"repro-lint: fixed {path} "
                      f"({len(result.accepted)} rewrite(s) proven)",
                      file=sys.stderr)
    if args.catalog:
        reports.extend(_catalog_reports(
            targets=targets, advise=advise,
            fixes=fixes if do_fix else None))

    if args.jobs is not None or cache is not None:
        print(f"repro-lint: {stats.units_total} file(s): "
              f"{stats.units_from_cache} cached, "
              f"{stats.units_executed} executed with --jobs {jobs} "
              f"in {stats.wall_s:.2f}s "
              f"(hit rate {stats.hit_rate:.0%})", file=sys.stderr)
    if args.stats_out is not None:
        payload = stats.as_dict()
        if cache is not None:
            payload["salt"] = cache.salt
        with open(args.stats_out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    sys.stdout.write(render_reports(reports, args.format,
                                    fixes=fixes or None))
    return _aggregate_exit(reports, args.fail_on)


def _aggregate_exit(reports: list[LintReport], fail_on: str) -> int:
    """The merged run's exit status under ``--fail-on``.

    A single error-severity finding in *any* report (any shard, cached
    or executed) fails the whole run.
    """
    failing = any(r.errors for r in reports)
    if fail_on == "warning":
        failing = failing or any(r.warnings for r in reports)
    return 1 if failing else 0


def _render_fix(result: FixResult) -> str:
    """Human-readable proof ledger for one file's fix run."""
    lines = [f"fix: {len(result.accepted)} accepted, "
             f"{len(result.rejected)} rejected "
             f"({result.rounds} round(s))"]
    for step in result.steps:
        head = (f"  {'accepted' if step.accepted else 'rejected'} "
                f"[{step.code}] {step.kind} @ line {step.line}")
        if step.accepted:
            times = "; ".join(
                f"{t}: {step.times_before_s[t] * 1e6:.2f} -> "
                f"{step.times_after_s[t] * 1e6:.2f} us"
                for t in sorted(step.times_after_s)
                if t in step.times_before_s)
            lines.append(f"{head}: {times}" if times else head)
        else:
            lines.append(f"{head}: {step.reason}")
    return "\n".join(lines)


if __name__ == "__main__":
    sys.exit(main())
