"""``repro-gen`` — generate, differentially test, and minimize.

The command drives the whole :mod:`repro.gen` pipeline::

    repro-gen --seeds 1000 --diff --jobs 2 --stats-out diffgen.json
    repro-gen --seed 44 --mode racy --emit --out /tmp/corpus
    repro-gen --seeds 200 --diff --weaken-oracle ignore-races \
              --expect-disagreements --minimize

``--jobs N`` fans the oracle checks over the worker pool
``repro-lint`` uses (:func:`repro.lintserve.pool_map`); the pool
preserves order, so the verdicts and the stats artifact equal the
inline run's.

Exit status: 0 on success; 1 when the differential run found an
unexplained disagreement (or, under ``--expect-disagreements``, when
it found *none* — the CI proof that an injected analyzer weakening is
caught); 2 on usage errors.

Every sampling cap is logged: nothing is silently truncated.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Iterable

from repro.core.analysis import hb
from repro.core.clauses import Target
from repro.core.cli import TARGET_ALIASES
from repro.errors import ClauseError
from repro.gen.generator import MODES, GeneratedProgram, generate_many
from repro.gen.minimize import minimize_source
from repro.gen.oracle import (
    WEAKENINGS,
    Disagreement,
    OracleConfig,
    check_program,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-gen`` argument parser (exposed for the docs/tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-gen",
        description="Generate random directive programs and "
                    "differentially test the toolchain on them.",
        # No prefix matching, so ``--stats`` is an error, not an
        # abbreviation of ``--stats-out``.
        allow_abbrev=False)
    sel = parser.add_argument_group("program selection")
    sel.add_argument("--seeds", type=int, default=None, metavar="N",
                     help="generate seeds 0..N-1")
    sel.add_argument("--seed", type=int, nargs="+", default=None,
                     metavar="S", help="generate these specific seeds")
    sel.add_argument("--mode", choices=MODES + ("mix",), default="mix",
                     help="constraint mode (default: mix)")
    sel.add_argument("--nprocs", type=int, default=None,
                     help="force a world size (default: per-seed)")
    run = parser.add_argument_group("differential run")
    run.add_argument("--diff", action="store_true",
                     help="run the static/dynamic oracle on each program")
    run.add_argument("--targets", type=_parse_targets,
                     default=tuple(Target), metavar="T[,T...]",
                     help="lowering targets to sweep (mpi1s, mpi2s, "
                          "shmem or full keywords; default: all)")
    run.add_argument("--fuzz-seeds", type=int, default=2, metavar="N",
                     help="jittered schedules per clean target "
                          "(default: 2; 0 disables)")
    run.add_argument("--fix-sample", type=int, default=0, metavar="N",
                     help="run the fix-soundness arm on every Nth "
                          "program (default: 0 = off)")
    run.add_argument("--max-time", type=float, default=5.0,
                     help="virtual-time cap per dynamic run (default: 5)")
    run.add_argument("--weaken-oracle", choices=sorted(WEAKENINGS),
                     default=None,
                     help="deliberately weaken the static side "
                          "(test-only; proves regressions are caught)")
    run.add_argument("--expect-disagreements", action="store_true",
                     help="invert the exit status: fail when the run "
                          "finds NO disagreement")
    run.add_argument("--jobs", type=int, default=None, metavar="N",
                     help="fan oracle checks over N worker processes "
                          "(default: in-process)")
    out = parser.add_argument_group("output")
    out.add_argument("--minimize", action="store_true",
                     help="delta-minimize each disagreeing program")
    out.add_argument("--emit", action="store_true",
                     help="write every generated source to --out")
    out.add_argument("--out", type=Path, default=None, metavar="DIR",
                     help="directory for emitted/minimized .c files")
    out.add_argument("--stats-out", type=Path, default=None,
                     metavar="FILE",
                     help="write a run-statistics JSON artifact")
    out.add_argument("--quiet", action="store_true",
                     help="suppress per-program progress lines")
    return parser


def _parse_targets(spec: str) -> tuple[Target, ...]:
    """argparse ``type`` of ``--targets``: comma-separated short aliases
    (:data:`repro.core.cli.TARGET_ALIASES`) or target keywords."""
    accepted = ", ".join([*TARGET_ALIASES, *(t.value for t in Target)])
    words = [word.strip() for word in spec.split(",") if word.strip()]
    if not words:
        raise argparse.ArgumentTypeError(
            f"names no target; accepts {accepted}")
    out = []
    for word in words:
        target = TARGET_ALIASES.get(word.lower())
        if target is None:
            try:
                target = Target.parse(word)
            except ClauseError:
                raise argparse.ArgumentTypeError(
                    f"unknown target {word!r}; accepts {accepted}"
                ) from None
        out.append(target)
    return tuple(out)


def _programs(ns: argparse.Namespace) -> list[GeneratedProgram]:
    seeds: Iterable[int]
    if ns.seed is not None:
        seeds = ns.seed
    else:
        seeds = range(ns.seeds if ns.seeds is not None else 20)
    return list(generate_many(seeds, mode=ns.mode, nprocs=ns.nprocs))


def _check_unit(item: tuple[GeneratedProgram, OracleConfig]) -> dict:
    """Pool worker: one oracle check → a JSON-serializable summary.

    ``hb_hits``/``hb_misses`` are this check's own walk-cache lookups,
    counted in whichever process ran it.
    """
    gp, config = item
    cache = hb.GRAPH_CACHE
    hits, misses = cache.hits, cache.misses
    result = check_program(gp, config)
    return {
        "checks": result.checks,
        "explained": list(result.explained),
        "disagreements": [asdict(d) for d in result.disagreements],
        "hb_hits": cache.hits - hits,
        "hb_misses": cache.misses - misses,
    }


def _iter_results(programs: list[GeneratedProgram],
                  configs: list[OracleConfig],
                  jobs: int) -> Iterable[dict]:
    """Oracle summaries for each program, in generation order.

    ``jobs > 1`` fans the checks over :func:`repro.lintserve.
    scheduler.pool_map` (order-preserving, so the output is identical
    to the sequential path); otherwise checks run inline so progress
    lines stay live.
    """
    items = list(zip(programs, configs))
    if jobs > 1:
        from repro.lintserve.scheduler import pool_map

        return pool_map(_check_unit, items, jobs)
    return map(_check_unit, items)


def _minimize_one(gp: GeneratedProgram, disagreement: Disagreement,
                  config: OracleConfig, out_dir: Path,
                  quiet: bool) -> dict[str, object]:
    """Shrink one disagreeing program and write the repro file."""
    kind = disagreement.kind

    def still_disagrees(source: str) -> bool:
        probe = GeneratedProgram(seed=gp.seed, mode=gp.mode,
                                 nprocs=gp.nprocs, source=source,
                                 planted=gp.planted)
        result = check_program(probe, config)
        return any(d.kind == kind for d in result.disagreements)

    shrunk = minimize_source(gp.source, still_disagrees)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"seed{gp.seed}_{kind.replace('-', '_')}.c"
    header = (f"/* repro-gen minimized repro: seed={gp.seed} "
              f"mode={gp.mode} nprocs={gp.nprocs} kind={kind} */\n")
    path.write_text(header + shrunk.source)
    if not quiet:
        print(f"  minimized {shrunk.initial_statements} -> "
              f"{shrunk.final_statements} statements: {path}")
    return {"seed": gp.seed, "kind": kind, "file": str(path),
            "initial_statements": shrunk.initial_statements,
            "final_statements": shrunk.final_statements}


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit status."""
    ns = build_parser().parse_args(argv)
    targets = ns.targets
    programs = _programs(ns)
    out_dir = ns.out or Path("examples/pragmas/generated")

    if ns.emit:
        out_dir.mkdir(parents=True, exist_ok=True)
        for gp in programs:
            path = out_dir / f"seed{gp.seed}_{gp.mode}.c"
            path.write_text(gp.source)
            if not ns.quiet:
                print(f"wrote {path}  ({gp.describe()})")

    if not ns.diff:
        if not ns.emit:
            for gp in programs:
                print(gp.describe())
        return 0

    config = OracleConfig(targets=targets, fuzz_seeds=ns.fuzz_seeds,
                          weaken=ns.weaken_oracle,
                          max_time=ns.max_time)
    fix_config = OracleConfig(targets=targets,
                              fuzz_seeds=ns.fuzz_seeds,
                              weaken=ns.weaken_oracle,
                              max_time=ns.max_time, fix_check=True)
    if ns.fix_sample > 0:
        sampled = len(programs[::ns.fix_sample])
        print(f"fix-soundness arm sampled on {sampled}/{len(programs)} "
              f"programs (every {ns.fix_sample}th; the rest skip "
              f"check (d))")

    jobs = max(1, ns.jobs) if ns.jobs is not None else 1
    configs = [(fix_config if ns.fix_sample > 0
                and index % ns.fix_sample == 0 else config)
               for index in range(len(programs))]

    checks = 0
    hb_cache = {"hits": 0, "misses": 0}
    explained: list[str] = []
    disagreements: list[Disagreement] = []
    minimized: list[dict[str, object]] = []
    mode_counts: dict[str, int] = {}
    results = _iter_results(programs, configs, jobs)
    for index, (gp, result) in enumerate(zip(programs, results)):
        mode_counts[gp.mode] = mode_counts.get(gp.mode, 0) + 1
        checks += result["checks"]
        hb_cache["hits"] += result["hb_hits"]
        hb_cache["misses"] += result["hb_misses"]
        explained.extend(result["explained"])
        found = [Disagreement(**d) for d in result["disagreements"]]
        if found:
            for d in found:
                print(d)
            disagreements.extend(found)
            if ns.minimize:
                seen_kinds = set()
                for d in found:
                    if d.kind in seen_kinds:
                        continue
                    seen_kinds.add(d.kind)
                    minimized.append(_minimize_one(
                        gp, d, configs[index], out_dir, ns.quiet))
        elif not ns.quiet and (index + 1) % 100 == 0:
            print(f"  {index + 1}/{len(programs)} programs checked, "
                  f"{checks} oracle checks, "
                  f"{len(disagreements)} disagreements")

    summary = (f"{len(programs)} programs, {checks} oracle checks, "
               f"{len(disagreements)} disagreements "
               f"({len(explained)} explained divergences)")
    print(summary)
    if ns.stats_out is not None:
        stats = {
            "programs": len(programs),
            "jobs": jobs,
            "modes": mode_counts,
            "targets": [t.value for t in targets],
            "oracle_checks": checks,
            "disagreements": [asdict(d) for d in disagreements],
            "explained": explained,
            "minimized": minimized,
            "weaken": ns.weaken_oracle,
            "hb_cache": hb_cache,
        }
        ns.stats_out.parent.mkdir(parents=True, exist_ok=True)
        ns.stats_out.write_text(json.dumps(stats, indent=2) + "\n")
        print(f"stats written to {ns.stats_out}")

    if ns.expect_disagreements:
        if not disagreements:
            print("repro-gen: expected disagreements but found none "
                  "(the weakened oracle failed to catch anything)",
                  file=sys.stderr)
            return 1
        return 0
    return 1 if disagreements else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
