"""The benchmark's three workloads.

Each workload is a closed loop with one client: it calls the program
with one fixed, seeded item, waits for the result, checks it against
the committed reference in ``perfbench/refs/<name>.json`` and only
then sends the next item. A workload knows

* how to import the program (:meth:`Workload.import_program`, the
  timed set-up);
* how to draw its item list from ``--seed`` (:meth:`Workload.items`,
  the load generator's work, never timed);
* how to restore the state every pass starts from
  (:meth:`Workload.reset`, untimed);
* the timed call (:meth:`Workload.run`) and the digest of its output
  that the reference stores (:meth:`Workload.digest`).

Items are drawn from a fixed pool so that the references cover every
seed: a seed picks which pool entries run and in which order. ``lint``
and ``diffgen`` run their whole pool in the seed's order, so seeds
differ in order but not in the mix of cheap and costly items.
Nothing here imports ``repro`` at module import time, so set-up
timing starts from a cold interpreter.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
import shutil
from pathlib import Path

REFS_DIR = Path(__file__).resolve().parent / "refs"

#: Generator seeds the lint and diffgen pools draw from.
LINT_POOL = 400
DIFFGEN_POOL = 150
#: WL-LSMS application seeds.
WLLSMS_POOL = 32


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_refs(name: str) -> dict:
    with open(REFS_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


class Workload:
    """One workload; subclasses fill in the hooks below."""

    name = ""
    #: Modules the program needs before its first item.
    modules: tuple[str, ...] = ()
    #: Items per pass.
    size = 0

    def __init__(self, tmp: Path, refs: dict | None = None) -> None:
        self.tmp = tmp
        self.refs = load_refs(self.name) if refs is None else refs

    def import_program(self) -> None:
        """Import the program and compute the lint cache salt."""
        for module in self.modules:
            importlib.import_module(module)
        importlib.import_module("repro.lintserve").analysis_salt()

    def items(self, seed: int) -> list:
        raise NotImplementedError

    def reset(self) -> None:
        """Restore the state every pass starts from."""
        from repro.core.analysis.hb import GRAPH_CACHE

        GRAPH_CACHE.clear()

    def run(self, item):
        raise NotImplementedError

    def digest(self, item, output) -> dict[str, object]:
        """Reference key -> value for one item's output."""
        raise NotImplementedError

    def check(self, item, output) -> bool:
        return all(self.refs.get(key) == value
                   for key, value in self.digest(item, output).items())

    def counters(self) -> dict[str, int]:
        """Program counters of the pass just run."""
        return {}

    def pool_digests(self) -> dict[str, object]:
        """The full reference table over the pool (``refs.py``)."""
        raise NotImplementedError


def _path(gp) -> str:
    return f"gen/{gp.seed:04d}.c"


class Lint(Workload):
    """Cold ``repro-lint`` of one generated file per item."""

    name = "lint"
    modules = ("repro.lintserve", "repro.core.analysis.lint")
    size = LINT_POOL
    units_executed = 0

    def _programs(self, seeds) -> list:
        from repro.gen import generator

        return generator.generate_many(seeds, mode="mix")

    def items(self, seed: int) -> list:
        return self._programs(random.Random(seed).sample(
            range(LINT_POOL), self.size))

    def reset(self) -> None:
        super().reset()
        from repro import lintserve

        root = self.tmp / "lint-pass"
        shutil.rmtree(root, ignore_errors=True)
        self.cache = lintserve.ResultCache(root)
        self.units_executed = 0

    def _lint(self, gp, cache):
        from repro import lintserve

        reports, stats = lintserve.lint_sources(
            [(_path(gp), gp.source)], nprocs=gp.nprocs, jobs=1,
            cache=cache)
        self.units_executed += stats.units_executed
        return reports

    def run(self, gp) -> str:
        from repro.core.analysis import lint

        return lint.render_json(self._lint(gp, self.cache))

    def digest(self, gp, output: str) -> dict[str, object]:
        return {str(gp.seed): sha256(output)}

    def counters(self) -> dict[str, int]:
        return {"lintserve.cache.hits": self.cache.hits,
                "lintserve.cache.misses": self.cache.misses,
                "lintserve.cache.stores": self.cache.stores,
                "lintserve.units_executed": self.units_executed}

    def pool_digests(self) -> dict[str, object]:
        from repro.core.analysis import lint

        out: dict[str, object] = {}
        for gp in self._programs(range(LINT_POOL)):
            reports = self._lint(gp, None)
            out[str(gp.seed)] = sha256(lint.render_json(reports))
        return out


class Diffgen(Workload):
    """The differential oracle's CI quick profile on one program."""

    name = "diffgen"
    modules = ("repro.gen.oracle",)
    size = DIFFGEN_POOL

    def items(self, seed: int) -> list:
        from repro.gen import generator

        return generator.generate_many(random.Random(seed).sample(
            range(DIFFGEN_POOL), self.size), mode="mix")

    def reset(self) -> None:
        super().reset()
        self.checks = 0

    def run(self, gp):
        from repro.gen import oracle

        result = oracle.check_program(gp, oracle.OracleConfig())
        self.checks += result.checks
        return result

    def digest(self, gp, result) -> dict[str, object]:
        value = json.loads(json.dumps({
            "ok": result.ok, "static_codes": result.static_codes,
            "dynamic": result.dynamic}, sort_keys=True))
        return {str(gp.seed): value}

    def counters(self) -> dict[str, int]:
        return {"gen.oracle.checks": self.checks}

    def pool_digests(self) -> dict[str, object]:
        from repro.gen import generator

        out: dict[str, object] = {}
        self.reset()
        for gp in generator.generate_many(range(DIFFGEN_POOL),
                                          mode="mix"):
            out.update(self.digest(gp, self.run(gp)))
        return out


#: (variant, target) of one WL-LSMS cycle, hand-written first.
VARIANTS = (("original", "TARGET_COMM_MPI_2SIDE"),
            ("waitall", "TARGET_COMM_MPI_2SIDE"),
            ("directive", "TARGET_COMM_MPI_2SIDE"),
            ("directive", "TARGET_COMM_MPI_1SIDE"),
            ("directive", "TARGET_COMM_SHMEM"))


def variant_key(variant: str, target: str) -> str:
    if variant != "directive":
        return variant
    return f"directive/{target.removeprefix('TARGET_COMM_')}"


class Wllsms(Workload):
    """The paper's WL-LSMS application at P=33, all five variants."""

    name = "wllsms"
    modules = ("repro.apps.wllsms.app",)
    #: Cycles of the five variants per pass.
    size = 8

    def items(self, seed: int) -> list:
        return [(app_seed, variant, target)
                for app_seed in random.Random(seed).sample(
                    range(WLLSMS_POOL), self.size)
                for variant, target in VARIANTS]

    def run(self, item):
        from repro.apps.wllsms import app

        app_seed, variant, target = item
        return app.run_app(app.AppConfig(
            n_lsms=2, group_size=16, wl_steps=4, variant=variant,
            target=target, seed=app_seed))

    def digest(self, item, result) -> dict[str, object]:
        app_seed, variant, target = item
        finish = ",".join(float(t).hex() for t in result.finish_times)
        return {f"{app_seed}/{variant_key(variant, target)}": {
            "energies": [float(e).hex() for e in result.group_energies],
            "makespan": float(result.makespan).hex(),
            "finish": sha256(finish)}}

    def check(self, item, result) -> bool:
        # Energies must also be bit-equal to the hand-written original.
        original = self.refs.get(f"{item[0]}/original")
        energies = [float(e).hex() for e in result.group_energies]
        return super().check(item, result) and \
            isinstance(original, dict) and original["energies"] == energies

    def pool_digests(self) -> dict[str, object]:
        out: dict[str, object] = {}
        for app_seed in range(WLLSMS_POOL):
            for variant, target in VARIANTS:
                item = (app_seed, variant, target)
                out.update(self.digest(item, self.run(item)))
        return out


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (Lint, Diffgen, Wllsms)}
